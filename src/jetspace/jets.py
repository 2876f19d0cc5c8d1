"""Truncated jets over affine polynomial and univariate coordinate rings.

A JetElement of order N in m variables lives in k[x_1..x_m, dx_1..dx_m]
with every monomial of total dx-degree > N discarded.  The universal
derivation sends f to f(x + dx) truncated; it is multiplicative because
truncation is an ideal-quotient operation.

Jets of finitely presented modules over Q[t] are computed through the
prolonged presentation: each relation p(t) becomes the family of columns
dt^s * p(t + dt), expanded over the dt-power basis and truncated, which is
exactly what taking jets of a cokernel presentation yields (jets preserve
cokernels).  For a cyclic module Q[t]/(p) the invariant factors of the jet
module also have a closed form in the squarefree parts of p.

The operator/jet dictionary: an order-N operator D = sum c_beta(x) d^beta
corresponds to the module map determined on the dx-power basis by
dx^beta -> beta! * c_beta(x); composing with the universal derivation
recovers the action of D.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from typing import NamedTuple

from . import linalg, weyl
from .errors import PreconditionError, _binomial_bits, _step, check_work
from .laurent import Exponent, LaurentPoly, monomials_of_degree
from .presented import PresentedModule, UniPoly

# a cyclic jet length deg(p) * (N + 1) above this is refused up front: `jet
# --cyclic` took up to 3.6 s at length 500, 25 s at 1000 (2-core Xeon, Py 3.11)
CYCLIC_JET_LENGTH_LIMIT = 500

# besides the _step of its coefficient, an output term of universal_derivation
# takes about 2^20 work units to build and print: 16 us (2-core Xeon, Py 3.11)
_TERM_WORK = 2 ** 20


class JetElement:
    """Polynomial in x and dx, truncated past dx-order N."""

    __slots__ = ("m", "order", "poly")

    def __init__(self, m: int, order: int, poly: LaurentPoly):
        if poly.nvars != 2 * m:
            raise ValueError("jet polynomial must have 2m variables (x then dx)")
        if order < 0:
            raise ValueError("jet order must be nonnegative")
        self.m = m
        self.order = order
        self.poly = _truncate(poly, m, order)

    @classmethod
    def zero(cls, m: int, order: int) -> "JetElement":
        return cls(m, order, LaurentPoly.zero(2 * m))

    def __add__(self, other: "JetElement") -> "JetElement":
        self._check(other)
        return JetElement(self.m, self.order, self.poly + other.poly)

    def __sub__(self, other: "JetElement") -> "JetElement":
        self._check(other)
        return JetElement(self.m, self.order, self.poly - other.poly)

    def __neg__(self) -> "JetElement":
        return JetElement(self.m, self.order, -self.poly)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return JetElement(self.m, self.order, self.poly * other)
        if not isinstance(other, JetElement):
            return NotImplemented
        self._check(other)
        return JetElement(self.m, self.order, self.poly * other.poly)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetElement):
            return NotImplemented
        return (self.m, self.order, self.poly) == (other.m, other.order, other.poly)

    def __hash__(self):
        return hash((self.m, self.order, self.poly))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def _check(self, other: "JetElement") -> None:
        if self.m != other.m or self.order != other.order:
            raise ValueError("jet shape mismatch")

    def __repr__(self) -> str:
        return f"JetElement(m={self.m}, order={self.order}, {self.poly!r})"


def _truncate(poly: LaurentPoly, m: int, order: int) -> LaurentPoly:
    out = {e: c for e, c in poly.terms.items() if sum(e[m:]) <= order}
    return poly if len(out) == len(poly.terms) else LaurentPoly._raw(poly.nvars, out)


def universal_derivation(f: LaurentPoly, order: int) -> JetElement:
    """f |-> f(x + dx) truncated past dx-order N; multiplicative by design.

    A term c x^gamma of f gives at most prod_i (min(gamma_i, N) + 1) terms,
    with coefficients c prod_i C(gamma_i, k_i).  Input whose work estimate for
    those passes errors.WORK_LIMIT is refused with PreconditionError before
    any binomial."""
    if f.has_negative_exponent():
        raise PreconditionError("universal derivation is defined for polynomials only")
    if order < 0:
        raise PreconditionError("jet order must be nonnegative")
    check_work(_derivation_work(f, order), "(m={}, N={}, terms={})",
               f.nvars, order, len(f.terms))
    return JetElement(f.nvars, order, LaurentPoly(2 * f.nvars, (
        (tuple(g - kj for g, kj in zip(gamma, k)) + k, c * prod(map(comb, gamma, k)))
        for gamma, c in f.terms.items() for k in _sub_multiindices(gamma, order))))


def _derivation_work(f: LaurentPoly, order: int) -> int:
    """Work estimate of universal_derivation(f, N): each output term of
    c x^gamma makes a coefficient of at most the bits of c plus
    sum_i bits(C(gamma_i, min(gamma_i // 2, N))), as k_i <= N."""
    return sum(prod(min(g, order) + 1 for g in gamma)
               * (_step(c.numerator.bit_length() + c.denominator.bit_length()
                        + sum(_binomial_bits(g, min(g // 2, order)) for g in gamma))
                  + _TERM_WORK)
               for gamma, c in f.terms.items())


def _sub_multiindices(gamma: Exponent, cap: int):
    """All k with 0 <= k <= gamma componentwise and |k| <= cap."""
    m = len(gamma)

    def rec(i: int, budget: int, prefix: tuple[int, ...]):
        if i == m:
            yield prefix
            return
        for v in range(min(gamma[i], budget) + 1):
            yield from rec(i + 1, budget - v, prefix + (v,))

    yield from rec(0, cap, ())


def jet_free_rank(m: int, order: int, rank: int = 1) -> int:
    """Rank of the order-N jet module of a free rank-r module over m variables,
    r C(m + N, N).  Input whose binomial's work estimate passes
    errors.WORK_LIMIT is refused with PreconditionError before computing it."""
    if m < 0 or order < 0 or rank < 0:
        raise PreconditionError("jet_free_rank arguments must be nonnegative")
    check_work(_step(_binomial_bits(m + order, order)), "(m={}, N={})", m, order)
    return rank * comb(m + order, order)


def jet_of_presented(module: PresentedModule, order: int) -> PresentedModule:
    """Jet module of coker(R) over Q[t], via the prolonged presentation.

    Generators are (original generator, dt-layer) pairs; the relation column
    for (original column, shift s) is dt^s * p(t + dt) truncated, expanded
    over the dt-power basis.
    """
    if order < 0:
        raise PreconditionError("jet order must be nonnegative")
    g, r = module.gens, module.relation_count
    layers = order + 1
    zero = UniPoly.zero()
    new_rels = [[zero] * (r * layers) for _ in range(g * layers)]
    for i in range(g):
        for c in range(r):
            p = module.relations[i][c]
            if not p:
                continue
            taylor = p.shift_coefficients()
            for s in range(layers):
                col = c * layers + s
                for k, q in enumerate(taylor):
                    if s + k >= layers:
                        break
                    if q:
                        new_rels[i * layers + s + k][col] = q
    return PresentedModule(g * layers, new_rels)


def cyclic_jet_invariants(p: UniPoly, order: int) -> tuple[UniPoly, ...]:
    """Nonunit invariant factors of the jet module of Q[t]/(p), ascending.

    Closed form, no Smith reduction.  The jet module is Q[u, s]/(p(u), s^(N+1))
    with t = u - s.  At a root of p of multiplicity e, t minus the root is
    the difference of commuting nilpotents of Jordan types (e) and (N+1),
    whose Jordan blocks have sizes N + e - 2r for r < min(e, N+1)
    (Clebsch-Gordan, characteristic 0).  Collecting the roots by the
    squarefree parts q_e of p, the r-th invariant factor from the top is
    prod_{e > r} q_e^(N + e - 2r).  The product of all of them is
    monic(p)^(N+1), so the length is deg(p) * (N + 1).  A length above
    CYCLIC_JET_LENGTH_LIMIT is refused with PreconditionError before any work.
    """
    if not p:
        raise PreconditionError("cyclic module Q[t]/(0) is not torsion")
    if order < 0:
        raise PreconditionError("jet order must be nonnegative")
    length = p.degree() * (order + 1)
    if length > CYCLIC_JET_LENGTH_LIMIT:
        raise PreconditionError(
            f"the jet module of Q[t]/(p) at N={order} has length {length}, "
            f"above the limit {CYCLIC_JET_LENGTH_LIMIT}")
    parts = p.squarefree_parts()
    factors = []
    for r in range(min(len(parts), order + 1)):
        d = UniPoly.one()
        for e, q in enumerate(parts[r:], start=r + 1):
            d = d * q ** (order + e - 2 * r)
        factors.append(d)
    return tuple(reversed(factors))


def operator_to_jet_map(op: weyl.WeylElement, order: int) -> dict[Exponent, LaurentPoly]:
    """The values of the corresponding jet-module map on the dx-power basis.

    Returns beta -> beta! * c_beta(x) for every derivative exponent beta of
    the operator; absent keys act as zero.
    """
    op_order = op.order()
    if op_order is not None and op_order > order:
        raise PreconditionError(f"operator order {op_order} exceeds jet order {order}")
    m = op.nvars
    values: dict[Exponent, dict[Exponent, Fraction]] = {}
    for (alpha, beta), c in op.terms.items():
        fact = 1
        for b in beta:
            fact *= factorial(b)
        values.setdefault(beta, {})[alpha] = c * fact
    return {beta: LaurentPoly(m, terms) for beta, terms in values.items()}


def evaluate_jet_map(values: dict[Exponent, LaurentPoly], jet: JetElement) -> LaurentPoly:
    """Apply a module map given on the dx-power basis to a jet, x-linearly."""
    m = jet.m
    out = LaurentPoly.zero(m)
    grouped: dict[Exponent, dict[Exponent, Fraction]] = {}
    for e, c in jet.poly.terms.items():
        grouped.setdefault(e[m:], {})[e[:m]] = c
    for k, xterms in grouped.items():
        target = values.get(k)
        if target is None or target.is_zero():
            continue
        out = out + LaurentPoly(m, xterms) * target
    return out


def do_jet_correspondence_check(op: weyl.WeylElement, order: int,
                                testset: list[LaurentPoly] | None = None) -> bool:
    """Exact check that factoring through the universal derivation recovers D.

    For every f in the testset, the jet-module map associated to D applied
    to the universal derivation of f must equal D(f).  Defaults to all
    monomials of total degree <= 3.
    """
    values = operator_to_jet_map(op, order)
    m = op.nvars
    if testset is None:
        testset = [LaurentPoly.monomial(e) for deg in range(4)
                   for e in monomials_of_degree(m, deg)]
    for f in testset:
        via_jets = evaluate_jet_map(values, universal_derivation(f, order))
        if via_jets != op.apply(f):
            return False
    return True


class SymbolQuotientResult(NamedTuple):
    ok: bool
    dimension: int

    def __bool__(self) -> bool:
        return self.ok


def symbol_quotient_check(m: int, order: int) -> SymbolQuotientResult:
    """Verify the top graded piece of the order filtration is free on d^beta.

    The pure derivative monomials of order exactly N must stay independent
    after quotienting by lower-order operators, and their count must be
    binom(m + N - 1, N).  Independence is certified by the action on the
    degree-N monomials (the pairing matrix is invertible) together with the
    normal-form order of an arbitrary combination.
    """
    if m < 1 or order < 1:
        raise PreconditionError("symbol quotient check needs m >= 1, N >= 1")
    betas = monomials_of_degree(m, order)
    expected = comb(m + order - 1, order)
    if len(betas) != expected:
        return SymbolQuotientResult(False, expected)
    gammas = betas
    col_index = {g: j for j, g in enumerate(gammas)}
    entries = {}
    for i, beta in enumerate(betas):
        op = weyl.WeylElement.monomial((0,) * m, beta)
        if op.order() != order:
            return SymbolQuotientResult(False, expected)
        for gamma in gammas:
            image = op.apply_monomial(gamma)
            const = image.get((0,) * m)
            if const:
                entries[(i, col_index[gamma])] = const
    pairing = linalg.ExactMatrix(len(betas), len(gammas), entries)
    combined = weyl.WeylElement(m, {((0,) * m, b): Fraction(1) for b in betas})
    ok = pairing.rank() == expected and combined.order() == order
    return SymbolQuotientResult(ok, expected)
