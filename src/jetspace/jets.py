"""Truncated jets over affine polynomial and univariate coordinate rings.

A JetElement of order N in m variables lives in k[x_1..x_m, dx_1..dx_m]
with every monomial of total dx-degree > N discarded.  The universal
derivation sends f to f(x + dx) truncated; it is multiplicative because
truncation is an ideal-quotient operation.

Jets of a cyclic module Q[t]/(p) have invariant factors in closed form, read
off the chain of gcds of p with its derivative.  Jets of a finitely presented
Q[t]-module follow by additivity: J^N depends only on the isomorphism class
of the module and takes direct sums to direct sums, so the jets of
Q[t]^f + sum_i Q[t]/(d_i), the module's own invariant factors, are a free
module of rank f (N + 1) plus the cyclic jets of the d_i, merged into one
divisibility chain.  Universal derivations, free jet ranks and jets of
cyclic and presented modules estimate their work from the sizes of their
input first, and errors.check_work refuses what passes errors.WORK_LIMIT;
the Smith form of a presented module's own presentation is refused the
same way by presented.smith_normal_form, before any elimination.

The operator/jet dictionary: an order-N operator D = sum c_beta(x) d^beta
corresponds to the module map determined on the dx-power basis by
dx^beta -> beta! * c_beta(x); composing with the universal derivation
recovers the action of D.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from typing import NamedTuple

# Modules, not names: reading jets executes neither laurent nor presented
# until a function here first calls into them (see __init__).
from . import laurent, linalg, presented, weyl
from .errors import (PreconditionError, _ITEM_WORK, _binomial_bits, _fraction_bits, _step,
                     check_work)

# besides the _step of its coefficient, an output term of universal_derivation
# takes about 2^20 work units to build and print: 16 us (2-core Xeon, Py 3.11)
_TERM_WORK = 2 ** 20


class JetElement:
    """Polynomial in x and dx, truncated past dx-order N."""

    __slots__ = ("m", "order", "poly")

    def __init__(self, m: int, order: int, poly: laurent.LaurentPoly):
        if poly.nvars != 2 * m:
            raise ValueError("jet polynomial must have 2m variables (x then dx)")
        if order < 0:
            raise ValueError("jet order must be nonnegative")
        self.m = m
        self.order = order
        self.poly = _truncate(poly, m, order)

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


def _truncate(poly: laurent.LaurentPoly, m: int, order: int) -> laurent.LaurentPoly:
    out = {e: c for e, c in poly.terms.items() if sum(e[m:]) <= order}
    return poly if len(out) == len(poly.terms) else laurent.LaurentPoly._raw(poly.nvars, out)


def universal_derivation(f: laurent.LaurentPoly, order: int) -> JetElement:
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
    return JetElement(f.nvars, order, laurent.LaurentPoly(2 * f.nvars, (
        (tuple(g - kj for g, kj in zip(gamma, k)) + k, c * prod(map(comb, gamma, k)))
        for gamma, c in f.terms.items()
        for k in product(*(range(min(g, order) + 1) for g in gamma)) if sum(k) <= order)))


def _derivation_work(f: laurent.LaurentPoly, order: int) -> int:
    """Work estimate of universal_derivation(f, N): each output term of
    c x^gamma makes a coefficient of at most the bits of c plus
    sum_i bits(C(gamma_i, min(gamma_i // 2, N))), as k_i <= N."""
    return sum(prod(min(g, order) + 1 for g in gamma)
               * (_step(_fraction_bits(c)
                        + sum(_binomial_bits(g, min(g // 2, order)) for g in gamma))
                  + _TERM_WORK)
               for gamma, c in f.terms.items())


def jet_free_rank(m: int, order: int, rank: int = 1) -> int:
    """Rank of the order-N jet module of a free rank-r module over m variables,
    r C(m + N, N).  Input whose binomial's work estimate passes
    errors.WORK_LIMIT is refused with PreconditionError before computing it."""
    if m < 0 or order < 0 or rank < 0:
        raise PreconditionError("jet_free_rank arguments must be nonnegative")
    check_work(_step(_binomial_bits(m + order, order)), "(m={}, N={})", m, order)
    return rank * comb(m + order, order)


def jet_of_presented(module: presented.PresentedModule, order: int) -> presented.PresentedModule:
    """Jet module of coker(R) over Q[t], presented by its free part and its
    invariant factors on the diagonal.

    J^N(M) is the extension of scalars of M along t -> t + dt into
    A = Q[t][dt]/(dt^(N+1)), a Q[t]-module through t, free on 1, dt, ..., dt^N.
    Extension of scalars is additive, takes isomorphic modules to isomorphic
    ones and, being right exact, takes coker R to the cokernel of the
    prolonged R: the columns dt^s R(t + dt), expanded over the dt-power basis.
    So with M = Q[t]^f + sum_i Q[t]/(d_i) read off its invariants, J^N(M) is
    A^f, free of rank f (N + 1), plus the sum over i of J^N(Q[t]/(d_i)), whose
    invariant factors cyclic_jet_invariants(d_i, N) gives.  divisibility_chain
    merges those into one chain, and its units drop out; the result records
    that chain as its invariants, so they cost no second Smith form.  The one
    Smith form run is that of M's own g x r presentation, which
    smith_normal_form refuses with PreconditionError when its own work
    estimate passes errors.WORK_LIMIT.  Then input whose work estimate
    (_presented_work) passes the limit is refused with PreconditionError
    before any gcd chain.
    """
    if order < 0:
        raise PreconditionError("jet order must be nonnegative")
    free_rank, torsion = module.invariants()
    check_work(_presented_work(free_rank, torsion, order),
               "the jet module at N={} of a Q[t]-module of free rank {} and torsion degrees {}",
               order, free_rank, [d.degree() for d in torsion])
    merged = presented.divisibility_chain(
        e for d in torsion for e in cyclic_jet_invariants(d, order))
    return presented.PresentedModule.from_invariants(
        free_rank * (order + 1), [e for e in merged if not e.is_unit()])


def _presented_work(free_rank: int, torsion: tuple[presented.UniPoly, ...], order: int) -> int:
    """Work estimate of jet_of_presented from M's invariants (f, d_1, ...):
    cyclic_jet_invariants of each d_i (_cyclic_work); then the merge of their
    k <= sum_i min(N + 1, deg d_i) factors, whose degrees add up to the length
    L = (N + 1) sum_i deg d_i.  Row i of the merge runs a gcd, a product and a
    division of d_i, of degree a, with each later factor, at most
    3 a (L - a) <= L^2 products in all, on coefficients of up to the bits of
    prod_i monic(d_i)^(N + 1); k - 1 rows run a step.  Then at most
    (F + k) k + F cells build the diagonal presentation of free rank
    F = f (N + 1)."""
    count = sum(min(order + 1, d.degree()) for d in torsion)
    length = (order + 1) * sum(d.degree() for d in torsion)
    bits = (order + 1) * sum(_monic_bits(d) + d.degree().bit_length() for d in torsion)
    rank = free_rank * (order + 1)
    return (sum(_cyclic_work(d, order) for d in torsion)
            + (count - 1) * length * length * (_ITEM_WORK + _step(bits))
            + ((rank + count) * count + rank) * _ITEM_WORK)


def cyclic_jet_invariants(p: presented.UniPoly, order: int) -> tuple[presented.UniPoly, ...]:
    """Nonunit invariant factors of the jet module of Q[t]/(p), ascending.

    Closed form, no Smith reduction.  The jet module is Q[u, s]/(p(u), s^(N+1))
    with t = u - s.  At a root of p of multiplicity e, t minus the root is
    the difference of commuting nilpotents of Jordan types (e) and (N+1),
    whose Jordan blocks have sizes N + e - 2r for r < min(e, N+1)
    (Clebsch-Gordan, characteristic 0).  Write monic(p) = prod_e q_e^e with
    q_e the monic product of the roots of multiplicity e; the r-th invariant
    factor from the top is then prod_{e > r} q_e^(N + e - 2r).  The product of
    all of them is monic(p)^(N+1), so the length is deg(p) * (N + 1).

    The q_e are never computed.  Let g_0 = monic(p), g_{i+1} = gcd(g_i, g_i').
    A root of multiplicity k in g_i has multiplicity k - 1 in g_i', and every
    root of g_i' that is not one of g_i's is dropped by the gcd, so
    g_i = prod_{e > i} q_e^(e - i) by induction, and g_r / g_{r+1} =
    prod_{e > r} q_e.  Hence the r-th factor from the top,
    prod_{e > r} q_e^(e - r - 1) * q_e^(N - r + 1), is
    g_{r+1} (g_r / g_{r+1})^(N + 1 - r).  It is a nonunit exactly when g_r
    is, so the chain stops at the first unit g_i, or at g_{N+1}: the factors
    are those of r < min(len(chain) - 1, N + 1).  Input whose work estimate
    (_cyclic_work) passes errors.WORK_LIMIT is refused with
    PreconditionError before any work.
    """
    if not p:
        raise PreconditionError("cyclic module Q[t]/(0) is not torsion")
    if order < 0:
        raise PreconditionError("jet order must be nonnegative")
    check_work(_cyclic_work(p, order), "the jet module of Q[t]/(p) at N={} (deg p = {})",
               order, p.degree())
    chain = [p.monic()]
    while chain[-1].degree() > 0 and len(chain) < order + 2:
        chain.append(chain[-1].gcd(chain[-1].derivative()))
    return tuple(reversed([h * (g // h) ** (order + 1 - r)
                           for r, (g, h) in enumerate(zip(chain, chain[1:]))]))


def _cyclic_work(p: presented.UniPoly, order: int) -> int:
    """Work estimate of cyclic_jet_invariants(p, N), in Fraction products of
    an item and a _step each.  With D = deg(p) and b the bits of the largest
    coefficient of monic(p), at most those of a coefficient plus the lead's:
    the gcd chain runs at most min(N + 1, D) Euclidean gcds of D^2 products,
    on entries of up to 2 D b bits; the powers multiply up to a length of
    D (N + 1), the last and largest product pairing two halves of it, on
    coefficients of up to (N + 1)(b + bits(D)) bits, a power of monic(p) at
    most."""
    deg, bits = p.degree(), _monic_bits(p)
    half = deg * (order + 1) // 2
    return (min(order + 1, deg) * deg * deg * (_ITEM_WORK + _step(2 * deg * bits))
            + half * half * (_ITEM_WORK + _step((order + 1) * (bits + deg.bit_length()))))


def _monic_bits(p: presented.UniPoly) -> int:
    """A bound on the bits of a coefficient of monic(p): those of p's largest
    coefficient plus those of its lead."""
    return max(map(_fraction_bits, p.terms.values())) + _fraction_bits(p.lead())


def operator_to_jet_map(op: weyl.WeylElement,
                        order: int) -> dict[laurent.Exponent, laurent.LaurentPoly]:
    """The values of the corresponding jet-module map on the dx-power basis.

    Returns beta -> beta! * c_beta(x) for every derivative exponent beta of
    the operator; absent keys act as zero.
    """
    op_order = op.order()
    if op_order is not None and op_order > order:
        raise PreconditionError(f"operator order {op_order} exceeds jet order {order}")
    m = op.nvars
    values: dict[laurent.Exponent, dict[laurent.Exponent, Fraction]] = {}
    for (alpha, beta), c in op.terms.items():
        fact = 1
        for b in beta:
            fact *= factorial(b)
        values.setdefault(beta, {})[alpha] = c * fact
    return {beta: laurent.LaurentPoly(m, terms) for beta, terms in values.items()}


def evaluate_jet_map(values: dict[laurent.Exponent, laurent.LaurentPoly],
                     jet: JetElement) -> laurent.LaurentPoly:
    """Apply a module map given on the dx-power basis to a jet, x-linearly."""
    m = jet.m
    out = laurent.LaurentPoly.zero(m)
    grouped: dict[laurent.Exponent, dict[laurent.Exponent, Fraction]] = {}
    for e, c in jet.poly.terms.items():
        grouped.setdefault(e[m:], {})[e[:m]] = c
    for k, xterms in grouped.items():
        target = values.get(k)
        if target is None or target.is_zero():
            continue
        out = out + laurent.LaurentPoly(m, xterms) * target
    return out


def do_jet_correspondence_check(op: weyl.WeylElement, order: int,
                                testset: list[laurent.LaurentPoly] | None = None) -> bool:
    """Exact check that factoring through the universal derivation recovers D.

    For every f in the testset, the jet-module map associated to D applied
    to the universal derivation of f must equal D(f).  Defaults to all
    monomials of total degree <= 3.
    """
    values = operator_to_jet_map(op, order)
    m = op.nvars
    if testset is None:
        testset = [laurent.LaurentPoly.monomial(e) for deg in range(4)
                   for e in laurent.monomials_of_degree(m, deg)]
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
    betas = laurent.monomials_of_degree(m, order)
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
