"""Principal symbols of differential operators and ellipticity verdicts.

The order-N symbol keeps exactly the order-N terms of each operator and
replaces d^beta by xi^beta, giving a matrix of polynomials homogeneous of
degree N in the cotangent variables (with polynomial x-coefficients when the
operators have them).  Internally an entry lives in 2m variables: the first
m are the chart coordinates, the last m the cotangent coordinates.

Two ellipticity notions are implemented for constant-coefficient symbols:

* algebraic: is det sigma nonvanishing away from the origin over the
  algebraic closure?  For a positive-degree form in m >= 2 variables the
  answer is always no; witnesses are produced for monomial and binomial
  determinants (rational where possible, otherwise one coordinate is a root
  of an explicit integer polynomial).

* real: is det sigma nonvanishing away from the origin over the reals?
  Quadratic forms are decided exactly by rational congruence
  diagonalization.  Other degrees run a deterministic dyadic sign-change
  search over the max-norm unit sphere; a zero or sign change certifies a
  "false", exhaustion returns "unknown" rather than a guess.

Each route estimates its work before it starts, from the matrix size r, m,
the degree, the term count and the coefficient bits, and errors.check_work
refuses it past errors.WORK_LIMIT: the Laplace expansion of the
determinant, the quadratic route's m pivot steps, the grid's points times
terms with its largest tick power, and the witness polynomial's length.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, isqrt
from typing import NamedTuple, Sequence

from .errors import (InconsistencyError, PreconditionError, _ITEM_WORK, _fraction_bits,
                     _step, check_work)
from .laurent import LaurentPoly, primitive_integers
from .weyl import WeylElement

_GRID_TICKS = 4  # the search grid has step 1 / _GRID_TICKS
_BISECT_STEPS = 12  # a sign change is narrowed by this many halvings

# work units (errors._step) of one step of each route, so that the slowest
# input each accepts takes about 1-3 s (2-core Xeon, Python 3.11; CHANGES.md
# has the calibration): an entry-times-minor product of the Laplace
# expansion (30 us) and each of its term pairs (7 us), one of the m^3
# products of the quadratic route, and a tick product of the grid search; a
# printed coefficient of a witness polynomial is one errors._ITEM_WORK
_PRODUCT_WORK = 2 ** 21
_PAIR_WORK = 2 ** 19
_FORM_WORK = 2 ** 19
_GRID_WORK = 2 ** 14


# ---- symbol extraction -------------------------------------------------


class SymbolMatrix(NamedTuple):
    """r x r matrix of xi-homogeneous polynomials of common degree N."""

    m: int
    order: int
    entries: tuple[tuple[LaurentPoly, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def constant_coefficient(self) -> bool:
        m = self.m
        return all(max(e[:m], default=0) == 0 and min(e[:m], default=0) == 0
                   for row in self.entries for p in row for e in p.terms)

    def det(self) -> LaurentPoly:
        """Laplace expansion along the first row, refused with
        PreconditionError when its work estimate passes errors.WORK_LIMIT."""
        check_work(_det_work(self), "the {0}x{0} symbol determinant (m={1}, N={2})",
                   self.size, self.m, self.order)
        return _poly_det([list(row) for row in self.entries], 2 * self.m)

    def xi_det(self) -> LaurentPoly:
        """Determinant as a polynomial in the cotangent variables alone."""
        return _strip_x(self.det(), self.m)

    def __matmul__(self, other: "SymbolMatrix") -> "SymbolMatrix":
        if not isinstance(other, SymbolMatrix):
            return NotImplemented
        if self.m != other.m or self.size != other.size:
            raise ValueError("symbol matrix shape mismatch")
        r = self.size
        rows = []
        for i in range(r):
            row = []
            for j in range(r):
                acc = LaurentPoly.zero(2 * self.m)
                for k in range(r):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return SymbolMatrix(m=self.m, order=self.order + other.order,
                            entries=tuple(rows))


def _poly_det(block: list[list[LaurentPoly]], nvars: int) -> LaurentPoly:
    r = len(block)
    if r == 0:
        return LaurentPoly.one(nvars)
    if r == 1:
        return block[0][0]
    acc = LaurentPoly.zero(nvars)
    for j in range(r):
        entry = block[0][j]
        if entry.is_zero():
            continue
        minor = [[row[t] for t in range(r) if t != j] for row in block[1:]]
        term = entry * _poly_det(minor, nvars)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _det_work(S: SymbolMatrix) -> int:
    """Work estimate of S.det(): an s x s minor makes s products of an entry
    (at most t terms, coefficients of at most c bits, x-degree at most X) and
    an (s-1) x (s-1) minor, whose determinant has at most (s-1)! t^(s-1)
    terms, and no more than the monomials of xi-degree (s-1) N and x-degree
    at most (s-1) X."""
    m, order = S.m, S.order
    entries = [p for row in S.entries for p in row]
    t = max((len(p.terms) for p in entries), default=0)
    bits = max((_fraction_bits(c) for p in entries for c in p.terms.values()), default=0)
    xdeg = max((sum(e[:m]) for p in entries for e in p.terms), default=0)
    work, terms = 0, t
    for s in range(2, S.size + 1):
        work = s * (work + _PRODUCT_WORK + t * terms * (_PAIR_WORK + _step(s * bits)))
        terms = min(s * t * terms,
                    comb(s * order + m - 1, m - 1) * comb(s * xdeg + m, m))
    return work


def _strip_x(poly: LaurentPoly, m: int) -> LaurentPoly:
    out = {}
    for e, c in poly.terms.items():
        if any(e[:m]):
            raise PreconditionError("symbol has nonconstant chart coefficients")
        out[e[m:]] = c
    return LaurentPoly(m, out)


def symbol_of(op, order: int) -> SymbolMatrix:
    """Order-N symbol of an operator or an operator matrix.

    Keeps the terms of derivative order exactly N and substitutes the
    cotangent variables for the derivatives.  Terms above order N are a
    precondition violation, terms below it drop out.
    """
    if isinstance(op, WeylElement):
        rows = [[op]]
    else:
        rows = [list(r) for r in op]
    if order < 0:
        raise PreconditionError("symbol order must be nonnegative")
    m = rows[0][0].nvars
    out_rows = []
    for row in rows:
        out_row = []
        if len(row) != len(rows):
            raise PreconditionError("operator matrix must be square")
        for entry in row:
            if entry.nvars != m:
                raise PreconditionError("mixed variable counts in operator matrix")
            top = entry.order()
            if top is not None and top > order:
                raise PreconditionError(
                    f"operator of order {top} has no order-{order} symbol")
            top_terms = entry.order_part(order).terms.items()
            out_row.append(LaurentPoly(2 * m, {alpha + beta: c
                                               for (alpha, beta), c in top_terms}))
        out_rows.append(tuple(out_row))
    return SymbolMatrix(m=m, order=order, entries=tuple(out_rows))


def torus_operator_check(op) -> bool:
    """True when every coefficient is constant (translation-invariant shape)."""
    rows = [[op]] if isinstance(op, WeylElement) else [list(r) for r in op]
    return all(not any(alpha)
               for row in rows for entry in row
               for (alpha, _beta) in entry.terms)


# ---- witnesses and verdicts -------------------------------------------


class Witness(NamedTuple):
    """A nonzero cotangent vector annihilating the symbol determinant.

    Components are Fractions, except possibly one symbolic entry "t" whose
    value is a root of defining_poly (integer coefficients, ascending).
    ``real`` records whether the vector can be realized over the reals.
    """

    components: tuple
    defining_poly: tuple[int, ...] | None = None
    real: bool = True

    def is_rational(self) -> bool:
        return self.defining_poly is None

    def as_strings(self) -> list[str]:
        return [str(c) for c in self.components]


class AlgebraicEllipticity(NamedTuple):
    elliptic: bool
    witness: Witness | None
    reason: str


class RealEllipticity(NamedTuple):
    verdict: str  # "true" | "false" | "unknown"
    witness: Witness | None
    sign_points: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None
    reason: str


class EllipticityVerdict(NamedTuple):
    algebraic: bool
    real: str
    witness: Witness | None


def _require_constant(S: SymbolMatrix) -> LaurentPoly:
    if not S.constant_coefficient:
        raise PreconditionError(
            "ellipticity checks need constant-coefficient symbols")
    return S.xi_det()


def _unit(m: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(m))


def _primitive(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale to coprime integers with the first nonzero entry positive."""
    ints = primitive_integers(vec)
    sign = -1 if next((v for v in ints if v), 0) < 0 else 1
    return tuple(Fraction(sign * v) for v in ints)


def _settled(det: LaurentPoly, m: int) -> tuple[bool, Witness | None, str] | None:
    """(elliptic, witness, reason) when det is zero, a nonzero constant or in
    one variable, where the closure and the reals agree; else None."""
    if det.is_zero():
        return False, Witness(components=_unit(m, 0)), "determinant vanishes identically"
    if det.homogeneous_degree() == 0:
        return True, None, "nonzero constant determinant"
    if m == 1:
        return True, None, "single cotangent variable: only root is the origin"
    return None


def elliptic_algebraic(S: SymbolMatrix) -> AlgebraicEllipticity:
    """Can det sigma vanish on a nonzero cotangent vector over the closure?"""
    det = _require_constant(S)
    settled = _settled(det, S.m)
    if settled is not None:
        return AlgebraicEllipticity(*settled)
    return AlgebraicEllipticity(
        elliptic=False, witness=_closure_witness(det, S.m),
        reason="positive-degree form in several variables vanishes on the closure")


def _closure_witness(det: LaurentPoly, m: int) -> Witness | None:
    terms = sorted(det.terms.items())
    if len(terms) == 1:
        (exps, _c), = terms
        support = [i for i, e in enumerate(exps) if e > 0]
        if len(support) == 1:
            pick = (support[0] + 1) % m
        else:
            pick = support[0]
        return Witness(components=_unit(m, pick))
    if len(terms) == 2:
        (e1, c1), (e2, c2) = terms
        j = next(i for i in range(m) if e1[i] != e2[i])
        lo = min(e1[j], e2[j])
        if lo > 0:
            # zeroing xi_j kills both terms
            comps = [Fraction(1)] * m
            comps[j] = Fraction(0)
            return Witness(components=tuple(comps))
        # both terms with the others set to 1: c_hi t^p + c_lo = 0
        hi_first = e1[j] > e2[j]
        c_hi, c_lo = (c1, c2) if hi_first else (c2, c1)
        p = abs(e1[j] - e2[j])
        root = _rational_root(-c_lo / c_hi, p)
        if root is not None:
            comps = [Fraction(1)] * m
            comps[j] = root
            return Witness(components=tuple(comps))
        check_work((p + 1) * _ITEM_WORK, "the witness polynomial of degree {}", p)
        defining = _integer_binomial(c_hi, c_lo, p)
        comps: list = [Fraction(1)] * m
        comps[j] = "t"
        has_real_root = (p % 2 == 1) or (-c_lo / c_hi > 0)
        return Witness(components=tuple(comps), defining_poly=defining,
                       real=has_real_root)
    return None


def _rational_root(value: Fraction, p: int) -> Fraction | None:
    """The rational t with t^p = value, if one exists."""
    if p % 2 == 0 and value < 0:
        return None
    sign = -1 if value < 0 else 1
    num = _integer_root(abs(value.numerator), p)
    den = _integer_root(value.denominator, p)
    if num is None or den is None:
        return None
    return Fraction(sign * num, den)


def _integer_root(v: int, p: int) -> int | None:
    """The integer r >= 0 with r^p = v (v >= 0), if one exists."""
    if v == 0:
        return 0
    if p >= v.bit_length():  # r >= 2 would give r^p >= 2^p > v
        return 1 if v == 1 else None
    # Newton's iteration on integers, from above: stops at floor(v^(1/p))
    r = 1 << -(-v.bit_length() // p)
    while True:
        nxt = ((p - 1) * r + v // r ** (p - 1)) // p
        if nxt >= r:
            break
        r = nxt
    return r if r ** p == v else None


def _integer_binomial(c_hi: Fraction, c_lo: Fraction, p: int) -> tuple[int, ...]:
    """Integer coefficients of c_hi t^p + c_lo, cleared and reduced."""
    a, b = primitive_integers((c_lo, c_hi))
    if b < 0:
        a, b = -a, -b
    return (a,) + (0,) * (p - 1) + (b,)


# ---- real ellipticity --------------------------------------------------


def elliptic_real(S: SymbolMatrix) -> RealEllipticity:
    det = _require_constant(S)
    settled = _settled(det, S.m)
    if settled is not None:
        elliptic, witness, reason = settled
        return RealEllipticity(verdict="true" if elliptic else "false", witness=witness,
                               sign_points=None, reason=reason)
    if det.homogeneous_degree() == 2:
        return _quadratic_form_verdict(det, S.m)
    return _grid_search_verdict(det, S.m)


def _gram_matrix(det: LaurentPoly, m: int) -> list[list[Fraction]]:
    G = [[Fraction(0)] * m for _ in range(m)]
    for exps, c in det.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            i = support[0]
            G[i][i] += c
        else:
            i, j = support
            G[i][j] += c / 2
            G[j][i] += c / 2
    return G


def _congruence_diagonal(G: list[list[Fraction]]):
    """Exact symmetric reduction: returns (diag, T) with q(T_i) = diag[i]
    and the T_i pairwise q-orthogonal, where q(u, v) = u^T G v.  Each pivot
    step forms the row G T_step once and reads q(T_j, T_step) off it."""
    m = len(G)
    T = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]

    def apply(u):
        return [sum(g * b for g, b in zip(row, u)) for row in G]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    diag = []
    for step in range(m):
        row = apply(T[step])
        piv = dot(T[step], row)
        if piv == 0:
            found = next((j for j in range(step + 1, m) if dot(T[j], apply(T[j])) != 0), None)
            if found is None:
                pair = next(((j, k) for j in range(step, m) for k in range(j + 1, m)
                             if dot(T[j], apply(T[k])) != 0), None)
                if pair is None:
                    # q vanishes on the span of T[step:]
                    diag += [Fraction(0)] * (m - step)
                    break
                found, k = pair
                # basis vector found += basis vector k
                T[found] = [a + b for a, b in zip(T[found], T[k])]
            T[step], T[found] = T[found], T[step]
            row = apply(T[step])
            piv = dot(T[step], row)
        diag.append(piv)
        for j in range(step + 1, m):
            c = dot(T[j], row)
            if c:
                f = -c / piv
                T[j] = [a + f * b for a, b in zip(T[j], T[step])]
    return diag, [tuple(row) for row in T]


def _quadratic_form_verdict(det: LaurentPoly, m: int) -> RealEllipticity:
    check_work(m ** 3 * _FORM_WORK, "the quadratic form in m={} variables", m)
    diag, T = _congruence_diagonal(_gram_matrix(det, m))
    for i, d in enumerate(diag):
        if d == 0:
            w = _primitive(T[i])
            return RealEllipticity(
                verdict="false", witness=Witness(components=w), sign_points=None,
                reason="degenerate quadratic form: exact radical vector")
    pos = [i for i, d in enumerate(diag) if d > 0]
    neg = [i for i, d in enumerate(diag) if d < 0]
    if not pos or not neg:
        return RealEllipticity(verdict="true", witness=None, sign_points=None,
                               reason="definite quadratic form (exact signature)")
    for i in pos:
        for j in neg:
            ratio = -diag[i] / diag[j]
            s = _rational_root(ratio, 2)
            if s is not None:
                w = _primitive([a + s * b for a, b in zip(T[i], T[j])])
                return RealEllipticity(
                    verdict="false", witness=Witness(components=w),
                    sign_points=None,
                    reason="indefinite quadratic form with rational isotropic vector")
    plus = _primitive(T[pos[0]])
    minus = _primitive(T[neg[0]])
    return RealEllipticity(
        verdict="false", witness=None, sign_points=(minus, plus),
        reason="indefinite quadratic form (exact signature); no rational zero "
               "along the diagonalizing pairs")


def _grid_search_verdict(det: LaurentPoly, m: int) -> RealEllipticity:
    """Deterministic dyadic search on the max-norm unit sphere.

    The grid points are q / 4 with q in {-4..4}^m and some |q_i| = 4.  det
    is homogeneous, so det(q / 4) = det(q) / 4^deg has the sign and the zeros
    of det(q), which is evaluated in integers once the coefficients are
    cleared to coprime integers.  Witnesses and sign points are the
    Fraction grid points q / 4.
    """
    deg = det.homogeneous_degree()
    if deg is None:
        raise InconsistencyError("the symbol determinant is not homogeneous")
    if det.has_negative_exponent():
        raise PreconditionError("the real grid search needs a polynomial determinant")
    terms = list(zip(det.terms, primitive_integers(det.terms.values())))
    check_work(_grid_work(m, deg, len(terms), max(c.bit_length() for _, c in terms)),
               "the real grid search (m={}, degree={}, terms={})", m, deg, len(terms))
    ticks = range(-_GRID_TICKS, _GRID_TICKS + 1)
    # only the exponents that occur: a table up to deg is quadratic in it
    exponents = {k for exps in det.terms for k in exps}
    powers = {t: {k: t ** k for k in exponents} for t in ticks}

    def scaled_det(q: tuple[int, ...]) -> int:
        total = 0
        for exps, c in terms:
            for t, k in zip(q, exps):
                c *= powers[t][k]
            total += c
        return total

    def point(q: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(Fraction(t, _GRID_TICKS) for t in q)

    values: dict[tuple[int, ...], int] = {}
    for axis in range(m):
        for face in (_GRID_TICKS, -_GRID_TICKS):
            for q in product(*(ticks if i != axis else (face,) for i in range(m))):
                if q in values:  # an edge point, met on an earlier face
                    continue
                value = scaled_det(q)
                if value == 0:
                    return RealEllipticity(
                        verdict="false", witness=Witness(components=point(q)),
                        sign_points=None, reason="grid zero of the determinant")
                values[q] = value
    # look for sign changes between grid neighbours on shared faces
    for q, value in values.items():
        for axis in range(m):
            if abs(q[axis]) == _GRID_TICKS:
                continue
            neighbour = q[:axis] + (q[axis] + 1,) + q[axis + 1:]
            other = values.get(neighbour)
            if other is not None and (value < 0) != (other < 0):
                lo, hi = (q, neighbour) if value < 0 else (neighbour, q)
                refined = _bisect_zero(det, (point(lo), point(hi)))
                if isinstance(refined, Witness):
                    return RealEllipticity(verdict="false", witness=refined,
                                           sign_points=None,
                                           reason="dyadic refinement hit an exact zero")
                return RealEllipticity(verdict="false", witness=None,
                                       sign_points=refined,
                                       reason="sign change across adjacent grid points")
    return RealEllipticity(
        verdict="unknown", witness=None, sign_points=None,
        reason=f"no sign variation at dyadic resolution {Fraction(1, _GRID_TICKS)} "
               "on the unit sphere")


def _grid_work(m: int, deg: int, terms: int, coeff_bits: int) -> int:
    """Work estimate of the grid search: its largest tick power, 4^deg, has
    2 deg bits, and each of its points takes m neighbour reads and m
    products per term, each making at most b = coeff_bits + 2 deg bits at
    about b^1.5 units (Karatsuba)."""
    bits = coeff_bits + 2 * deg
    points = (2 * _GRID_TICKS + 1) ** m - (2 * _GRID_TICKS - 1) ** m
    return _step(2 * deg) + points * (terms + 1) * m * (_GRID_WORK + bits * isqrt(bits))


def _bisect_zero(det: LaurentPoly, pair):
    neg_pt, pos_pt = pair
    for _ in range(_BISECT_STEPS):
        mid = tuple((a + b) / 2 for a, b in zip(neg_pt, pos_pt))
        value = det.evaluate(mid)
        if value == 0:
            return Witness(components=mid)
        if value < 0:
            neg_pt = mid
        else:
            pos_pt = mid
    return (neg_pt, pos_pt)


def classify(S: SymbolMatrix) -> EllipticityVerdict:
    """Combined verdict; prefers a real witness when both routes found one."""
    alg = elliptic_algebraic(S)
    real = elliptic_real(S)
    witness = real.witness if real.witness is not None else alg.witness
    return EllipticityVerdict(algebraic=alg.elliptic, real=real.verdict,
                              witness=witness)
