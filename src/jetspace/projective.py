"""Global differential operators between line bundle twists on projective space.

Sections of O(a) over the chart x_j != 0 are spanned by degree-a Laurent
monomials whose only negative exponent sits in slot j.  A homogeneous Weyl
element of x-degree b - a maps each such monomial to degree-b monomials that
are again chart sections, so it induces maps O(a) -> O(b) on every chart
simultaneously; the space of global operators of order <= N is realized as
the span of these induced maps.  Concretely: rows of the action matrix are
the candidate monomials x^alpha d^beta with |beta| <= N and
|alpha| - |beta| = b - a, and columns are (test monomial, image monomial)
coefficient slots over a finite test set of chart monomials.

The structural rank deficiency comes from the Euler operator E = sum x_i d_i:
E - a annihilates every degree-a monomial, so phi (E - a) acts as zero for
every graded phi.  The dimension is therefore at most the candidate count
minus these relations, and at least the rank on any finite test set; the
box grows until the two meet, which certifies the dimension.

Also here: induced maps on degree-0 and top Cech cohomology of the twists,
the minimal order at which operators into a negative twist appear, and the
unipotent block construction pairing a twist with a shifted twist.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .errors import InconsistencyError, PreconditionError
from .laurent import Exponent, LaurentPoly, monomials_of_degree
from .linalg import ExactMatrix, add_pivot_row
from .weyl import WeylElement, euler_operator, falling

Candidate = tuple[Exponent, Exponent]

BOX_GROWTH_STEP = 2
BOX_GROWTH_LIMIT = 40


def _check_space(n: int, order: int) -> None:
    if n < 1:
        raise PreconditionError("projective dimension must be >= 1")
    if order < 0:
        raise PreconditionError("operator order must be >= 0")


def candidate_monomials(n: int, a: int, b: int, order: int) -> list[Candidate]:
    """All (alpha, beta) with |beta| <= N and |alpha| = |beta| + b - a,
    sorted by derivative order, then lexicographically on (beta, alpha)."""
    _check_space(n, order)
    nvars = n + 1
    out: list[Candidate] = []
    for k in range(max(0, a - b), order + 1):
        betas = monomials_of_degree(nvars, k)
        alphas = monomials_of_degree(nvars, k + b - a)
        for beta in betas:
            for alpha in alphas:
                out.append((alpha, beta))
    return out


def candidate_count(n: int, a: int, b: int, order: int) -> int:
    """Closed form for len(candidate_monomials(n, a, b, N))."""
    total = 0
    for k in range(max(0, a - b), order + 1):
        total += comb(k + n, n) * comb(k + b - a + n, n)
    return total


def chart_test_monomials(n: int, a: int, box: int) -> list[Exponent]:
    """Degree-a Laurent monomials with at most one negative exponent and all
    exponents in [-box, box], sorted."""
    return list(iter_chart_test_monomials(n, a, box))


def iter_chart_test_monomials(n: int, a: int, box: int) -> Iterator[Exponent]:
    """The monomials of chart_test_monomials(n, a, box), in the same sorted
    order, generated lazily: entries are chosen left to right in increasing
    order, and a value is tried only if the entries after it can still
    complete the degree within the box."""
    if box < 0:
        raise PreconditionError("box must be nonnegative")

    def rec(prefix: Exponent, left: int, k: int, signed: bool) -> Iterator[Exponent]:
        # k entries follow this one; signed: a negative entry was chosen
        if k == 0:
            if -box <= left <= box and (left >= 0 or not signed):
                yield prefix + (left,)
            return
        top = k * box  # the most the later entries can add up to
        if not signed:
            for v in range(max(-box, left - top), min(-1, left) + 1):
                yield from rec(prefix + (v,), left - v, k - 1, True)
        low = 0 if signed else -box  # the least they can add up to
        for v in range(max(0, left - top), min(box, left - low) + 1):
            yield from rec(prefix + (v,), left - v, k - 1, signed)

    return rec((), a, n, False)


def action_matrix(candidates: list[Candidate], testset: list[Exponent]) -> ExactMatrix:
    """Rows: candidates; columns: (test monomial, image monomial) slots."""
    ff_cache: dict[tuple[int, int], int] = {}
    col_index: dict[tuple[Exponent, Exponent], int] = {}
    entries: dict[tuple[int, int], Fraction] = {}
    for row, (alpha, beta) in enumerate(candidates):
        for gamma in testset:
            coeff = 1
            for g, bexp in zip(gamma, beta):
                if bexp:
                    key = (g, bexp)
                    ff = ff_cache.get(key)
                    if ff is None:
                        ff = falling(g, bexp)
                        ff_cache[key] = ff
                    coeff *= ff
                    if coeff == 0:
                        break
            if coeff == 0:
                continue
            image = tuple(g + x - d for g, x, d in zip(gamma, alpha, beta))
            slot = (gamma, image)
            j = col_index.get(slot)
            if j is None:
                j = len(col_index)
                col_index[slot] = j
            entries[(row, j)] = Fraction(coeff)
    return ExactMatrix(len(candidates), len(col_index), entries)


def shift_orbits(n: int, a: int, b: int, order: int) -> dict[Exponent, int]:
    """Shift orbits of the candidates: sorted negative part m -> shift count.

    A candidate x^alpha d^beta has shift s = alpha - beta, and beta ranges
    over beta >= m(s) := max(0, -s), |beta| <= N.  For each negative part
    m(s) with |m(s)| <= N, the shifts sharing it spread the positive part
    b - a + |m(s)| over the zero slots of m(s).  Counts are summed over the
    orderings of m(s), keyed by sorted(m(s)).
    """
    orbits: dict[Exponent, int] = {}
    for size in range(order + 1):
        rest = b - a + size
        if rest < 0:
            continue
        for m in monomials_of_degree(n + 1, size):
            zeros = m.count(0)
            spreads = comb(rest + zeros - 1, zeros - 1) if zeros else int(rest == 0)
            if spreads:
                key = tuple(sorted(m))
                orbits[key] = orbits.get(key, 0) + spreads
    return orbits


class _ShiftBlock:
    """Incremental rank of one shift block of the action matrix.

    Rows are test monomials gamma, columns the beta >= m with |beta| <= N,
    entries the integers prod_j ff(gamma_j, beta_j) (the coefficient of
    x^(gamma + s) in x^(beta + s) d^beta x^gamma, for any s with negative
    part m).  feed() adds one row; pivot rows persist across calls, so a
    larger test box only has to feed the monomials it adds.

    The rank never exceeds cap = C(N - |m| + n, n): each phi (E - a) with
    phi of shift s and order <= N - 1 is a relation among the columns, and
    these relations are independent (right multiplication by E - a is
    injective), so there are |B_(N-1)(m)| of them.  Once the rank reaches
    cap, no test monomial can raise it and feeding stops.
    """

    __slots__ = ("betas", "cap", "order", "pivots")

    def __init__(self, m: Exponent, order: int):
        n = len(m) - 1
        self.betas = [tuple(x + y for x, y in zip(m, delta))
                      for k in range(order - sum(m) + 1)
                      for delta in monomials_of_degree(n + 1, k)]
        self.cap = comb(order - sum(m) + n, n)
        self.order = order
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def feed(self, gamma: Exponent) -> None:
        """Add the row of one test monomial."""
        add_pivot_row(self.pivots, self._row(gamma))

    def _row(self, gamma: Exponent) -> dict[int, int]:
        tables = []
        for g in gamma:
            ff = [1]
            for t in range(self.order):
                ff.append(ff[-1] * (g - t))
            tables.append(ff)
        row = {}
        for i, beta in enumerate(self.betas):
            c = 1
            for ff, e in zip(tables, beta):
                c *= ff[e]
                if not c:
                    break
            if c:
                row[i] = c
        return row


class TwistedDOSpace(NamedTuple):
    """The space of order <= N global operators O(a) -> O(b) on P^n."""

    n: int
    a: int
    b: int
    order: int
    dim: int
    box: int
    rank_history: tuple[tuple[int, int], ...]


def global_do_dimension(n: int, a: int, b: int, order: int,
                        initial_box: int | None = None) -> TwistedDOSpace:
    """Dimension of the global operator space, with the certifying test box.

    The action matrix is block-diagonal by shift, and a block's rank depends
    only on the sorted negative part of its shift (the test set is symmetric
    under permuting coordinates), so the rank is a weighted sum of one
    integer block rank per shift orbit.  The same sum over the Euler-relation
    caps bounds the dimension from above, and the rank on a finite test set
    bounds it from below.  Starting from box = N + |a| + |b| + 2, the box
    grows by 2 until the rank reaches the bound; that box is reported.  Each
    test monomial goes to the blocks still below their cap, and the box is
    left as soon as none is, so most of the test set is never generated.
    """
    _check_space(n, order)
    blocks = [(_ShiftBlock(m, order), count)
              for m, count in shift_orbits(n, a, b, order).items()]
    bound = sum(count * block.cap for block, count in blocks)
    box0 = initial_box if initial_box is not None else order + abs(a) + abs(b) + 2
    # b - a < -N: no candidate, so the start box certifies dim 0 without a
    # test set (a negative box is still rejected by the test stream)
    if bound == 0 and box0 >= 0:
        return TwistedDOSpace(n, a, b, order, 0, box0, ((box0, 0),))
    history: list[tuple[int, int]] = []
    live = [block for block, _ in blocks]
    fed_box = -1  # every monomial of this box has been fed
    for box in range(box0, box0 + BOX_GROWTH_LIMIT + 1, BOX_GROWTH_STEP):
        for gamma in iter_chart_test_monomials(n, a, box):
            if fed_box >= 0 and max(map(abs, gamma)) <= fed_box:
                continue
            for block in live:
                block.feed(gamma)
            live = [block for block in live if block.rank < block.cap]
            if not live:
                break
        fed_box = box
        rank = sum(count * block.rank for block, count in blocks)
        history.append((box, rank))
        if rank == bound:
            return TwistedDOSpace(n=n, a=a, b=b, order=order, dim=rank, box=box,
                                  rank_history=tuple(history))
    raise InconsistencyError(
        f"action-matrix rank {rank} stayed below the Euler-relation bound "
        f"{bound} for (n={n}, a={a}, b={b}, N={order}) within box {box}")


@lru_cache(maxsize=None)
def do_dimension(n: int, a: int, b: int, order: int) -> int:
    """Cached dimension-only variant of global_do_dimension."""
    return global_do_dimension(n, a, b, order).dim


def euler_relation(n: int, a: int, phi: WeylElement) -> WeylElement:
    """phi composed with (E - a); annihilates every degree-a section."""
    shifted = euler_operator(n + 1) - WeylElement.one(n + 1) * a
    return phi * shifted


def strictness_check(n: int, a: int, b: int, order: int) -> bool:
    """True iff raising the order bound from N-1 to N enlarges the space."""
    if order < 1:
        raise PreconditionError("strictness compares N with N - 1, so N >= 1")
    return do_dimension(n, a, b, order) > do_dimension(n, a, b, order - 1)


class NegativeTwistResult(NamedTuple):
    """Outcome of searching for operators O -> O(-d) by increasing order."""

    n: int
    d: int
    order: int | None
    dim: int
    searched_up_to: int

    @property
    def found(self) -> bool:
        return self.order is not None


def negative_twist_existence(n: int, d: int, n_max: int = 4) -> NegativeTwistResult:
    """Least order N <= n_max with dim DO^N(O, O(-d)) > 0 on P^n.

    Exhausting the budget is reported as order None, which is a statement
    about the searched range only, never about nonexistence.
    """
    if n < 1:
        raise PreconditionError("projective dimension must be >= 1")
    if d < 1:
        raise PreconditionError("the twist drop d must be >= 1")
    if n_max < 0:
        raise PreconditionError("search budget must be nonnegative")
    for order in range(n_max + 1):
        dim = do_dimension(n, 0, -d, order)
        if dim > 0:
            return NegativeTwistResult(n=n, d=d, order=order, dim=dim, searched_up_to=n_max)
    return NegativeTwistResult(n=n, d=d, order=None, dim=0, searched_up_to=n_max)


# ---- induced maps on cohomology ---------------------------------------


def h0_basis(n: int, k: int) -> list[Exponent]:
    """Monomial basis of the degree-0 cohomology of O(k)."""
    return monomials_of_degree(n + 1, k)


def hn_basis(n: int, k: int) -> list[Exponent]:
    """All-negative-exponent monomials of degree k (top Cech cohomology)."""
    inner = monomials_of_degree(n + 1, -k - (n + 1))
    return sorted(tuple(-1 - v for v in e) for e in inner)


def induced_cohomology_map(n: int, a: int, b: int, op: WeylElement,
                           i: int) -> ExactMatrix:
    """Matrix of the map induced by op on H^i of the twists, i in {0, n}.

    For i = n the image is projected back onto the all-negative monomial
    basis; monomials with a nonnegative exponent are coboundaries and are
    discarded.
    """
    if n < 1:
        raise PreconditionError("projective dimension must be >= 1")
    if op.nvars != n + 1:
        raise PreconditionError("operator has the wrong number of variables")
    if not op.is_graded_of_degree(b - a):
        raise PreconditionError(f"operator is not homogeneous of x-degree {b - a}")
    if i == 0:
        source, target = h0_basis(n, a), h0_basis(n, b)
        project = False
    elif i == n:
        source, target = hn_basis(n, a), hn_basis(n, b)
        project = True
    else:
        raise PreconditionError("induced maps are available for i = 0 and i = n")
    tgt_index = {e: r for r, e in enumerate(target)}
    entries: dict[tuple[int, int], Fraction] = {}
    for j, gamma in enumerate(source):
        for image, c in op.apply_monomial(gamma).items():
            row = tgt_index.get(image)
            if row is None:
                if project and max(image) >= 0:
                    continue
                raise InconsistencyError(
                    f"image monomial {image} escaped the H^{i} basis")
            entries[(row, j)] = c
    return ExactMatrix(len(target), len(source), entries)


# ---- unipotent block operators ----------------------------------------


class BlockOperatorReport(NamedTuple):
    preserves_second_summand: bool
    identity_on_sub: bool
    identity_on_quotient: bool
    order: int
    order_witness: Exponent | None

    @property
    def ok(self) -> bool:
        return (self.preserves_second_summand and self.identity_on_sub
                and self.identity_on_quotient
                and (self.order == 0 or self.order_witness is not None))


class BlockOperator:
    """(s, t) |-> (s, D12 s + t) on pairs of sections of O(m) and O(d).

    Fixes the second summand pointwise and induces the identity on sub and
    quotient; everything nontrivial sits in the off-diagonal corner, so the
    operator order equals the order of D12 (0 when D12 = 0).
    """

    def __init__(self, n: int, m: int, d: int, d12: WeylElement):
        if n < 1:
            raise PreconditionError("projective dimension must be >= 1")
        if d12.nvars != n + 1:
            raise PreconditionError("D12 has the wrong number of variables")
        if not d12.is_graded_of_degree(d - m):
            raise PreconditionError(f"D12 must be homogeneous of x-degree {d - m}")
        self.n, self.m, self.d, self.d12 = n, m, d, d12

    def apply_pair(self, s: LaurentPoly, t: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
        return s, self.d12.apply(s) + t

    def order(self) -> int:
        o = self.d12.order()
        return 0 if o is None else max(o, 0)

    def as_matrix(self) -> list[list[WeylElement]]:
        nvars = self.n + 1
        return [[WeylElement.one(nvars), WeylElement.zero(nvars)],
                [self.d12, WeylElement.one(nvars)]]

    def verify(self, box: int | None = None) -> BlockOperatorReport:
        """Exact evaluation on chart monomial test sections."""
        if box is None:
            box = self.order() + abs(self.m) + abs(self.d) + 3
        zero_s = LaurentPoly.zero(self.n + 1)
        sub_ok = True
        quot_ok = True
        preserves = True
        for gamma in chart_test_monomials(self.n, self.d, box):
            t = LaurentPoly.monomial(gamma)
            s_out, t_out = self.apply_pair(zero_s, t)
            if not s_out.is_zero():
                preserves = False
            if t_out != t:
                sub_ok = False
        top = self.d12.order_part(self.order()) if not self.d12.is_zero() else None
        witness = None
        for gamma in chart_test_monomials(self.n, self.m, box):
            s = LaurentPoly.monomial(gamma)
            s_out, _ = self.apply_pair(s, LaurentPoly.zero(self.n + 1))
            if s_out != s:
                quot_ok = False
            if witness is None and top is not None and top.apply_monomial(gamma):
                witness = gamma
        return BlockOperatorReport(
            preserves_second_summand=preserves,
            identity_on_sub=sub_ok,
            identity_on_quotient=quot_ok,
            order=self.order(),
            order_witness=witness)


def block_operator(n: int, m: int, d: int, d12: WeylElement) -> BlockOperator:
    return BlockOperator(n=n, m=m, d=d, d12=d12)
