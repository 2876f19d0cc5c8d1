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
minus these relations, and at least the rank on any finite test set; on
a lattice of test rows per shift block, all inside one box, each block is
a product of two nonsingular triangular matrices, so the two meet.
Counted, the bound is C(N + n, n) C(N + b - a + n, n), the number of
candidates of exact order N (do_dimensions has the proof), and no matrix
is built.

Also here: induced maps on degree-0 and top Cech cohomology of the twists,
the minimal order at which operators into a negative twist appear, and the
unipotent block construction pairing a twist with a shifted twist.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from . import cohomology, weyl
from .errors import InconsistencyError, PreconditionError
from .laurent import Exponent, LaurentPoly, monomials_of_degree
from .linalg import ExactMatrix

Candidate = tuple[Exponent, Exponent]

# a request whose work estimate (see _step) passes this is refused up front:
# about 1-3 s on a 2-core Xeon with Python 3.11 (CHANGES.md has the timings)
WORK_LIMIT = 2 ** 37

# induced_cohomology_map refuses a dense matrix with more cells than this
INDUCED_MAP_CELL_LIMIT = 10 ** 6

# BlockOperator.verify refuses an O(m) test set of more monomials than this
BLOCK_OP_TEST_LIMIT = 2 * 10 ** 5


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
    """Closed form for len(candidate_monomials(n, a, b, N)): the candidates
    of exact order K, summed over K <= N."""
    return sum(_dimension(n, b - a, k) for k in range(max(0, a - b), order + 1))


def chart_test_monomials(n: int, a: int, box: int) -> list[Exponent]:
    """Degree-a Laurent monomials with at most one negative exponent and all
    exponents in [-box, box], sorted: the nonnegative ones, and those with
    one slot at -v for v = 1..box."""
    if box < 0:
        raise PreconditionError("box must be nonnegative")
    out = _bounded_monomials(n + 1, a, box)
    for v in range(1, box + 1):
        for rest in _bounded_monomials(n, a + v, box):
            out += [(*rest[:j], -v, *rest[j:]) for j in range(n + 1)]
    return sorted(out)


def _bounded_monomials(k: int, total: int, cap: int) -> list[Exponent]:
    """The k-tuples (k >= 1) of integers in [0, cap] summing to total, which
    _bounded_count counts: each first entry leaves a total the other k - 1
    can reach, so the work is proportional to the output."""
    if k == 1:
        return [(total,)] if 0 <= total <= cap else []
    return [(first, *rest) for first in range(max(0, total - (k - 1) * cap), min(cap, total) + 1)
            for rest in _bounded_monomials(k - 1, total - first, cap)]


def chart_test_count(n: int, a: int, box: int) -> int:
    """Closed form for len(chart_test_monomials(n, a, box)): O(n)
    binomials, whatever the box.

    The monomials with a slot at -v number (n + 1)·_bounded_count(n, a + v,
    box).  Summed over v = 1..box, inclusion-exclusion term i counts the
    n-tuples of total u = a + v - i·(box + 1) over u in [lower, upper],
    which is C(upper + n, n) - C(lower - 1 + n, n) by the hockey-stick
    identity."""
    if box < 0:
        raise PreconditionError("box must be nonnegative")
    shifted = 0
    for i in range(n + 1):
        upper = a + box - i * (box + 1)
        lower = max(0, a + 1 - i * (box + 1))
        if upper >= lower:
            shifted += (-1) ** i * comb(n, i) * (comb(upper + n, n) - comb(lower - 1 + n, n))
    return _bounded_count(n + 1, a, box) + (n + 1) * shifted


def _bounded_count(k: int, total: int, cap: int) -> int:
    """Number of k-tuples (k >= 1) of integers in [0, cap] summing to total,
    by inclusion-exclusion over the entries that pass cap."""
    return sum((-1) ** i * comb(k, i) * comb(total - i * (cap + 1) + k - 1, k - 1)
               for i in range(k + 1) if total >= i * (cap + 1))


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
                        ff = weyl.falling(g, bexp)
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


def _binomial_bits(m: int, j: int) -> int:
    """A bound on the bit length of C(m, j) that computes no binomial:
    C(m, j) < 2^m and C(m, j) <= (e m / j)^j < (3 m / j)^j for 0 < j < m,
    and C(m, j) <= 1 for every other j >= 0 (0 when j > m)."""
    j = m - j if 2 * j > m else j
    return min(m, j * (3 * m // j).bit_length()) if j > 0 else 1


def _dimension_bits(n: int, d: int, order: int) -> tuple[int, int]:
    """Bit bounds on the factors C(N + n, n) and C(N + d + n, n) of
    _dimension, which bound those of every lower order."""
    return _binomial_bits(order + n, n), _binomial_bits(order + d + n, n)


def _step(bits: int) -> int:
    """Work units of one step that makes an integer of the given bit size:
    math.comb takes about bits^2 units, and a step about 64^2 besides."""
    return (bits + 64) ** 2


def _dim_do_work(n: int, d: int, order: int) -> int:
    """Work estimate of a dim-do request: its dimension and the nonzero
    terms of candidate_count, two binomials each."""
    b1, b2 = _dimension_bits(n, d, order)
    return (max(0, order + 1 - max(0, -d)) + 1) * (_step(b1) + _step(b2))


def _check_work(n: int, a: int, b: int, order: int, work: int) -> None:
    _check_space(n, order)
    if work > WORK_LIMIT:
        raise PreconditionError(
            f"(n={n}, a={a}, b={b}, N={order}) has a work estimate of 2^{work.bit_length() - 1}"
            f" or more, above the limit 2^{WORK_LIMIT.bit_length() - 1}")


def _dimension(n: int, d: int, order: int) -> int:
    """dim DO^N(O(a), O(a + d)), proved in do_dimensions' docstring."""
    return comb(order + n, n) * comb(order + d + n, n) if order + d >= 0 else 0


class TwistedDOSpace(NamedTuple):
    """The space of order <= N global operators O(a) -> O(b) on P^n.

    box is N + |a| + |b| + 2, which holds the test rows on which every
    shift block is nonsingular (see do_dimensions).  rank_history is always
    ((box, dim),); it stays because it is public and the benchmark tracer
    (perfbench/tracing.py) reads it."""

    n: int
    a: int
    b: int
    order: int
    dim: int
    box: int
    rank_history: tuple[tuple[int, int], ...]


def global_do_dimension(n: int, a: int, b: int, order: int) -> TwistedDOSpace:
    """Dimension of the global operator space, C(N + n, n) C(N + b - a + n, n)
    and 0 when N < a - b (see do_dimensions), with the box N + |a| + |b| + 2
    of its test rows.  dim-do also sums the nonzero terms of candidate_count,
    so input whose work estimate for those and this dimension passes
    WORK_LIMIT is refused with PreconditionError before any binomial.
    """
    _check_work(n, a, b, order, _dim_do_work(n, b - a, order))
    dim = _dimension(n, b - a, order)
    box = order + abs(a) + abs(b) + 2
    return TwistedDOSpace(n, a, b, order, dim, box, ((box, dim),))


def do_dimensions(n: int, a: int, b: int, top: int) -> tuple[int, ...]:
    """dim DO^K(O(a), O(b)) for K = 0..top: with d = b - a, that is
    C(K + n, n) C(K + d + n, n), and 0 when K + d < 0.

    Fix the order N.  A candidate x^alpha d^beta has shift s = alpha - beta
    and beta >= m(s) := max(0, -s), and it maps each chart monomial gamma
    to prod_j ff(gamma_j, beta_j) x^(gamma + s).  So the action matrix is
    block diagonal by shift: the block of s has rows the test monomials
    gamma and columns the beta >= m with |beta| <= N, m = m(s).  Permuting
    the slots permutes the blocks, so let m be non-decreasing.

    1. Upper bound.  The relations phi (E - a) act as zero and are
       independent, so the rank of the block of s is at most
       cap(s) = C(N - |m| + n, n), what they leave of its columns, and the
       dimension is at most sum_s cap(s).

    2. Lower bound.  The dimension is at least the rank on any finite test
       set.  Take the cap columns beta = m + (0, delta), |delta| <= K =
       N - |m|, and the cap lattice rows gamma_i = m_i + t + q_i (i >= 1,
       q >= 0, |q| <= K), gamma_0 = h - |q| with h = a - sum_{i >= 1}
       (m_i + t), where t = 0 if m_0 = 0 and t = max(0, floor((b + m_0) / n)
       + 1) otherwise.  As ff(g, e + r) = ff(g, e) ff(g - e, r), the block
       there is the row scalars prod_j ff(gamma_j, m_j) times
       R[q, delta] = prod_{j >= 1} ff(t + q_j, delta_j).  By the Vandermonde
       identity ff(x + y, k) = sum_r C(k, r) ff(x, r) ff(y, k - r),
       R = A B with A[q, r] = prod_j ff(q_j, r_j), zero unless r <= q,
       diagonal prod_j q_j!, and B[r, delta] = prod_j C(delta_j, r_j)
       ff(t, delta_j - r_j), zero unless r <= delta, diagonal 1.  The
       simplex |q| <= K is down-closed, so both are triangular and
       det R = prod_q prod_j q_j! != 0 for every integer t (unisolvence on
       the principal lattice, Chung and Yao 1977).  So the block reaches
       its cap if the rows are chart monomials in the box N + |a| + |b| + 2
       with nonzero scalars.  They are, for every input: for i >= 1,
       gamma_i >= m_i >= 0, so ff(gamma_i, m_i) != 0, and
       - if m_0 = 0: t = 0 and h = a - |m|, the rows stay within |a| + N
         of 0, and the gamma_0 factor of the scalar is ff(gamma_0, 0) = 1;
       - if m_0 > 0: every slot of s is negative, so |m| = a - b >= n + 1,
         and h = b + m_0 - n t lies in [-n, -1], or h = b + m_0 < 0 when
         t = 0.  So gamma_0 < 0 on every row, ff(gamma_0, m_0) != 0, and
         every row lies in the box.

    3. The count.  cap(s) is the number of beta >= m(s) with |beta| = N,
       and beta >= m(s) iff alpha = s + beta >= 0.  So sum_s cap(s) counts
       the candidates x^alpha d^beta of exact order N: C(N + n, n) choices
       of beta times C(N + d + n, n) of alpha, none when N + d < 0.

    It checks no work estimate: growth.verify_growth, which sweeps, checks
    the work of its whole request once.
    """
    _check_space(n, top)
    return tuple(_dimension(n, b - a, order) for order in range(top + 1))


# The closed form needs no cache; perfbench/tracing.py reads cache_info().
@lru_cache(maxsize=None)
def do_dimension(n: int, a: int, b: int, order: int) -> int:
    """dim DO^N(O(a), O(b)) (see do_dimensions); input whose work estimate
    passes WORK_LIMIT is refused before any binomial."""
    b1, b2 = _dimension_bits(n, b - a, order)
    _check_work(n, a, b, order, _step(b1) + _step(b2))
    return _dimension(n, b - a, order)


def euler_relation(n: int, a: int, phi: weyl.WeylElement) -> weyl.WeylElement:
    """phi composed with (E - a); annihilates every degree-a section."""
    shifted = weyl.euler_operator(n + 1) - weyl.WeylElement.one(n + 1) * a
    return phi * shifted


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

    By do_dimensions that order is exactly N = d, with dim C(d + n, n):
    every lower order has dimension 0.  A budget n_max < d is reported as
    order None, which is a statement about the budget only, never about
    nonexistence.  Only order d is computed, so only its work estimate can
    refuse the input.
    """
    if n < 1:
        raise PreconditionError("projective dimension must be >= 1")
    if d < 1:
        raise PreconditionError("the twist drop d must be >= 1")
    if n_max < 0:
        raise PreconditionError("search budget must be nonnegative")
    if d > n_max:
        return NegativeTwistResult(n=n, d=d, order=None, dim=0, searched_up_to=n_max)
    return NegativeTwistResult(n=n, d=d, order=d, dim=do_dimension(n, 0, -d, d),
                               searched_up_to=n_max)


# ---- induced maps on cohomology ---------------------------------------


def h0_basis(n: int, k: int) -> list[Exponent]:
    """Monomial basis of the degree-0 cohomology of O(k)."""
    return monomials_of_degree(n + 1, k)


def hn_basis(n: int, k: int) -> list[Exponent]:
    """All-negative-exponent monomials of degree k (top Cech cohomology)."""
    inner = monomials_of_degree(n + 1, -k - (n + 1))
    return sorted(tuple(-1 - v for v in e) for e in inner)


def induced_cohomology_map(n: int, a: int, b: int, op: weyl.WeylElement,
                           i: int) -> ExactMatrix:
    """Matrix of the map induced by op on H^i of the twists, i in {0, n}.

    For i = n the image is projected back onto the all-negative monomial
    basis; monomials with a nonnegative exponent are coboundaries and are
    discarded.  A matrix of more than INDUCED_MAP_CELL_LIMIT cells, h^i(O(a))
    h^i(O(b)), is refused with PreconditionError before any work.
    """
    if n < 1:
        raise PreconditionError("projective dimension must be >= 1")
    if op.nvars != n + 1:
        raise PreconditionError("operator has the wrong number of variables")
    if not op.is_graded_of_degree(b - a):
        raise PreconditionError(f"operator is not homogeneous of x-degree {b - a}")
    if i not in (0, n):
        raise PreconditionError("induced maps are available for i = 0 and i = n")
    line, basis = ((cohomology.h0_line, h0_basis) if i == 0
                   else (cohomology.hn_line, hn_basis))
    cells = line(n, a) * line(n, b)
    if cells > INDUCED_MAP_CELL_LIMIT:
        raise PreconditionError(
            f"the H^{i} map O({a}) -> O({b}) on P^{n} has {cells} matrix cells, "
            f"above the limit {INDUCED_MAP_CELL_LIMIT}")
    source, target = basis(n, a), basis(n, b)
    tgt_index = {e: r for r, e in enumerate(target)}
    entries: dict[tuple[int, int], Fraction] = {}
    for j, gamma in enumerate(source):
        for image, c in op.apply_monomial(gamma).items():
            row = tgt_index.get(image)
            if row is None:
                if i == n and max(image) >= 0:
                    continue
                raise InconsistencyError(
                    f"image monomial {image} escaped the H^{i} basis")
            entries[(row, j)] = c
    return ExactMatrix(len(target), len(source), entries)


# ---- unipotent block operators ----------------------------------------


class BlockOperatorReport(NamedTuple):
    """What BlockOperator.verify finds.  The three identity fields are True
    for every D12, by apply_pair's definition (see verify); they stay
    because the block-op report prints them."""

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

    def __init__(self, n: int, m: int, d: int, d12: weyl.WeylElement):
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

    def verify(self) -> BlockOperatorReport:
        """The order and its witness: the first chart monomial of O(m), in
        sorted order in the box order + |m| + |d| + 3, on which the top-order
        part of D12 acts nonzero (None if there is none, or D12 = 0).

        The three identities hold for every D12 by apply_pair's definition:
        apply_pair(0, t) = (0, D12 0 + t) = (0, t), so the operator fixes
        the second summand and is the identity on the sub O(d), and
        apply_pair(s, 0) has first entry s, the identity on the quotient
        O(m).  So only the witness is searched, and it stops at the first
        hit.  More than BLOCK_OP_TEST_LIMIT chart monomials of O(m) are
        refused with PreconditionError before any work.
        """
        order = self.order()
        box = order + abs(self.m) + abs(self.d) + 3
        tests = chart_test_count(self.n, self.m, box)
        if tests > BLOCK_OP_TEST_LIMIT:
            raise PreconditionError(
                f"the block operator O({self.m}) + O({self.d}) on P^{self.n} has "
                f"{tests} chart test monomials of O({self.m}) in box {box}, above "
                f"the limit {BLOCK_OP_TEST_LIMIT}")
        witness = None
        if not self.d12.is_zero():
            top = self.d12.order_part(order)
            witness = next((gamma for gamma in chart_test_monomials(self.n, self.m, box)
                            if top.apply_monomial(gamma)), None)
        return BlockOperatorReport(True, True, True, order, witness)


def block_operator(n: int, m: int, d: int, d12: weyl.WeylElement) -> BlockOperator:
    return BlockOperator(n=n, m=m, d=d, d12=d12)
