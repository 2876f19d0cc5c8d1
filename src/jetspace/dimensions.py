"""Dimensions of the spaces DO^N(O(a), O(b)) of global operators on P^n.

With d = b - a the dimension is C(N + n, n) C(N + d + n, n), and 0 when
N + d < 0: the action matrix of projective splits into shift blocks, each
nonsingular on a lattice of test rows up to its Euler-relation cap, and the
caps sum to the candidates of exact order N (do_dimensions has the proof).
So counting needs two binomials per order and no matrix; this module holds
that counting, the work estimates that refuse oversized input, and the
search for operators into a negative twist.  It imports no other jetspace
module but errors, so dim-do and growth-table load no matrix code.

The count is that of the Weyl image: the operators induced by Weyl elements
on the homogeneous coordinates.  For n >= 2 that is the whole space.  On P^1
it misses operators that no Weyl element induces, such as the exterior
derivative d: O -> O(-2), so `dim-do --n 1 --a 0 --b -2 --N 1` prints 0.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .errors import PreconditionError, _binomial_bits, _step, check_dimension, check_work


def _check_space(n: int, order: int) -> None:
    check_dimension(n)
    if order < 0:
        raise PreconditionError("operator order must be >= 0")


def candidate_count(n: int, a: int, b: int, order: int) -> int:
    """Closed form for len(projective.candidate_monomials(n, a, b, N)): the
    candidates of exact order K, summed over K <= N."""
    return sum(_dimension(n, b - a, k) for k in range(max(0, a - b), order + 1))


def _dimension_bits(n: int, d: int, order: int) -> tuple[int, int]:
    """Bit bounds on the factors C(N + n, n) and C(N + d + n, n) of
    _dimension, which bound those of every lower order."""
    return _binomial_bits(order + n, n), _binomial_bits(order + d + n, n)


def _dim_do_work(n: int, d: int, order: int) -> int:
    """Work estimate of a dim-do request: its dimension and the nonzero
    terms of candidate_count, two binomials each."""
    b1, b2 = _dimension_bits(n, d, order)
    return (max(0, order + 1 - max(0, -d)) + 1) * (_step(b1) + _step(b2))


def _check_work(n: int, a: int, b: int, order: int, work: int) -> None:
    _check_space(n, order)
    check_work(work, "(n={}, a={}, b={}, N={})", n, a, b, order)


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
    check_dimension(n)
    if d < 1:
        raise PreconditionError("the twist drop d must be >= 1")
    if n_max < 0:
        raise PreconditionError("search budget must be nonnegative")
    if d > n_max:
        return NegativeTwistResult(n=n, d=d, order=None, dim=0, searched_up_to=n_max)
    return NegativeTwistResult(n=n, d=d, order=d, dim=do_dimension(n, 0, -d, d),
                               searched_up_to=n_max)
