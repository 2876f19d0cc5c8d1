"""Dimension growth of global operator spaces in the order bound N.

Raising the order bound from N-1 to N adds the global sections of the N-th
symmetric tangent twist, once N clears a finite threshold M.  Summing those
increments against the Euler characteristic gives a closed polynomial

    P(N) = binom(n+N, N) * chi(O(b-a+N)) + C,

of degree exactly 2n in N with leading coefficient 1/(n!)^2, whose constant
C is pinned by matching the computed dimension at N = M.  This module takes
M from the proof below, builds P with exact rational coefficients, and
cross-checks every computed dimension against an independent closed form
that counts candidate shifts.

The threshold is a theorem.  With d = b - a,
dims[N] = C(N + n, n) C(N + d + n, n), and 0 when N + d < 0
(dimensions.do_dimensions).  So:

- dims[N] - dims[N - 1] = C(N + n, n) h0(O(N + d)) - C(N - 1 + n, n)
  h0(O(N - 1 + d)), which is expected_delta(n, N, d) for every N >= 1 when
  n >= 2.  On the line, where h1 of O(N - 1 + d) can be nonzero, it is
  h0(O(2N + d)) for N >= -d.
- C(N + n, n) = chi(O(N)) for N >= 0, and C(N + d + n, n) = chi(O(N + d))
  whenever N + d >= -n (both sides are 0 for -n <= N + d < 0).  So
  dims[N] = chi(O(N)) chi(O(N + d)) for N >= M0 = max(0, a - b - n), and
  not below M0, where dims[N] = 0 and the product of the chis is not.

Hence the rule: the threshold M is M0 and the constant C is 0.  A budget
n_max <= M0 holds only zero dimensions, from which neither can be read, so
it raises StabilizationError.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from typing import NamedTuple

from .cohomology import _h0_sym_tangent_row, chi_line, h0_line
from .errors import PreconditionError, StabilizationError, _ITEM_WORK, _step
from .dimensions import _check_work, _dimension_bits, do_dimensions


def default_n_max(n: int) -> int:
    """Sweep budget per projective dimension; override per call if needed."""
    return {1: 4, 2: 4}.get(n, 2)


def expected_delta(n: int, order: int, d: int) -> int:
    """h^0 of the order-th symmetric tangent twist by d, the predicted
    dimension increment.  On the projective line Sym^N T = O(2N)."""
    if order < 1:
        raise PreconditionError("increments are defined for N >= 1")
    return _expected_deltas(n, d, order, order)[0]


def _expected_deltas(n: int, d: int, lo: int, hi: int) -> list[int]:
    """expected_delta(n, N, d) for N = lo..hi, lo >= 1 (not checked)."""
    if n == 1:
        return [h0_line(1, 2 * order + d) for order in range(lo, hi + 1)]
    return _h0_sym_tangent_row(n, d, lo, hi)


class GrowthRow(NamedTuple):
    order: int
    dim: int
    delta: int | None
    expected_delta: int | None
    match: bool | None


class GrowthTable(NamedTuple):
    n: int
    a: int
    b: int
    rows: tuple[GrowthRow, ...]
    threshold: int


class GrowthPolynomial(NamedTuple):
    """P(N) = binom(n+N, N) chi(O(b-a+N)) + C, with C pinned at N = threshold."""

    n: int
    a: int
    b: int
    threshold: int
    constant: Fraction
    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, order: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * order + c
        return acc


def closed_form_dimension(n: int, d: int, order: int) -> int:
    """dim DO^N(O(a), O(a + d)) on P^n without an action matrix:
    sum_{k=0..N} C(N - k + n, n) S(k), where S(k) counts the shifts in
    Z^(n+1) of coordinate sum d whose negative part has size k.  Of those,
    i coordinates are negative, in C(n+1, i) C(k-1, i-1) ways, and the rest
    spread d + k; the all-negative i = n + 1 term needs d + k = 0."""
    return closed_form_dimensions(n, d, order)[order]


def closed_form_dimensions(n: int, d: int, top: int) -> list[int]:
    """closed_form_dimension for N = 0..top, each S(k) computed once.

    Each equals C(N + n, n) C(N + d + n, n), the kernel's dimension: this
    is step 3 of dimensions.do_dimensions with its shifts s grouped by the
    size k = |m(s)| of their negative part m(s) = max(0, -s).  A shift with
    k <= N has C(N - k + n, n) exponents beta >= m(s) with |beta| = N (the
    other N - k spread over n + 1 slots), so sum_k S(k) C(N - k + n, n)
    counts the pairs (s, beta) with |beta| = N and beta >= m(s); a shift
    with k > N has none.  Now beta >= m(s) iff beta >= 0 and
    alpha = s + beta >= 0, and s = alpha - beta.  So the pairs are the
    (alpha, beta) >= 0 with |beta| = N and |alpha| = N + d: C(N + n, n)
    times C(N + d + n, n), and none when N + d < 0.

    The sums over k are n + 1 running sums of S: by the hockey-stick
    identity C(N - k + n, n) = sum_{j <= N - k} C(j + n - 1, n - 1), so if
    the weight of S(k) in the n-th running sum at N is C(N - k + n - 1,
    n - 1), in the next it is C(N - k + n, n); in the first it is 1."""
    counts = [comb(d + n, n) if d >= 0 else 0] + [0] * top
    for k in range(max(1, -d), top + 1):
        # i = n + 1 negative coordinates only when d + k = 0; i = 1..n leave
        # n + 1 - i slots to spread d + k over
        total = comb(k - 1, n) if d + k == 0 else 0
        for i in range(1, n + 1):
            total += comb(n + 1, i) * comb(k - 1, i - 1) * comb(d + k + n - i, n - i)
        counts[k] = total
    for _ in range(n + 1):
        counts = accumulate(counts)
    return list(counts)


def stabilization_threshold(n: int, a: int, b: int, n_max: int) -> int:
    """M0 = max(0, a - b - n), the least M from which every increment
    matches the symmetric tangent prediction and P, with constant 0,
    reproduces every dimension (see the module docstring).  The budget must
    reach past it: n_max <= M0 raises StabilizationError."""
    if n_max < 1:
        raise PreconditionError("the growth threshold needs n_max >= 1")
    if n < 1:
        raise PreconditionError("projective dimension must be >= 1")
    threshold = max(0, a - b - n)
    if threshold >= n_max:
        raise StabilizationError(
            f"the stabilization threshold {threshold} of (n={n}, a={a}, b={b}) "
            f"is not below the budget {n_max}")
    return threshold


def growth_polynomial(n: int, a: int, b: int, threshold: int,
                      dim_at_threshold: int) -> GrowthPolynomial:
    constant = dim_at_threshold - chi_line(n, threshold) * chi_line(n, threshold + b - a)
    # (n!)^2 (binom(N + n, n) binom(N + b - a + n, n) + C) is the product of
    # the N + r below plus (n!)^2 C: ascending integer coefficients, divided
    # once by (n!)^2
    product = [1]
    for r in [*range(1, n + 1), *range(b - a + 1, b - a + n + 1)]:
        product = [r * c + prev for c, prev in zip(product + [0], [0] + product)]
    scale = factorial(n) ** 2
    product[0] += constant * scale
    return GrowthPolynomial(n, a, b, threshold, Fraction(constant),
                            tuple(Fraction(c, scale) for c in product))


def _growth_work(n: int, d: int, top: int) -> int:
    """Work estimate (errors._step) of verify_growth and its report:
    per order its dimension and the four binomials of expected_delta, and
    n S(k) terms per order for closed_form_dimensions, then the 2n + 1
    coefficients of P.  Those are integers over (n!)^2 < n^(2n), and each
    integer is at most the product of the 1 + |r| over the 2n roots -r of
    P; reducing and printing them costs about an eighth of a binomial per
    bit^2.  Per order, closed_form_dimensions adds into n + 1 running sums,
    an item each, and the report prints a row of five values, about eight
    items (12 us as JSON on a 2-core Xeon, Python 3.11)."""
    b1, b2 = _dimension_bits(n, d, top)
    pair = _step(b1) + _step(b2)
    coeff_bits = n * (3 * (n + 1).bit_length() + (abs(d) + n + 1).bit_length())
    return ((3 * top + 1) * pair + top * n * (_step(n + 1) + pair)
            + (top + 1) * (n + 1 + 8) * _ITEM_WORK
            + (2 * n + 1) * _step(coeff_bits) // 8)


class GrowthReport(NamedTuple):
    table: GrowthTable
    polynomial: GrowthPolynomial
    verdict: bool
    first_failure: int | None


def verify_growth(n: int, a: int, b: int, n_max: int | None = None) -> GrowthReport:
    """Take the threshold M0, sweep dimensions, build P(N), and cross-check.

    P reproduces dims[M0..n_max] by the module docstring's proof, and has
    degree 2n and leading coefficient 1/(n!)^2 by construction.  The
    independent check is closed_form_dimensions: first_failure is the least
    N whose computed dimension differs from it, and the verdict is that
    there is none.  Input whose work estimate passes errors.WORK_LIMIT
    is refused with PreconditionError before any binomial.
    """
    if n_max is None:
        n_max = default_n_max(n)
    threshold = stabilization_threshold(n, a, b, n_max)
    d = b - a
    _check_work(n, a, b, n_max, _growth_work(n, d, n_max))
    dims = do_dimensions(n, a, b, n_max)
    poly = growth_polynomial(n, a, b, threshold, dims[threshold])
    rows = [GrowthRow(0, dims[0], None, None, None)]
    for order, expected in enumerate(_expected_deltas(n, d, 1, n_max), 1):
        delta = dims[order] - dims[order - 1]
        rows.append(GrowthRow(order, dims[order], delta, expected, delta == expected))
    closed = closed_form_dimensions(n, d, n_max)
    first_failure = next((order for order in range(n_max + 1)
                          if dims[order] != closed[order]), None)
    table = GrowthTable(n, a, b, tuple(rows), threshold)
    return GrowthReport(table, poly, first_failure is None, first_failure)
