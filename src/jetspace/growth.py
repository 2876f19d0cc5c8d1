"""Dimension growth of global operator spaces in the order bound N.

Raising the order bound from N-1 to N adds the global sections of the N-th
symmetric tangent twist, once N clears a finite threshold M.  Summing those
increments against the Euler characteristic gives a closed polynomial

    P(N) = binom(n+N, N) * chi(O(b-a+N)) + C,

of degree exactly 2n in N with leading coefficient 1/(n!)^2, whose constant
C is pinned by matching the computed dimension at N = M.  This module takes
M from the proof below, builds P with exact rational coefficients, and
checks every computed dimension against the symbol filtration.

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

The check needs no Weyl model.  With D^N the sheaf of operators
O(a) -> O(b) of order <= N, D^0 = O(d) and the symbol sequences
0 -> D^(N-1) -> D^N -> Sym^N T(d) -> 0 give

    0 -> H0(D^(N-1)) -> H0(D^N) -> H0(Sym^N T(d)) -> H1(D^(N-1)),

so dims[0] = h0(O(d)), and each increment is at most expected_delta(n, N, d),
with equality when H1(D^(N-1)) = 0, which holds when H1(Sym^k T(d)) = 0 for
every k < N.  That H1 vanishes:

- on P^1, where Sym^k T(d) = O(2k + d), for every k iff d >= -1;
- for n >= 2, by the Euler sequence
  0 -> O(k - 1 + d)^C(k-1+n, n) -> O(k + d)^C(k+n, n) -> Sym^k T(d) -> 0,
  when H2(O(k - 1 + d)) = 0: always for n >= 3, and on P^2 for k = 0 and,
  when d >= -2, for every k.

A row fails when its increment breaks the bound, or falls short of it where
that H1 vanishes.  Elsewhere (P^1 with d <= -2, P^2 with d <= -3 from N = 2)
only the bound is checked, so a true verdict means that no failure was
found, not that the dimensions are certified: the Weyl count is known to
fall short of the operator space on P^1 (ROADMAP item 15).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .cohomology import _h0_sym_tangent_row, chi_line, h0_line
from .errors import PreconditionError, StabilizationError, _ITEM_WORK, _step, check_dimension
from .dimensions import _check_work, _dimension_bits, do_dimensions


def default_n_max(n: int) -> int:
    """Sweep budget per projective dimension; override per call if needed."""
    return {1: 4, 2: 4}.get(n, 2)


def expected_delta(n: int, order: int, d: int) -> int:
    """h^0 of the order-th symmetric tangent twist by d, the predicted
    dimension increment.  On the projective line Sym^N T = O(2N)."""
    check_dimension(n)
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


def stabilization_threshold(n: int, a: int, b: int, n_max: int) -> int:
    """M0 = max(0, a - b - n), the least M from which every increment
    matches the symmetric tangent prediction and P, with constant 0,
    reproduces every dimension (see the module docstring).  The budget must
    reach past it: n_max <= M0 raises StabilizationError."""
    if n_max < 1:
        raise PreconditionError("the growth threshold needs n_max >= 1")
    check_dimension(n)
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
    per order its dimension and the four binomials of expected_delta, then
    h0(O(d)) and the 2n + 1 coefficients of P.  Those are integers over
    (n!)^2 < n^(2n), and each integer is at most the product of the 1 + |r|
    over the 2n roots -r of P; reducing and printing them costs about an
    eighth of a binomial per bit^2.  Per order the report prints a row of
    five values, about eight items (12 us as JSON on a 2-core Xeon,
    Python 3.11)."""
    b1, b2 = _dimension_bits(n, d, top)
    pair = _step(b1) + _step(b2)
    coeff_bits = n * (3 * (n + 1).bit_length() + (abs(d) + n + 1).bit_length())
    return ((3 * top + 2) * pair + (top + 1) * 8 * _ITEM_WORK
            + (2 * n + 1) * _step(coeff_bits) // 8)


class GrowthReport(NamedTuple):
    table: GrowthTable
    polynomial: GrowthPolynomial
    verdict: bool
    first_failure: int | None


def verify_growth(n: int, a: int, b: int, n_max: int | None = None) -> GrowthReport:
    """Take the threshold M0, sweep dimensions, build P(N), and check them.

    P reproduces dims[M0..n_max] by the module docstring's proof, and has
    degree 2n and leading coefficient 1/(n!)^2 by construction.  The check
    is the symbol filtration of the module docstring: row 0 fails when
    dims[0] != h0(O(d)), and row N >= 1 when its delta exceeds
    expected_delta, or falls short of it while H1(Sym^k T(d)) = 0 for every
    k < N.  first_failure is the least failing row, and the verdict is that
    there is none; where only the bound is checked, as on P^1 with d <= -2,
    that means no failure was found, not that the dimensions are certified.
    Input whose work estimate passes errors.WORK_LIMIT is refused with
    PreconditionError before any binomial.
    """
    if n_max is None:
        n_max = default_n_max(n)
    threshold = stabilization_threshold(n, a, b, n_max)
    d = b - a
    _check_work(n, a, b, n_max, _growth_work(n, d, n_max))
    dims = do_dimensions(n, a, b, n_max)
    poly = growth_polynomial(n, a, b, threshold, dims[threshold])
    rows = [GrowthRow(0, dims[0], None, None, None)]
    first_failure = None if dims[0] == h0_line(n, d) else 0
    # the orders N <= exact_to have H1(Sym^k T(d)) = 0 for every k < N: all
    # of them, or on P^2 with d <= -3 only N = 1, on P^1 with d <= -2 none
    exact_to = n_max if n >= 3 or d >= -1 or n == 2 and d >= -2 else n - 1
    for order, expected in enumerate(_expected_deltas(n, d, 1, n_max), 1):
        delta = dims[order] - dims[order - 1]
        rows.append(GrowthRow(order, dims[order], delta, expected, delta == expected))
        if first_failure is None and (delta > expected
                                      or delta < expected and order <= exact_to):
            first_failure = order
    table = GrowthTable(n, a, b, tuple(rows), threshold)
    return GrowthReport(table, poly, first_failure is None, first_failure)
