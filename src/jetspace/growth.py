"""Dimension growth of global operator spaces in the order bound N.

Raising the order bound from N-1 to N adds the global sections of the N-th
symmetric tangent twist, once N clears a finite threshold M.  Summing those
increments against the Euler characteristic gives a closed polynomial

    P(N) = binom(n+N, N) * chi(O(b-a+N)) + C,

of degree exactly 2n in N with leading coefficient 1/(n!)^2, whose constant
C is pinned by matching the computed dimension at N = M.  This module finds
the threshold empirically, builds P with exact rational coefficients, and
cross-checks every computed dimension against an independent closed form
that counts candidate shifts.

The search finds what the kernel's closed form proves.  With d = b - a,
dims[N] = C(N + n, n) C(N + d + n, n), and 0 when N + d < 0
(projective.do_dimensions).  So:

- dims[N] - dims[N - 1] = C(N + n, n) h0(O(N + d)) - C(N - 1 + n, n)
  h0(O(N - 1 + d)), which is expected_delta(n, N, d) for every N >= 1 when
  n >= 2.  On the line, where h1 of O(N - 1 + d) can be nonzero, it is
  h0(O(2N + d)) for N >= -d.
- C(N + n, n) = chi(O(N)) for N >= 0, and C(N + d + n, n) = chi(O(N + d))
  whenever N + d >= -n (both sides are 0 for -n <= N + d < 0).  So
  dims[N] = chi(O(N)) chi(O(N + d)) for N >= M0 = max(0, a - b - n), and
  not below M0, where dims[N] = 0 and the product of the chis is not.

Hence whenever M0 < n_max the threshold is exactly M0 and the constant C is
0.  When n_max <= M0 every dimension in the budget is 0, and the search
can accept a spurious window: growth-table --n 1 --a 0 --b -9 --nmax 4
reports M = 3 and P(N) = N^2 - 7N + 12 with verdict true, yet P(9) = 30
while dim DO^9 = 10.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .cohomology import _h0_sym_tangent, chi_line, h0_line
from .errors import PreconditionError, StabilizationError
from .projective import do_dimension, do_dimensions


def default_n_max(n: int) -> int:
    """Sweep budget per projective dimension; override per call if needed."""
    return {1: 4, 2: 4}.get(n, 2)


def expected_delta(n: int, order: int, d: int) -> int:
    """h^0 of the order-th symmetric tangent twist by d, the predicted
    dimension increment.  On the projective line Sym^N T = O(2N)."""
    if order < 1:
        raise PreconditionError("increments are defined for N >= 1")
    if n == 1:
        return h0_line(1, 2 * order + d)
    return _h0_sym_tangent(n, order, d)


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


def dimension_sweep(n: int, a: int, b: int, n_max: int) -> list[int]:
    """dim DO^N(O(a), O(b)) for N = 0..n_max, from one pass at order n_max."""
    if n_max < 0:
        raise PreconditionError("sweep budget must be nonnegative")
    return list(do_dimensions(n, a, b, n_max))


def closed_form_dimension(n: int, d: int, order: int) -> int:
    """dim DO^N(O(a), O(a + d)) on P^n without an action matrix:
    sum_{k=0..N} C(N - k + n, n) S(k), where S(k) counts the shifts in
    Z^(n+1) of coordinate sum d whose negative part has size k.  Of those,
    i coordinates are negative, in C(n+1, i) C(k-1, i-1) ways, and the rest
    spread d + k; the all-negative i = n + 1 term needs d + k = 0."""
    return closed_form_dimensions(n, d, order)[order]


def closed_form_dimensions(n: int, d: int, top: int) -> list[int]:
    """closed_form_dimension for N = 0..top, each S(k) computed once."""
    counts = [comb(d + n, n) if d >= 0 else 0] + [0] * top
    for k in range(max(1, -d), top + 1):
        # i = n + 1 negative coordinates only when d + k = 0; i = 1..n leave
        # n + 1 - i slots to spread d + k over
        total = comb(k - 1, n) if d + k == 0 else 0
        for i in range(1, n + 1):
            total += comb(n + 1, i) * comb(k - 1, i - 1) * comb(d + k + n - i, n - i)
        counts[k] = total
    return [sum(comb(order - k + n, n) * counts[k] for k in range(order + 1))
            for order in range(top + 1)]


def stabilization_threshold(n: int, a: int, b: int, n_max: int,
                            dims: list[int] | None = None,
                            expected: list[int] | None = None) -> int:
    """Least M < n_max such that every later increment matches the symmetric
    tangent prediction and P, pinned at M, reproduces dims[M..n_max].

    The second condition matters for b - a <= -(n + 1): there the h^0
    increments match from N = 1, but P steps by chi, which differs from h^0
    at small N.  The vacuous M = n_max is rejected so a sweep with no
    matching increments fails loudly.  expected, if given, holds
    expected_delta(n, N, b - a) for N = 1..n_max."""
    if n_max < 1:
        raise PreconditionError("threshold search needs n_max >= 1")
    if dims is None:
        dims = dimension_sweep(n, a, b, n_max)
    d = b - a
    if expected is None:
        expected = [expected_delta(n, order, d) for order in range(1, n_max + 1)]
    matches = [dims[order] - dims[order - 1] == expected[order - 1]
               for order in range(1, n_max + 1)]
    constants = [dims[order] - chi_line(n, order) * chi_line(n, order + d)
                 for order in range(n_max + 1)]
    for threshold in range(n_max):
        if all(matches[threshold:]) and len(set(constants[threshold:])) == 1:
            return threshold
    raise StabilizationError(
        f"no stabilization threshold below {n_max} for (n={n}, a={a}, b={b})")


def growth_polynomial(n: int, a: int, b: int, threshold: int,
                      dim_at_threshold: int | None = None) -> GrowthPolynomial:
    if dim_at_threshold is None:
        dim_at_threshold = do_dimension(n, a, b, threshold)
    constant = dim_at_threshold - chi_line(n, threshold) * chi_line(n, threshold + b - a)
    # (n!)^2 (binom(N + n, n) binom(N + b - a + n, n) + C) is the product of
    # the N + r below plus (n!)^2 C: ascending integer coefficients, divided
    # once by (n!)^2
    product = [1]
    for r in [*range(1, n + 1), *range(b - a + 1, b - a + n + 1)]:
        product = [r * c + prev for c, prev in zip(product + [0], [0] + product)]
    scale = factorial(n) ** 2
    product[0] += constant * scale
    return GrowthPolynomial(n=n, a=a, b=b, threshold=threshold,
                            constant=Fraction(constant),
                            coeffs=tuple(Fraction(c, scale) for c in product))


class GrowthReport(NamedTuple):
    table: GrowthTable
    polynomial: GrowthPolynomial
    verdict: bool
    first_failure: int | None


def verify_growth(n: int, a: int, b: int, n_max: int | None = None) -> GrowthReport:
    """Sweep dimensions, locate the threshold, fit P(N), and cross-check.

    P reproduces dims[M..n_max] by the choice of M, and has degree 2n and
    leading coefficient 1/(n!)^2 by construction.  The independent check is
    closed_form_dimensions: first_failure is the least N whose computed
    dimension differs from it, and the verdict is that there is none.
    """
    if n_max is None:
        n_max = default_n_max(n)
    dims = dimension_sweep(n, a, b, n_max)
    d = b - a
    expected = [expected_delta(n, order, d) for order in range(1, n_max + 1)]
    threshold = stabilization_threshold(n, a, b, n_max, dims, expected)
    poly = growth_polynomial(n, a, b, threshold, dims[threshold])
    rows = [GrowthRow(order=0, dim=dims[0], delta=None, expected_delta=None, match=None)]
    for order in range(1, n_max + 1):
        delta = dims[order] - dims[order - 1]
        rows.append(GrowthRow(order=order, dim=dims[order], delta=delta,
                              expected_delta=expected[order - 1],
                              match=delta == expected[order - 1]))
    closed = closed_form_dimensions(n, d, n_max)
    first_failure = next((order for order in range(n_max + 1)
                          if dims[order] != closed[order]), None)
    table = GrowthTable(n=n, a=a, b=b, rows=tuple(rows), threshold=threshold)
    return GrowthReport(table=table, polynomial=poly, verdict=first_failure is None,
                        first_failure=first_failure)
