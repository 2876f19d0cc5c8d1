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
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from typing import NamedTuple

from .cohomology import h0_line, h0_sym_tangent
from .errors import PreconditionError, StabilizationError
from .presented import UniPoly
from .projective import do_dimension


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
    return h0_sym_tangent(n, order, d).h0


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


def _binomial_factor(n: int, shift: int) -> UniPoly:
    """binom(n + N + shift, n) as a polynomial in N, over Q."""
    poly = UniPoly.one()
    for i in range(1, n + 1):
        poly = poly * UniPoly((shift + i, 1))
    return poly * Fraction(1, factorial(n))


def _binomial_value(n: int, shift: int, order: int) -> int:
    """_binomial_factor(n, shift) at N = order, in integers: a product of n
    consecutive integers is divisible by n!, whatever their sign."""
    return prod(range(order + shift + 1, order + shift + n + 1)) // factorial(n)


def dimension_sweep(n: int, a: int, b: int, n_max: int) -> list[int]:
    if n_max < 0:
        raise PreconditionError("sweep budget must be nonnegative")
    return [do_dimension(n, a, b, order) for order in range(n_max + 1)]


def closed_form_dimension(n: int, d: int, order: int) -> int:
    """dim DO^N(O(a), O(a + d)) on P^n without an action matrix:
    sum_{k=0..N} C(N - k + n, n) S(k), where S(k) counts the shifts in
    Z^(n+1) of coordinate sum d whose negative part has size k.  Of those,
    i coordinates are negative, in C(n+1, i) C(k-1, i-1) ways, and the rest
    spread d + k; the all-negative i = n + 1 term needs d + k = 0."""
    def spread(total: int, parts: int) -> int:
        if parts == 0:
            return int(total == 0)
        return comb(total + parts - 1, parts - 1) if total >= 0 else 0

    def shifts(k: int) -> int:
        if k == 0:
            return spread(d, n + 1)
        return sum(comb(n + 1, i) * comb(k - 1, i - 1) * spread(d + k, n + 1 - i)
                   for i in range(1, n + 2))

    return sum(comb(order - k + n, n) * shifts(k) for k in range(order + 1))


def stabilization_threshold(n: int, a: int, b: int, n_max: int,
                            dims: list[int] | None = None) -> int:
    """Least M < n_max such that every later increment matches the symmetric
    tangent prediction and P, pinned at M, reproduces dims[M..n_max].

    The second condition matters for b - a <= -(n + 1): there the h^0
    increments match from N = 1, but P steps by chi, which differs from h^0
    at small N.  The vacuous M = n_max is rejected so a sweep with no
    matching increments fails loudly."""
    if n_max < 1:
        raise PreconditionError("threshold search needs n_max >= 1")
    if dims is None:
        dims = dimension_sweep(n, a, b, n_max)
    d = b - a
    matches = [dims[order] - dims[order - 1] == expected_delta(n, order, d)
               for order in range(1, n_max + 1)]
    constants = [dims[order] - _binomial_value(n, 0, order) * _binomial_value(n, d, order)
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
    constant = Fraction(dim_at_threshold - _binomial_value(n, 0, threshold)
                        * _binomial_value(n, b - a, threshold))
    coeffs = list((_binomial_factor(n, 0) * _binomial_factor(n, b - a)).coeffs)
    coeffs[0] += constant
    poly = GrowthPolynomial(n=n, a=a, b=b, threshold=threshold,
                            constant=constant, coeffs=tuple(coeffs))
    if poly.degree != 2 * n:
        raise StabilizationError("growth polynomial degenerated below degree 2n")
    return poly


class GrowthReport(NamedTuple):
    table: GrowthTable
    polynomial: GrowthPolynomial
    verdict: bool
    first_failure: int | None


def verify_growth(n: int, a: int, b: int, n_max: int | None = None) -> GrowthReport:
    """Sweep dimensions, locate the threshold, fit P(N), and cross-check.

    P reproduces dims[M..n_max] by the choice of M, and has degree 2n and
    leading coefficient 1/(n!)^2 by construction.  The independent check is
    closed_form_dimension: first_failure is the least N whose computed
    dimension differs from it, and the verdict is that there is none.
    """
    if n_max is None:
        n_max = default_n_max(n)
    dims = dimension_sweep(n, a, b, n_max)
    threshold = stabilization_threshold(n, a, b, n_max, dims)
    poly = growth_polynomial(n, a, b, threshold, dims[threshold])
    d = b - a
    rows = [GrowthRow(order=0, dim=dims[0], delta=None, expected_delta=None, match=None)]
    for order in range(1, n_max + 1):
        delta = dims[order] - dims[order - 1]
        expected = expected_delta(n, order, d)
        rows.append(GrowthRow(order=order, dim=dims[order], delta=delta,
                              expected_delta=expected, match=delta == expected))
    first_failure = next((order for order in range(n_max + 1)
                          if dims[order] != closed_form_dimension(n, d, order)), None)
    table = GrowthTable(n=n, a=a, b=b, rows=tuple(rows), threshold=threshold)
    return GrowthReport(table=table, polynomial=poly, verdict=first_failure is None,
                        first_failure=first_failure)
