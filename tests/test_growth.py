import math
from fractions import Fraction

import pytest

from jetspace.cohomology import chi_sym_tangent, h0_line
from jetspace.errors import StabilizationError
from jetspace import growth
from jetspace.growth import (GrowthPolynomial, closed_form_dimension,
                             dimension_sweep, expected_delta,
                             stabilization_threshold, verify_growth)
from jetspace.projective import do_dimension


def test_expected_delta_line_vs_plane():
    # on the line the tangent sheaf is O(2), so deltas are h^0(O(2N + d))
    assert expected_delta(1, 3, 0) == h0_line(1, 6)
    assert expected_delta(2, 1, 0) == 8
    assert expected_delta(2, 1, 1) == chi_sym_tangent(2, 1, 1)


def test_dimension_sweep_values():
    assert dimension_sweep(2, 0, 0, 4) == [1, 9, 36, 100, 225]


def test_growth_table_rows():
    table = verify_growth(2, 0, 0, 4).table
    assert [row.dim for row in table.rows] == [1, 9, 36, 100, 225]
    assert table.rows[0].delta is None
    assert [row.delta for row in table.rows[1:]] == [8, 27, 64, 125]
    assert all(row.match for row in table.rows[1:])
    assert table.threshold == 0


def test_threshold_zero_for_small_twists():
    for a, b in [(0, 0), (0, 1), (0, -1), (0, 2)]:
        assert stabilization_threshold(2, a, b, 4) == 0


def test_threshold_on_projective_line():
    table = verify_growth(1, 0, 0, 4).table
    assert [row.dim for row in table.rows] == [1, 4, 9, 16, 25]
    assert [row.delta for row in table.rows[1:]] == [3, 5, 7, 9]
    assert table.threshold == 0


def test_growth_polynomial_plane():
    report = verify_growth(2, 0, 0, 4)
    assert report.verdict
    assert report.first_failure is None
    poly = report.polynomial
    assert poly.degree == 4
    # dim DO^N(O, O) on the plane is binom(N+2,2)^2
    assert poly.coeffs == (Fraction(1), Fraction(3), Fraction(13, 4),
                           Fraction(3, 2), Fraction(1, 4))
    for k in range(8):
        assert poly.evaluate(k) == math.comb(k + 2, 2) ** 2
    assert poly.evaluate(5) == 441


def test_growth_polynomial_line():
    report = verify_growth(1, 0, 0, 4)
    assert report.verdict
    poly = report.polynomial
    assert poly.degree == 2
    for k in range(6):
        assert poly.evaluate(k) == (k + 1) ** 2


def test_growth_leading_coefficient():
    for n, a, b in [(1, 0, 0), (2, 0, 1), (2, 0, -1)]:
        nmax = 4
        report = verify_growth(n, a, b, nmax)
        assert report.verdict
        lead = report.polynomial.coeffs[-1]
        assert lead == Fraction(1, math.factorial(n) ** 2)
        assert report.polynomial.degree == 2 * n


def test_polynomial_matches_dimensions_past_threshold():
    report = verify_growth(2, 0, 2, 4)
    assert report.verdict
    poly = report.polynomial
    for row in report.table.rows:
        if row.order >= report.table.threshold:
            assert poly.evaluate(row.order) == row.dim


def test_polynomial_predicts_next_value():
    # the closed form extrapolates beyond the sweep: check one step out
    report = verify_growth(2, 0, 1, 4)
    assert report.polynomial.evaluate(5) == do_dimension(2, 0, 1, 5)


def test_nonzero_threshold_pair():
    # O -> O(-2) on the line: no operators below order 2, so M = 1
    assert dimension_sweep(1, 0, -2, 4) == [0, 0, 3, 8, 15]
    report = verify_growth(1, 0, -2, 4)
    assert report.table.threshold == 1
    assert report.verdict
    # P(N) = N^2 - 1
    assert report.polynomial.coeffs == (Fraction(-1), Fraction(0), Fraction(1))
    assert report.table.rows[1].match is False
    assert all(row.match for row in report.table.rows[2:])


@pytest.mark.parametrize("n, a, b, threshold", [
    (2, 0, -3, 1), (2, 1, -2, 1), (3, 0, -4, 1), (2, 0, -4, 2)])
def test_threshold_past_chi_gap_for_negative_twists(n, a, b, threshold):
    # b - a <= -(n + 1): the h^0 increments match from N = 1, but P steps
    # by chi, so the threshold must also let P reproduce dims[M..n_max]
    report = verify_growth(n, a, b)
    assert report.table.threshold == threshold
    assert report.verdict
    assert report.first_failure is None
    for row in report.table.rows[threshold:]:
        assert report.polynomial.evaluate(row.order) == row.dim


def test_insufficient_budget_raises():
    with pytest.raises(StabilizationError):
        stabilization_threshold(1, 0, -2, 1)


def test_stabilization_threshold_rejects_vacuous_match():
    # a sequence matching only at the last step must not certify
    with pytest.raises(StabilizationError):
        stabilization_threshold(1, 0, 0, 4, [0, 0, 0, 0, 100])


def test_stabilization_threshold_direct():
    dims = [do_dimension(2, 0, -1, k) for k in range(5)]
    assert stabilization_threshold(2, 0, -1, 4, dims) == 0


def test_growth_polynomial_container():
    p = GrowthPolynomial(n=1, a=0, b=0, threshold=0, constant=Fraction(0),
                         coeffs=(Fraction(1), Fraction(2), Fraction(1)))
    assert p.degree == 2
    assert p.evaluate(3) == 16
    assert p.evaluate(Fraction(1, 2)) == Fraction(9, 4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_dimension_matches_computed(n):
    for d in range(-n - 3, 3):
        for order in range(3 if n < 3 else 2):
            assert closed_form_dimension(n, d, order) == do_dimension(n, 0, d, order)
    assert closed_form_dimension(2, 0, 8) == 2025
    assert closed_form_dimension(5, 0, 3) == 3136


def test_verify_growth_reports_first_closed_form_mismatch(monkeypatch):
    true_form = closed_form_dimension
    monkeypatch.setattr(growth, "closed_form_dimension",
                        lambda n, d, order: true_form(n, d, order) + (order >= 3))
    report = verify_growth(2, 0, 1, 4)
    assert report.verdict is False
    assert report.first_failure == 3


def test_binomial_value_is_the_factor_at_integers():
    for n in range(1, 6):
        for shift in range(-8, 9):
            factor = growth._binomial_factor(n, shift)
            for order in range(13):
                value = growth._binomial_value(n, shift, order)
                assert type(value) is int
                assert value == factor.evaluate(order), (n, shift, order)
