import itertools
import math
from fractions import Fraction

import pytest

from jetspace.cohomology import (_h0_sym_tangent_row, chi_line, chi_sym_tangent,
                                 h0_line, h0_sym_tangent)
from jetspace.errors import PreconditionError, StabilizationError
from jetspace import cli, growth
from jetspace.growth import (GrowthPolynomial, closed_form_dimension,
                             closed_form_dimensions, expected_delta,
                             growth_polynomial, stabilization_threshold,
                             verify_growth)
from jetspace.presented import UniPoly
from jetspace import dimensions
from jetspace.projective import do_dimension, do_dimensions


def _binomial_factor(n, shift):
    """binom(n + N + shift, n) as a polynomial in N, over Q: the reference
    for the integer constants and coefficients of the growth polynomial."""
    poly = UniPoly.one()
    for i in range(1, n + 1):
        poly = poly * UniPoly((shift + i, 1))
    return poly * Fraction(1, math.factorial(n))


def test_expected_delta_line_vs_plane():
    # on the line the tangent sheaf is O(2), so deltas are h^0(O(2N + d))
    assert expected_delta(1, 3, 0) == h0_line(1, 6)
    assert expected_delta(2, 1, 0) == 8
    assert expected_delta(2, 1, 1) == chi_sym_tangent(2, 1, 1)


@pytest.mark.parametrize("args", [(0, 1, 0), (-3, 2, 5), (0, 0, 0)])
def test_expected_delta_refuses_projective_dimension_below_one(args):
    with pytest.raises(PreconditionError, match=r"^projective dimension must be >= 1$"):
        expected_delta(*args)


def test_expected_delta_is_the_integer_h0():
    for n in range(2, 6):
        for order in range(1, 8):
            for d in range(-12, 6):
                value = expected_delta(n, order, d)
                assert type(value) is int
                assert value == h0_sym_tangent(n, order, d).h0, (n, order, d)
    # the row helper behind expected_delta and verify_growth, on every
    # window lo..hi of k <= 10, k = 0 included
    for n in range(2, 7):
        for j in range(-12, 7):
            want = [h0_sym_tangent(n, k, j).h0 for k in range(11)]
            for lo in range(11):
                for hi in range(lo, 11):
                    assert _h0_sym_tangent_row(n, j, lo, hi) == want[lo:hi + 1], (n, j, lo, hi)


def test_dimension_sweep_values():
    assert do_dimensions(2, 0, 0, 4) == (1, 9, 36, 100, 225)


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
    assert do_dimensions(1, 0, -2, 4) == (0, 0, 3, 8, 15)
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_threshold_is_the_first_order_where_dims_are_the_chi_product(n):
    # the proof in the growth docstring: with M0 = max(0, a - b - n) < nmax
    # the threshold is exactly M0 and the constant 0
    for a in (-1, 0, 2):
        for d in range(-(n + 9), 7):
            start = max(0, -d - n)
            for nmax in range(start + 1, start + 6):
                report = verify_growth(n, a, a + d, nmax)
                dims = [row.dim for row in report.table.rows]
                for order in range(1, nmax + 1):
                    if n > 1 or order + d >= 0:
                        assert report.table.rows[order].match, (n, a, d, nmax, order)
                for order in range(nmax + 1):
                    product = chi_line(n, order) * chi_line(n, order + d)
                    assert (dims[order] == product) == (order >= start), (n, d, order)
                assert report.table.threshold == start, (n, a, d, nmax)
                assert report.polynomial.constant == 0
                assert report.verdict


def test_insufficient_budget_raises():
    with pytest.raises(StabilizationError):
        stabilization_threshold(1, 0, -2, 1)
    # the input alone shows the shortfall, so it is a precondition
    assert issubclass(StabilizationError, PreconditionError)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_budget_at_or_below_the_threshold_is_refused(capsys, n):
    # with nmax <= M0 = max(0, a - b - n) every dimension in the budget is
    # 0 and shows no threshold; the grid holds (1, 0, -9, 4), which once
    # printed M = 3 and a P with P(9) = 30 while dim DO^9 = 10
    for a in (-1, 0, 2):
        for d in range(-(n + 9), -n):
            for nmax in range(1, -d - n + 1):
                with pytest.raises(StabilizationError):
                    stabilization_threshold(n, a, a + d, nmax)
                with pytest.raises(StabilizationError):
                    verify_growth(n, a, a + d, nmax)
                rc = cli.main(["growth-table", "--n", str(n), "--a", str(a),
                               "--b", str(a + d), "--nmax", str(nmax)])
                out, err = capsys.readouterr()
                assert (rc, out) == (2, ""), (n, a, d, nmax)
                assert err.startswith("precondition failed: the stabilization threshold")


def test_stabilization_threshold_direct():
    assert stabilization_threshold(2, 0, -1, 4) == 0
    assert stabilization_threshold(3, 1, -5, 4) == 3
    # it computes nothing, so it checks no work estimate
    assert stabilization_threshold(1, 0, 0, 150) == 0
    assert stabilization_threshold(2234, 0, 0, 1) == 0
    # the refusals keep their order: the budget, the space, the threshold;
    # verify_growth refuses oversized work only after them
    with pytest.raises(PreconditionError, match="n_max >= 1"):
        stabilization_threshold(0, 0, -9, 0)
    with pytest.raises(PreconditionError, match="n_max >= 1"):
        verify_growth(0, 0, -9, -1)
    with pytest.raises(PreconditionError, match="projective dimension"):
        verify_growth(0, 0, -9, 4)
    with pytest.raises(StabilizationError):
        verify_growth(2234, 0, -2300, 1)
    with pytest.raises(PreconditionError, match="work estimate"):
        verify_growth(2234, 0, 0, 1)


def test_verify_growth_checks_its_work_once(monkeypatch):
    calls = []
    check = dimensions._check_work

    def counted(*args):
        calls.append(args[:4])
        check(*args)

    monkeypatch.setattr(dimensions, "_check_work", counted)
    monkeypatch.setattr(growth, "_check_work", counted)
    verify_growth(2, 0, 1, 4)
    assert calls == [(2, 0, 1, 4)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_growth_work_bounds_the_polynomial_sizes(n):
    # the estimate's coefficient bound covers the printed numerators and
    # denominators of P, and the dimension bounds cover every dimension
    for d in (-n - 3, -1, 0, 2, 10 ** 6):
        top = max(1, -d - n + 1)
        coeff_bits = n * (3 * (n + 1).bit_length() + (abs(d) + n + 1).bit_length())
        report = verify_growth(n, 0, d, top)
        for c in report.polynomial.coeffs:
            assert c.numerator.bit_length() + c.denominator.bit_length() <= coeff_bits
        dim_bits = dimensions._dimension_bits(n, d, top)
        for row in report.table.rows:
            assert row.dim.bit_length() <= sum(dim_bits), (n, d, row)


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


def test_closed_form_sweep_counts_shifts_by_brute_force():
    # S(k) by enumerating the shifts of coordinate sum d, then the
    # convolution with C(N - k + n, n), for every order of the sweep
    for n in (1, 2, 3):
        for d in range(-n - 3, 3):
            top = 5 if n < 3 else 3
            box = top + abs(d)
            counts = [0] * (top + 1)
            for s in itertools.product(range(-top, box + 1), repeat=n + 1):
                k = -sum(v for v in s if v < 0)
                if sum(s) == d and k <= top:
                    counts[k] += 1
            want = [sum(math.comb(order - k + n, n) * counts[k] for k in range(order + 1))
                    for order in range(top + 1)]
            assert closed_form_dimensions(n, d, top) == want, (n, d)
            assert closed_form_dimension(n, d, top) == want[top]


def test_closed_form_sweep_makes_linearly_many_binomials(monkeypatch):
    # S(k) takes at most 3n binomials per k, and the n + 1 running sums
    # over k take none
    calls = []

    def counted(m, j):
        calls.append((m, j))
        return math.comb(m, j)

    monkeypatch.setattr(growth, "comb", counted)
    for n in (1, 2, 3):
        for d in (-n - 3, -1, 0, 4):
            for top in (0, 1, 7, 200):
                calls.clear()
                closed_form_dimensions(n, d, top)
                assert len(calls) <= 3 * n * (top + 1) + 2, (n, d, top, len(calls))


@pytest.mark.parametrize("n, d, top", [(1, 0, 4000), (2, -3, 1500), (3, 2, 500)])
def test_closed_form_sweep_matches_dimensions_at_large_top(n, d, top):
    assert closed_form_dimensions(n, d, top) == list(do_dimensions(n, 0, d, top))


def test_verify_growth_reports_first_closed_form_mismatch(monkeypatch):
    true_forms = closed_form_dimensions
    monkeypatch.setattr(growth, "closed_form_dimensions", lambda n, d, top: [
        dim + (order >= 3) for order, dim in enumerate(true_forms(n, d, top))])
    report = verify_growth(2, 0, 1, 4)
    assert report.verdict is False
    assert report.first_failure == 3


def test_binomial_value_is_the_factor_at_integers():
    for n in range(1, 6):
        for shift in range(-8, 9):
            factor = _binomial_factor(n, shift)
            for order in range(13):
                value = chi_line(n, order + shift)
                assert type(value) is int
                assert value == factor.evaluate(order), (n, shift, order)


def test_integer_coefficients_are_the_binomial_product():
    for n in range(1, 6):
        for d in range(-8, 6):
            product = (_binomial_factor(n, 0) * _binomial_factor(n, d)).coeffs
            for threshold, dim in [(0, 0), (2, 17), (3, -5)]:
                poly = growth_polynomial(n, 1, 1 + d, threshold, dim)
                expected = list(product)
                expected[0] += poly.constant
                assert poly.coeffs == tuple(expected), (n, d, threshold)
                assert all(type(c) is Fraction for c in poly.coeffs)
                assert poly.evaluate(threshold) == dim
