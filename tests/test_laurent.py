import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetspace.laurent import (LaurentPoly, add_terms, format_terms,
                             monomials_of_degree, parse_terms)

exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda d: LaurentPoly(2, d))


def test_zero_and_one():
    z = LaurentPoly.zero(3)
    o = LaurentPoly.one(3)
    assert z.is_zero()
    assert not o.is_zero()
    assert o.coefficient((0, 0, 0)) == 1
    assert (z + o) == o
    assert (o * z).is_zero()


def test_monomial_and_variable():
    x0 = LaurentPoly.variable(0, 2)
    x1 = LaurentPoly.variable(1, 2)
    p = x0 * x0 * x1
    assert p == LaurentPoly.monomial((2, 1))
    assert p.coefficient((2, 1)) == 1
    assert p.coefficient((1, 1)) == 0


def test_negative_exponents_multiply():
    inv = LaurentPoly.monomial((-1,))
    x = LaurentPoly.variable(0, 1)
    assert (inv * x) == LaurentPoly.one(1)
    assert inv.has_negative_exponent()
    assert not x.has_negative_exponent()


def test_pow():
    p = LaurentPoly.variable(0, 2) + LaurentPoly.one(2)
    q = p ** 4
    # binomial coefficients of (x + 1)^4
    assert q.coefficient((2, 0)) == 6
    assert q.coefficient((0, 0)) == 1
    assert p ** 0 == LaurentPoly.one(2)


@pytest.mark.parametrize("k", range(7))
def test_pow_equals_repeated_products(k):
    p = LaurentPoly(2, {(1, -1): Fraction(2, 3), (0, 2): -1, (0, 0): 1})
    want = LaurentPoly.one(2)
    for _ in range(k):
        want = want * p
    assert p ** k == want


def test_negative_pow_is_refused():
    with pytest.raises(ValueError, match="negative powers are not defined"):
        LaurentPoly.variable(0, 2) ** -1


def test_evaluate_exact():
    p = LaurentPoly(2, {(1, 0): Fraction(1, 2), (0, -1): Fraction(3)})
    val = p.evaluate((Fraction(4), Fraction(1, 3)))
    assert val == Fraction(2) + Fraction(9)


def test_evaluate_pole_rejected():
    p = LaurentPoly.monomial((-2,))
    with pytest.raises(ZeroDivisionError):
        p.evaluate((Fraction(0),))


def test_homogeneous_degree():
    p = LaurentPoly(2, {(2, 1): Fraction(1), (0, 3): Fraction(-5)})
    assert p.homogeneous_degree() == 3
    q = p + LaurentPoly.one(2)
    assert q.homogeneous_degree() is None
    assert LaurentPoly.zero(2).homogeneous_degree() is None


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) == (q + p)
    assert (p * q) == (q * p)
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_homomorphism(p, q):
    point = (Fraction(3, 2), Fraction(-2))
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@pytest.mark.parametrize("nvars,degree", [(1, 0), (1, 5), (2, 3), (3, 4), (4, 2)])
def test_monomials_of_degree_count(nvars, degree):
    mons = monomials_of_degree(nvars, degree)
    assert len(mons) == math.comb(degree + nvars - 1, nvars - 1)
    assert len(set(mons)) == len(mons)
    assert all(sum(e) == degree and min(e) >= 0 for e in mons)


def test_monomials_of_degree_edges():
    assert monomials_of_degree(2, 0) == [(0, 0)]
    assert monomials_of_degree(2, -1) == []
    assert monomials_of_degree(0, 0) == [()]
    assert monomials_of_degree(0, 2) == []


@pytest.mark.parametrize("nvars", range(5))
def test_monomials_of_degree_is_the_sorted_filtered_box(nvars):
    for total in range(-2, 9):
        for cap in range(6):
            box = itertools.product(range(cap + 1), repeat=nvars)
            want = sorted(e for e in box if sum(e) == total)
            assert monomials_of_degree(nvars, total, cap) == want, (nvars, total, cap)
        if total >= 0:  # the default cap is the degree itself
            box = itertools.product(range(total + 1), repeat=nvars)
            assert monomials_of_degree(nvars, total) == [e for e in box if sum(e) == total]


def test_monomials_of_degree_has_no_recursion_limit():
    # one slot at a time, so no call depth grows with nvars
    assert monomials_of_degree(2000, 0) == [(0,) * 2000]
    assert monomials_of_degree(2000, 1, 0) == []


def test_monomials_of_degree_returns_a_fresh_list():
    # a caller's edits must not reach the next caller
    first = monomials_of_degree(3, 2)
    want = list(first)
    first.append((9, 9, 9))
    first.sort(reverse=True)
    assert monomials_of_degree(3, 2) == want
    assert monomials_of_degree(3, 2) is not monomials_of_degree(3, 2)


# ---------------------------------------------------------------------------
# the accumulator and the term codec
# ---------------------------------------------------------------------------

def test_add_terms_folds_and_drops_zero_sums():
    out = {"a": Fraction(1)}
    assert add_terms(out, [("b", 2), ("a", -1), ("b", 1)]) is out
    assert out == {"b": 3}
    assert add_terms({}, [("a", 1), ("a", -1), ("a", 5)]) == {"a": 5}


def test_constructor_drops_zero_coefficients_after_checking_them():
    assert LaurentPoly(2, [((1, 0), 0), ((0, 1), 2), ((0, 1), -2)]).is_zero()
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1,): 0})


def test_format_terms_blocks_sort_and_zero():
    terms = {(1, 0, 0, 2): Fraction(-3, 2), (0, 0, 1, 0): Fraction(1)}
    assert format_terms(terms, ("x", "dx"), 2) == (
        "1 * x^(0,0) dx^(1,0) + -3/2 * x^(1,0) dx^(0,2)")
    assert format_terms(terms, ("x", "dx"), 2, key=lambda e: e[2:]) == (
        "-3/2 * x^(1,0) dx^(0,2) + 1 * x^(0,0) dx^(1,0)")
    assert format_terms({}, ("x", "s"), 3) == "0 * x^(0,0,0) s^(0,0,0)"
    assert format_terms({}, ("x",), 1) == "0 * x^(0)"


def test_parse_terms_inverts_format_terms():
    terms = {(2, -1, 0, 3): Fraction(5, 7), (0, 0, 1, 1): Fraction(-2)}
    for labels in [("x", "d"), ("x", "dx"), ("x", "s")]:
        width, pairs = parse_terms(format_terms(terms, labels, 2), labels)
        assert width == 2 and dict(pairs) == terms


def test_parse_terms_keeps_text_order_and_repeats():
    width, pairs = parse_terms(" 1*x^( 2 , -1 ) + -1/2 * x^(0,3) + 1 * x^(2,-1) +", ("x",))
    assert width == 2
    assert pairs == [((2, -1), 1), ((0, 3), Fraction(-1, 2)), ((2, -1), 1)]
    assert LaurentPoly(width, pairs) == LaurentPoly(2, {(2, -1): 2, (0, 3): Fraction(-1, 2)})


@pytest.mark.parametrize("text", [
    "", " + ", "x^(1)", "1 * y^(1)", "1 * x^(1) d^(0)", "1/0 * x^(1)",
    "1 * x^()", "1 * x^(1,)", "1 * x^(--1)", "1 * x^(1) + 1 * x^(1,2)",
])
def test_parse_terms_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_terms(text, ("x",))


def test_parse_terms_rejects_unequal_blocks():
    with pytest.raises(ValueError):
        parse_terms("1 * x^(1,0) d^(1)", ("x", "d"))
