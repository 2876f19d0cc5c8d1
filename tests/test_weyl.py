import random
from fractions import Fraction

import pytest

from conftest import random_graded_operator
from jetspace.laurent import LaurentPoly
from jetspace.weyl import WeylElement, euler_operator, falling


def test_falling_factorial_values():
    assert falling(5, 0) == 1
    assert falling(5, 2) == 20
    assert falling(2, 3) == 0          # hits zero inside the product
    assert falling(-1, 2) == 2         # (-1)(-2)
    assert falling(-3, 1) == -3


def test_canonical_commutation():
    x = WeylElement.x(0, 1)
    d = WeylElement.d(0, 1)
    assert d * x - x * d == WeylElement.one(1)


def test_normal_ordering_example():
    # d^2 x^2 = x^2 d^2 + 4 x d + 2
    x = WeylElement.x(0, 1)
    d = WeylElement.d(0, 1)
    lhs = (d * d) * (x * x)
    expected = (x * x * d * d) + 4 * (x * d) + 2 * WeylElement.one(1)
    assert lhs == expected


def test_scalar_and_integer_coefficients():
    d = WeylElement.d(0, 2)
    half = Fraction(1, 2) * d
    assert half + half == d
    assert (2 * d - d) == d


def test_order_and_degree():
    op = WeylElement.monomial((3, 0), (1, 0)) + WeylElement.monomial(
        (0, 0), (0, 2))
    assert op.order() == 2
    assert op.degree() is None          # mixes degrees 2 and -2
    assert WeylElement.zero(2).order() is None
    assert WeylElement.one(2).order() == 0
    assert WeylElement.one(2).degree() == 0


def test_graded_predicate():
    op = WeylElement.monomial((2, 1), (1, 0))
    assert op.is_graded_of_degree(2)
    assert not op.is_graded_of_degree(1)
    assert WeylElement.zero(2).is_graded_of_degree(5)


def test_order_part():
    x = WeylElement.x(0, 1)
    d = WeylElement.d(0, 1)
    op = x * d * d + x * d + WeylElement.one(1)
    top = op.order_part(2)
    assert top == WeylElement.monomial((1,), (2,))
    assert op.order_part(0) == WeylElement.one(1)


def test_apply_polynomial_basics():
    d = WeylElement.d(0, 1)
    p = LaurentPoly(1, {(3,): Fraction(1), (0,): Fraction(5)})
    assert d.apply(p) == LaurentPoly(1, {(2,): Fraction(3)})


def test_apply_negative_exponent_sign():
    # (x d) x^-1 = -x^-1
    xd = WeylElement.x(0, 1) * WeylElement.d(0, 1)
    inv = LaurentPoly.monomial((-1,))
    assert xd.apply(inv) == -inv


def test_euler_operator_scales_by_degree():
    e = euler_operator(2)
    for gamma in [(3, 0), (1, 2), (-1, 4), (0, -2)]:
        mono = LaurentPoly.monomial(gamma)
        assert e.apply(mono) == sum(gamma) * mono


def test_derivative_kills_constants_not_inverses():
    d = WeylElement.d(0, 1)
    assert d.apply(LaurentPoly.one(1)).is_zero()
    assert d.apply(LaurentPoly.monomial((-1,))) == LaurentPoly(
        1, {(-2,): Fraction(-1)})


def test_composition_matches_iterated_application():
    rng = random.Random(20260823)
    box = [(g0, g1) for g0 in range(-3, 4) for g1 in range(-3, 4)]
    for _ in range(40):
        d1 = random_graded_operator(rng, 2, rng.randint(-1, 2), 2)
        d2 = random_graded_operator(rng, 2, rng.randint(-1, 2), 2)
        prod = d1 * d2
        for gamma in rng.sample(box, 8):
            mono = LaurentPoly.monomial(gamma)
            assert prod.apply(mono) == d1.apply(d2.apply(mono))


def test_composition_orders_add_for_these_examples():
    x = WeylElement.x(0, 1)
    d = WeylElement.d(0, 1)
    assert ((x * d) * (x * d)).order() == 2
    assert (d * x).order() == 1


def test_power():
    d = WeylElement.d(0, 1)
    assert d ** 3 == WeylElement.monomial((0,), (3,))
    assert d ** 0 == WeylElement.one(1)


def test_operators_and_polynomials_do_not_mix():
    # same term dict, different rings: never equal, never added or multiplied
    terms = {((1,), (0,)): Fraction(1)}
    op, poly = WeylElement._raw(1, dict(terms)), LaurentPoly._raw(1, dict(terms))
    assert op != poly and poly != op
    for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            combine(op, poly)
        with pytest.raises(TypeError):
            combine(poly, op)


def test_serialize_parse_roundtrip():
    rng = random.Random(5)
    for _ in range(25):
        op = random_graded_operator(rng, 3, rng.randint(-1, 2), 3)
        text = op.serialize()
        assert WeylElement.parse(text) == op


def test_serialize_is_sorted_and_stable():
    op = WeylElement.monomial((0, 1), (1, 0)) + WeylElement.monomial(
        (1, 0), (0, 1)) + 2 * WeylElement.one(2)
    text = op.serialize()
    assert text == ("2 * x^(0,0) d^(0,0) + 1 * x^(1,0) d^(0,1)"
                    " + 1 * x^(0,1) d^(1,0)")
    assert WeylElement.parse(text).serialize() == text


def test_serialize_zero():
    assert WeylElement.zero(2).serialize() == "0 * x^(0,0) d^(0,0)"
    assert WeylElement.parse("0 * x^(0,0) d^(0,0)").is_zero()


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        WeylElement.parse("totally not an operator")
    with pytest.raises(ValueError):
        WeylElement.parse("1 * x^(1,0) d^(1)")   # mismatched arity


@pytest.mark.parametrize("text", [
    "1 * x^(-1,0) d^(0,0)", "1 * x^(0,-1) d^(0,0)", "1 * x^(0,0) d^(0,-1)",
    "0 * x^(0,-1) d^(0,0)", "1 * x^(0,-1) d^(0,0) + -1 * x^(0,-1) d^(0,0)",
])
def test_parse_rejects_negative_exponents_in_every_position(text):
    with pytest.raises(ValueError, match="nonnegative"):
        WeylElement.parse(text)


def test_negative_exponent_rejected_in_constructor():
    with pytest.raises(ValueError):
        WeylElement(1, {((-1,), (0,)): Fraction(1)})
