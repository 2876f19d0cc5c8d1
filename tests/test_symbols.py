import itertools
import random
from fractions import Fraction

import pytest

from jetspace.errors import InconsistencyError, PreconditionError
from jetspace.laurent import LaurentPoly, format_terms, monomials_of_degree
from jetspace.symbols import (SymbolMatrix, _bisect_zero, _integer_root, classify,
                              elliptic_algebraic, elliptic_real, symbol_of,
                              torus_operator_check)
from jetspace.weyl import WeylElement


def d(i, m=2):
    return WeylElement.d(i, m)


def x(i, m=2):
    return WeylElement.x(i, m)


def xi_poly(m, exps):
    return LaurentPoly(2 * m, {tuple([0] * m + list(e)): Fraction(c)
                               for e, c in exps.items()})


# ---------------------------------------------------------------------------
# symbol extraction
# ---------------------------------------------------------------------------

def test_symbol_of_laplacian():
    lap = d(0) * d(0) + d(1) * d(1)
    sym = symbol_of(lap, 2)
    assert sym.size == 1
    assert sym.entries[0][0] == xi_poly(2, {(2, 0): 1, (0, 2): 1})


def test_symbol_drops_lower_order():
    op = d(0) * d(0) + x(0) * d(0) + WeylElement.one(2)
    sym = symbol_of(op, 2)
    assert sym.entries[0][0] == xi_poly(2, {(2, 0): 1})


def test_symbol_keeps_variable_coefficients():
    op = x(0) * d(1)
    sym = symbol_of(op, 1)
    assert sym.entries[0][0] == LaurentPoly(
        4, {(1, 0, 0, 1): Fraction(1)})


def test_symbol_order_mismatch_rejected():
    with pytest.raises(PreconditionError):
        symbol_of(d(0) * d(0), 1)


def test_symbol_of_matrix_and_det():
    eye_like = [[d(0), WeylElement.zero(2)], [WeylElement.zero(2), d(1)]]
    sym = symbol_of(eye_like, 1)
    assert sym.size == 2
    det = sym.xi_det()
    assert det == LaurentPoly(2, {(1, 1): Fraction(1)})


def test_symbol_multiplicative_for_principal_parts():
    a = d(0) * d(0)
    b = d(0) * d(1)
    sym_ab = symbol_of(a * b, 4)
    prod = symbol_of(a, 2) @ symbol_of(b, 2)
    assert sym_ab.entries[0][0] == prod.entries[0][0]


def test_torus_operator_check():
    assert torus_operator_check(d(0) * d(1))
    assert not torus_operator_check(x(0) * d(1))
    assert torus_operator_check([[d(0), WeylElement.one(2)],
                                 [WeylElement.zero(2), d(1)]])


def test_format_symbol_poly():
    p = xi_poly(2, {(2, 0): 1, (0, 2): 1})
    assert format_terms(p.terms, ("x", "s"), 2) == (
        "1 * x^(0,0) s^(0,2) + 1 * x^(0,0) s^(2,0)")


# ---------------------------------------------------------------------------
# algebraic ellipticity (closed field): never elliptic in several variables
# ---------------------------------------------------------------------------

def test_algebraic_single_variable_is_elliptic():
    op = WeylElement.d(0, 1) * WeylElement.d(0, 1)
    res = elliptic_algebraic(symbol_of(op, 2))
    assert res.elliptic


def test_algebraic_order_zero_is_elliptic():
    res = elliptic_algebraic(symbol_of(WeylElement.one(2), 0))
    assert res.elliptic


def test_algebraic_monomial_symbol_has_unit_vector_witness():
    res = elliptic_algebraic(symbol_of(d(0) * d(1), 2))
    assert not res.elliptic
    w = res.witness
    assert w is not None and w.is_rational()
    values = [Fraction(c) for c in w.components]
    assert values.count(0) >= 1 and any(values)


def test_algebraic_laplacian_witness_is_imaginary():
    res = elliptic_algebraic(symbol_of(d(0) * d(0) + d(1) * d(1), 2))
    assert not res.elliptic
    w = res.witness
    assert w is not None and not w.is_rational()
    assert w.defining_poly == (1, 0, 1)       # t^2 + 1
    assert not w.real


def test_algebraic_difference_of_squares_witness():
    res = elliptic_algebraic(symbol_of(d(0) * d(0) - d(1) * d(1), 2))
    assert not res.elliptic
    w = res.witness
    assert w is not None and w.is_rational()


def test_algebraic_zero_symbol():
    res = elliptic_algebraic(symbol_of(WeylElement.zero(2), 1))
    assert not res.elliptic
    assert res.witness is not None


# ---------------------------------------------------------------------------
# real-points ellipticity
# ---------------------------------------------------------------------------

def test_real_laplacian_elliptic():
    res = elliptic_real(symbol_of(d(0) * d(0) + d(1) * d(1), 2))
    assert res.verdict == "true"


def test_real_negative_definite_elliptic():
    op = -1 * (d(0) * d(0)) - (d(1) * d(1))
    res = elliptic_real(symbol_of(op, 2))
    assert res.verdict == "true"


def test_real_wave_operator_not_elliptic():
    res = elliptic_real(symbol_of(d(0) * d(0) - d(1) * d(1), 2))
    assert res.verdict == "false"
    w = res.witness
    assert w is not None
    vals = [Fraction(c) for c in w.components]
    assert any(vals)
    # exact zero of the symbol
    sym = symbol_of(d(0) * d(0) - d(1) * d(1), 2)
    assert sym.entries[0][0].evaluate(
        (Fraction(0), Fraction(0), *vals)) == 0


def test_real_mixed_monomial_not_elliptic():
    res = elliptic_real(symbol_of(d(0) * d(1), 2))
    assert res.verdict == "false"
    assert res.witness is not None


def test_real_quartic_sum_unknown_or_true():
    # x^4 + y^4 type symbols have no real zeros; grid search cannot certify
    op = d(0) * d(0) * d(0) * d(0) + d(1) * d(1) * d(1) * d(1)
    res = elliptic_real(symbol_of(op, 4))
    assert res.verdict in ("true", "unknown")


def test_real_quartic_with_rational_zero():
    op = d(0) * d(0) * d(0) * d(0) - d(1) * d(1) * d(1) * d(1)
    res = elliptic_real(symbol_of(op, 4))
    assert res.verdict == "false"
    assert res.witness is not None


def test_real_quartic_irrational_zero_reports_sign_change():
    # xi0^4 - 2 xi1^4 vanishes only at irrational directions
    op = d(0) * d(0) * d(0) * d(0) - 2 * (d(1) * d(1) * d(1) * d(1))
    sym = symbol_of(op, 4)
    res = elliptic_real(sym)
    assert res.verdict == "false"
    if res.witness is None:
        lo, hi = res.sign_points
        f = sym.entries[0][0]
        vlo = f.evaluate((Fraction(0), Fraction(0), *map(Fraction, lo)))
        vhi = f.evaluate((Fraction(0), Fraction(0), *map(Fraction, hi)))
        assert vlo * vhi < 0


def reference_grid_search(f, m):
    """The dyadic face grid in Fractions: the first grid zero, else the first
    sign-changing neighbour pair (negative end first), else None."""
    ticks = [Fraction(k, 4) for k in range(-4, 5)]
    values = {}
    for axis in range(m):
        for face in (Fraction(1), Fraction(-1)):
            for point in itertools.product(
                    *([face] if i == axis else ticks for i in range(m))):
                value = f.evaluate(point)
                if value == 0:
                    return "zero", point
                values.setdefault(point, value)
    for point, value in values.items():
        for axis in range(m):
            if abs(point[axis]) == 1:
                continue
            nb = point[:axis] + (point[axis] + Fraction(1, 4),) + point[axis + 1:]
            if nb in values and (value < 0) != (values[nb] < 0):
                return "pair", (point, nb) if value < 0 else (nb, point)
    return None, None


def test_integer_grid_matches_fraction_grid():
    rng = random.Random(9)
    for trial in range(30):
        m = 2 + trial % 2
        deg = (3, 4, 6)[trial % 3]
        mons = monomials_of_degree(m, deg)
        terms = {e: Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                 for e in rng.sample(mons, min(len(mons), 4))}
        if trial % 4 == 0:  # even pure powers dominate: often no sign change
            terms.update({e: Fraction(rng.randint(8, 12), rng.randint(1, 3))
                          for e in mons if deg in e})
        terms = {e: c for e, c in terms.items() if c} or {mons[0]: Fraction(1)}
        f = LaurentPoly(m, terms)
        res = elliptic_real(SymbolMatrix(m=m, order=deg, entries=((xi_poly(m, terms),),)))
        kind, found = reference_grid_search(f, m)
        if kind == "zero":
            assert (res.verdict, res.witness.components) == ("false", found)
        elif kind == "pair":
            refined = _bisect_zero(f, found)
            got = res.witness if res.witness is not None else res.sign_points
            assert (res.verdict, got) == ("false", refined)
        else:
            assert res.verdict == "unknown"
            assert res.reason.endswith("resolution 1/4 on the unit sphere")


def test_grid_search_needs_a_homogeneous_polynomial_determinant():
    mixed = SymbolMatrix(m=2, order=3,
                         entries=((xi_poly(2, {(3, 0): 1, (0, 1): 1}),),))
    with pytest.raises(InconsistencyError, match="not homogeneous"):
        elliptic_real(mixed)
    laurent = SymbolMatrix(m=2, order=3,
                           entries=((xi_poly(2, {(4, -1): 1, (0, 3): 1}),),))
    with pytest.raises(PreconditionError, match="polynomial determinant"):
        elliptic_real(laurent)


def test_grid_search_on_a_high_degree_determinant():
    # the tick powers are tabulated only for the exponents that occur, so a
    # degree of 10^5 costs nine powers per exponent, not a table up to it
    order = 10 ** 5
    res = elliptic_real(symbol_of(WeylElement.monomial((0, 0), (order, 0)), order))
    assert (res.verdict, res.witness.components) == ("false", (Fraction(0), Fraction(1)))
    op = WeylElement.monomial((0, 0), (order, 0)) + WeylElement.monomial((0, 0), (0, order))
    res = elliptic_real(symbol_of(op, order))
    assert (res.verdict, res.witness, res.sign_points) == ("unknown", None, None)


def test_real_single_variable_true():
    res = elliptic_real(symbol_of(WeylElement.d(0, 1), 1))
    assert res.verdict == "true"


def test_degenerate_quadratic_detected():
    # (xi0 + xi1)^2 vanishes on a line
    op = (d(0) + d(1)) * (d(0) + d(1))
    res = elliptic_real(symbol_of(op, 2))
    assert res.verdict == "false"
    w = res.witness
    vals = [Fraction(c) for c in w.components]
    assert vals[0] + vals[1] == 0 and any(vals)


# ---------------------------------------------------------------------------
# combined classification
# ---------------------------------------------------------------------------

def test_classify_prefers_real_witness():
    verdict = classify(symbol_of(d(0) * d(0) - d(1) * d(1), 2))
    assert not verdict.algebraic
    assert verdict.real == "false"
    assert verdict.witness is not None
    assert verdict.witness.real


def test_classify_laplacian():
    verdict = classify(symbol_of(d(0) * d(0) + d(1) * d(1), 2))
    assert not verdict.algebraic
    assert verdict.real == "true"


# ---------------------------------------------------------------------------
# exact integer roots
# ---------------------------------------------------------------------------

def test_integer_root_beyond_float_precision():
    r = 10 ** 17 + 3
    assert _integer_root(r * r, 2) == r
    assert _integer_root(r * r + 1, 2) is None
    assert _integer_root(r ** 3, 3) == r
    assert _integer_root(r ** 3 - 1, 3) is None


def test_integer_root_beyond_float_range():
    assert _integer_root(10 ** 400, 2) == 10 ** 200
    assert _integer_root(10 ** 400, 5) == 10 ** 80
    assert _integer_root(10 ** 400, 3) is None
    assert _integer_root(10 ** 400 + 1, 2) is None


def test_integer_root_small_values():
    assert _integer_root(12345, 1) == 12345
    for p in range(2, 7):
        assert _integer_root(0, p) == 0
        assert _integer_root(1, p) == 1
        for r in range(2, 40):
            assert _integer_root(r ** p, p) == r
            assert _integer_root(r ** p + 1, p) is None


# ---------------------------------------------------------------------------
# quadratic forms against Sylvester's criterion
# ---------------------------------------------------------------------------

def _det(M):
    """Leibniz expansion: fine for the 4 x 4 matrices used here."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(M))):
        term = Fraction(-1) ** sum(i > j for i, j in itertools.combinations(perm, 2))
        for i, j in enumerate(perm):
            term *= M[i][j]
        total += term
    return total


def test_quadratic_verdicts_follow_sylvesters_criterion():
    rng = random.Random(28)
    definite_seen = indefinite_seen = 0
    for _ in range(400):
        m = rng.choice((2, 3, 4))
        G = [[Fraction(0)] * m for _ in range(m)]
        terms = {}
        for u in range(m):
            for v in range(u, m):
                c = Fraction(rng.choice((0, 0, 1, -1, 2, -3, 4)), rng.choice((1, 1, 2, 3)))
                if u == v and rng.random() < 0.7:
                    c = abs(c) + 1  # lean towards definite forms
                e = [0] * m
                e[u] += 1
                e[v] += 1
                terms[tuple(e)] = c
                G[u][v] += c if u == v else c / 2
                G[v][u] += 0 if u == v else c / 2
        minors = [_det([row[:k] for row in G[:k]]) for k in range(1, m + 1)]
        definite = (all(d > 0 for d in minors)
                    or all((-1) ** k * d > 0 for k, d in enumerate(minors, 1)))
        f = LaurentPoly(m, terms)
        res = elliptic_real(SymbolMatrix(m=m, order=2, entries=((xi_poly(m, terms),),)))
        assert (res.verdict == "true") == definite, (terms, res)
        if definite:
            definite_seen += 1
            continue
        indefinite_seen += 1
        assert res.verdict == "false"
        if res.witness is not None:
            assert any(res.witness.components)
            assert f.evaluate(res.witness.components) == 0
        else:
            lo, hi = res.sign_points
            assert f.evaluate(lo) * f.evaluate(hi) < 0
    assert definite_seen > 50 and indefinite_seen > 50
