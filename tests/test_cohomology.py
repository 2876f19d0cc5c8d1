import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetspace import cohomology
from jetspace.cohomology import (cech_line_oracle, chi_line, chi_sym_tangent,
                                 h0_line, h0_sym_tangent, hn_line,
                                 line_cohomology)
from jetspace.errors import PreconditionError
from jetspace.laurent import monomials_of_degree
from jetspace.linalg import ExactMatrix


# ---------------------------------------------------------------------------
# line bundles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,k,expected", [
    (1, 0, 1), (1, 3, 4), (1, -1, 0), (2, 2, 6), (3, 1, 4), (2, -5, 0),
])
def test_h0_values(n, k, expected):
    assert h0_line(n, k) == expected


@pytest.mark.parametrize("n,k,expected", [
    (1, -2, 1), (1, -5, 4), (1, 0, 0), (2, -3, 1), (2, -5, 6), (3, -4, 1),
])
def test_hn_values(n, k, expected):
    assert hn_line(n, k) == expected


def test_line_cohomology_container():
    c = line_cohomology(2, -4)
    assert c.dims == (0, 0, 3)
    assert c.chi == 3
    assert line_cohomology(2, 1).dims == (3, 0, 0)


@given(st.integers(1, 3), st.integers(-9, 9))
@settings(max_examples=120, deadline=None)
def test_euler_characteristic_identity(n, k):
    assert chi_line(n, k) == h0_line(n, k) + (-1) ** n * hn_line(n, k)
    assert chi_line(n, k) == math.prod(
        k + i for i in range(1, n + 1)) // math.factorial(n)


@given(st.integers(1, 3), st.integers(-9, 9))
@settings(max_examples=120, deadline=None)
def test_serre_duality(n, k):
    assert h0_line(n, k) == hn_line(n, -k - n - 1)


def test_at_most_one_nonzero_group():
    for n in (1, 2, 3):
        for k in range(-8, 9):
            dims = line_cohomology(n, k).dims
            assert sum(1 for d in dims if d) <= 1
            assert all(d == 0 for d in dims[1:n])   # middle vanishing


# ---------------------------------------------------------------------------
# enumeration cross-check
# ---------------------------------------------------------------------------

@given(st.integers(1, 3), st.integers(-10, 10))
@settings(max_examples=150, deadline=None)
def test_cech_oracle_agrees_with_closed_form(n, k):
    assert cech_line_oracle(n, k, 0) == h0_line(n, k)
    assert cech_line_oracle(n, k, n) == hn_line(n, k)


def test_cech_oracle_bounds(monkeypatch):
    # the work estimate counts h^i monomials of n + 1 entries each: n = k = 10
    # (184756 monomials, 0.4 s) is enumerated; n = 10 at k = 11 and twists
    # of 10^6 are refused before any monomial is built; i must be 0 or n
    assert cech_line_oracle(5, 0, 0) == 1
    assert cech_line_oracle(2, 40, 0) == h0_line(2, 40)

    def refuse(*args):
        raise AssertionError("monomials built")

    monkeypatch.setattr(cohomology.laurent, "monomials_of_degree", refuse)
    for n, k, i in ((10, 11, 0), (10, -22, 10), (2, 10 ** 6, 0), (2, -10 ** 6, 2),
                    (10 ** 6, 10 ** 6, 0)):
        with pytest.raises(PreconditionError, match=(
                rf"the Cech count of h\^{i}\(P\^{n}, O\({k}\)\) has a work estimate")):
            cech_line_oracle(n, k, i)
    with pytest.raises(PreconditionError, match="only covers i = 0 and i = n"):
        cech_line_oracle(2, 40, 1)
    with pytest.raises(PreconditionError, match="projective dimension"):
        cech_line_oracle(0, 0, 0)


# ---------------------------------------------------------------------------
# symmetric powers of the tangent bundle
# ---------------------------------------------------------------------------

def test_sym0_is_structure_sheaf():
    assert h0_sym_tangent(2, 0, 3).h0 == h0_line(2, 3)
    assert chi_sym_tangent(2, 0, -4) == chi_line(2, -4)


@pytest.mark.parametrize("n", [2, 3])
def test_tangent_bundle_sections(n):
    # h^0 of the tangent bundle is the dimension of PGL(n+1)
    assert h0_sym_tangent(n, 1, 0).h0 == n * n + 2 * n


def test_sym_tangent_known_values():
    res = h0_sym_tangent(2, 2, 0)
    assert res.h0 == 27
    assert res.chi == chi_sym_tangent(2, 2, 0) == 27
    assert h0_sym_tangent(2, 1, -1).h0 == 3
    assert h0_sym_tangent(2, 1, -2).h0 == 0
    assert h0_sym_tangent(3, 1, -1).h0 == 4


def test_sym_tangent_chi_equals_h0_in_positive_range():
    # for j >= 0 the higher cohomology vanishes, so chi must match h^0
    for n in (2, 3):
        for k in (0, 1, 2):
            for j in (0, 1, 2):
                assert chi_sym_tangent(n, k, j) == h0_sym_tangent(n, k, j).h0


def _euler_map_corank(n, k, j):
    """Corank of the Euler multiplication matrix, built entry by entry:
    (mu, gamma) -> sum_i (mu + e_i, gamma + e_i), |mu| = k - 1 and gamma of
    degree j + k - 1 over n + 1 symbols, into |nu| = k and degree j + k."""
    def bump(e, i):
        return e[:i] + (e[i] + 1,) + e[i + 1:]

    targets = [(nu, delta) for nu in monomials_of_degree(n + 1, k)
               for delta in monomials_of_degree(n + 1, j + k)]
    sources = [(mu, gamma) for mu in monomials_of_degree(n + 1, k - 1)
               for gamma in monomials_of_degree(n + 1, j + k - 1)]
    row = {t: r for r, t in enumerate(targets)}
    entries = {(row[(bump(mu, i), bump(gamma, i))], col): 1
               for col, (mu, gamma) in enumerate(sources) for i in range(n + 1)}
    return len(targets) - ExactMatrix(len(targets), len(sources), entries).rank()


@pytest.mark.parametrize("n,k_max", [(2, 5), (3, 5), (4, 3)])
def test_sym_tangent_closed_form_matches_matrix_corank(n, k_max):
    # the closed form assumes the Euler map is injective on sections
    for k in range(k_max + 1):
        for j in range(-9, 5):
            assert h0_sym_tangent(n, k, j).h0 == _euler_map_corank(n, k, j), (n, k, j)


def test_work_estimates_decide_before_any_binomial(monkeypatch):
    # n = k = 2*10^5 took 5.2 s, n = 10^7 at k = 1 6.8 s, and n = k = j =
    # 10^5 is past the limit; n = k = 120000 takes 1.6 s, so it is accepted
    # (2-core Xeon, Python 3.11)
    def refuse(*args):
        raise AssertionError("binomial computed")

    monkeypatch.setattr(cohomology, "comb", refuse)
    for call in (lambda: line_cohomology(2 * 10 ** 5, 2 * 10 ** 5),
                 lambda: line_cohomology(10 ** 7, 1),
                 lambda: h0_sym_tangent(10 ** 5, 10 ** 5, 10 ** 5)):
        with pytest.raises(PreconditionError, match=r"has a work estimate of 2\^\d+ or more"):
            call()
    monkeypatch.setattr(cohomology, "comb", lambda *args: 1)
    assert line_cohomology(120000, 120000).dims[0] == 1


def test_each_binomial_is_computed_once(monkeypatch):
    # line_cohomology computes the binomial of h^0 or h^n and reads chi off
    # it; h0_sym_tangent computes each factor of its Euler terms once, and
    # reads chi off h^0 when j + k >= 0, where at j + k = 0 the second term
    # is 0 (h^0(O(-1)) = 0) and costs no binomial
    calls = []

    def counted(m, j):
        calls.append((m, j))
        return math.comb(m, j)

    monkeypatch.setattr(cohomology, "comb", counted)
    for n in (1, 2, 3):
        for k in range(-8, 9):
            calls.clear()
            line_cohomology(n, k)
            assert len(calls) == (1 if k >= 0 or k <= -n - 1 else 0), (n, k)
    for n in (2, 3):
        for k in range(4):
            for j in range(-8, 4):
                calls.clear()
                res = h0_sym_tangent(n, k, j)
                assert len(calls) == (2 if k == 0 or j + k == 0 else 4), (n, k, j)
                assert res.h0 == cohomology._h0_sym_tangent_row(n, j, k, k)[0], (n, k, j)
                assert res.chi == chi_sym_tangent(n, k, j), (n, k, j)


def test_sym_tangent_rejects_projective_line():
    with pytest.raises(PreconditionError):
        h0_sym_tangent(1, 2, 0)


def test_sym_tangent_line_reduction():
    # on the projective line S^k T = O(2k), which the caller applies directly
    assert h0_line(1, 2 * 3 + 1) == 8
    assert chi_sym_tangent(1, 3, 1) == chi_line(1, 7)
