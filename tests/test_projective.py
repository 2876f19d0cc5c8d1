import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import random_graded_operator
from jetspace.cohomology import h0_line, hn_line
from jetspace.errors import InconsistencyError, PreconditionError
from jetspace.growth import closed_form_dimension
from jetspace import projective
from jetspace.laurent import LaurentPoly
from jetspace.projective import (BOX_GROWTH_LIMIT, BOX_GROWTH_STEP,
                                 BlockOperator, action_matrix, block_operator,
                                 candidate_count, candidate_monomials,
                                 chart_test_monomials, do_dimension,
                                 euler_relation, global_do_dimension,
                                 h0_basis, hn_basis, induced_cohomology_map,
                                 iter_chart_test_monomials,
                                 negative_twist_existence, shift_orbits,
                                 strictness_check)
from jetspace.weyl import WeylElement, euler_operator


# ---------------------------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------------------------

def test_candidate_monomials_base_case():
    cands = candidate_monomials(1, 0, 0, 1)
    keys = {(alpha, beta) for alpha, beta in cands}
    assert keys == {
        ((0, 0), (0, 0)),
        ((1, 0), (1, 0)), ((1, 0), (0, 1)),
        ((0, 1), (1, 0)), ((0, 1), (0, 1)),
    }
    assert len(cands) == candidate_count(1, 0, 0, 1) == 5


def test_candidate_count_formula():
    for n in (1, 2):
        for a in (-1, 0, 2):
            for b in (-1, 0, 1):
                for order in range(4):
                    expected = sum(
                        math.comb(k + n, n) * math.comb(k + b - a + n, n)
                        for k in range(max(0, a - b), order + 1))
                    got = len(candidate_monomials(n, a, b, order))
                    assert got == expected == candidate_count(n, a, b, order)


def test_candidates_are_graded():
    for alpha, beta in candidate_monomials(2, 1, 3, 2):
        assert sum(alpha) - sum(beta) == 2          # b - a
        assert min(alpha) >= 0 and min(beta) >= 0
        assert sum(beta) <= 2


def test_chart_test_monomials():
    mons = chart_test_monomials(1, 1, 2)
    assert all(sum(g) == 1 for g in mons)
    assert all(sum(1 for v in g if v < 0) <= 1 for g in mons)
    assert (1, 0) in mons and (-1, 2) in mons
    assert mons == sorted(mons)


def reference_test_monomials(n, a, box):
    """Every exponent in [-box, box]^(n+1) of degree a with at most one
    negative entry, sorted: the chart test set by brute force."""
    return sorted(g for g in itertools.product(range(-box, box + 1), repeat=n + 1)
                  if sum(g) == a and sum(1 for v in g if v < 0) <= 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chart_test_stream_matches_reference_enumeration(n):
    for a in range(-4, 5):
        for box in range(6 if n < 3 else 4):
            want = reference_test_monomials(n, a, box)
            assert list(iter_chart_test_monomials(n, a, box)) == want, (n, a, box)
            assert chart_test_monomials(n, a, box) == want


def test_negative_box_rejected_by_every_entry_point():
    # the stream checks its box when called, before anything is iterated
    with pytest.raises(PreconditionError, match="box must be nonnegative"):
        iter_chart_test_monomials(2, 0, -1)
    with pytest.raises(PreconditionError, match="box must be nonnegative"):
        chart_test_monomials(2, 0, -1)
    with pytest.raises(PreconditionError, match="box must be nonnegative"):
        global_do_dimension(2, 0, 1, 2, initial_box=-2)


# ---------------------------------------------------------------------------
# dimension of global operator spaces
# ---------------------------------------------------------------------------

def test_known_small_dimensions():
    assert do_dimension(1, 0, 0, 0) == 1
    assert do_dimension(1, 0, 0, 1) == 4
    assert do_dimension(2, 0, 0, 1) == 9
    assert do_dimension(1, 0, 1, 0) == 2
    assert do_dimension(1, 0, -1, 0) == 0


def test_order_zero_matches_h0():
    for n in (1, 2):
        for a in (-2, 0, 1):
            for b in (-2, 0, 1, 3):
                assert do_dimension(n, a, b, 0) == h0_line(n, b - a)


def test_dimension_table_projective_line():
    # a = b = 0: dim = (N+1)^2
    assert [do_dimension(1, 0, 0, k) for k in range(5)] == [1, 4, 9, 16, 25]


def test_dimension_table_projective_plane():
    assert [do_dimension(2, 0, 0, k) for k in range(3)] == [1, 9, 36]
    assert [do_dimension(2, 0, 1, k) for k in range(3)] == [3, 18, 60]
    assert [do_dimension(2, 0, -1, k) for k in range(3)] == [0, 3, 18]
    assert [do_dimension(2, 0, 2, k) for k in range(3)] == [6, 30, 90]


def test_twist_invariance():
    # simultaneous twist (a, b) -> (a+c, b+c) preserves the dimension
    for c in (-2, 1, 3):
        assert do_dimension(1, 0 + c, 0 + c, 2) == do_dimension(1, 0, 0, 2)
        assert do_dimension(2, 0 + c, 1 + c, 1) == do_dimension(2, 0, 1, 1)


def test_dimensions_nondecreasing_in_order():
    dims = [do_dimension(2, 0, -1, k) for k in range(4)]
    assert dims == sorted(dims)


def test_global_do_dimension_reports_stable_box():
    space = global_do_dimension(1, 0, 0, 1)
    assert space.dim == 4
    ranks = [r for _, r in space.rank_history]
    assert ranks[-1] == space.dim == euler_bound(1, 0, 0, 1)
    assert all(r1 <= r2 for r1, r2 in zip(ranks, ranks[1:]))


# ---------------------------------------------------------------------------
# shift-block kernel against the full action matrix and the closed form
# ---------------------------------------------------------------------------

def euler_bound(n, a, b, order):
    """Sum over shift orbits of count * C(N - |m| + n, n): the candidate
    count minus the independent Euler relations, an upper bound on dim."""
    return sum(count * math.comb(order - sum(m) + n, n)
               for m, count in shift_orbits(n, a, b, order).items())


def reference_rank_history(n, a, b, order, box0=None):
    """An independent box loop on the whole Fraction action matrix: accept a
    rank once it is unchanged across three boxes.  Returns (dim, box,
    history); dim and box are None when the rank does not stabilize within
    the growth limit."""
    cands = candidate_monomials(n, a, b, order)
    if box0 is None:
        box0 = order + abs(a) + abs(b) + 2
    history = []
    for box in range(box0, box0 + BOX_GROWTH_LIMIT + 1, BOX_GROWTH_STEP):
        m = action_matrix(cands, chart_test_monomials(n, a, box))
        history.append((box, m.rank()))
        if len(history) >= 3 and len({r for _, r in history[-3:]}) == 1:
            return history[-3][1], history[-3][0], tuple(history)
    return None, None, tuple(history)


@pytest.mark.parametrize("n, span, max_order", [(1, 3, 4), (2, 2, 2)])
def test_block_kernel_matches_action_matrix(n, span, max_order):
    for a in range(-span, span + 1):
        for b in range(-span, span + 1):
            for order in range(max_order + 1):
                dim, box, history = reference_rank_history(n, a, b, order)
                space = global_do_dimension(n, a, b, order)
                assert (space.dim, space.box) == (dim, box), (n, a, b, order)
                assert history[:len(space.rank_history)] == space.rank_history


def test_block_kernel_matches_action_matrix_from_small_boxes():
    # below the default start the ranks still grow, so the pivots carried
    # from box to box are what the later ranks are built on
    grew = 0
    for n, a, b, order in [(1, 0, 0, 3), (1, 2, -1, 3), (1, -2, 1, 2),
                           (2, 0, 0, 2), (2, 1, -1, 2), (2, -1, 1, 1)]:
        for box0 in (0, 1):
            _, _, history = reference_rank_history(n, a, b, order, box0)
            space = global_do_dimension(n, a, b, order, initial_box=box0)
            assert history[:len(space.rank_history)] == space.rank_history
            assert space.dim == closed_form_dimension(n, b - a, order), \
                (n, a, b, order, box0)
            grew += space.rank_history[0][1] < space.dim
    assert grew >= 6


def test_small_start_boxes_reach_the_true_dimension():
    # no degree -5 chart monomial fits in a box below 5, so from box 0 the
    # rank of (1, -5, -5, 0) reads 0 at boxes 0, 2 and 4 although the
    # identity is a global operator; only the bound tells the box is too small
    assert global_do_dimension(1, -5, -5, 0, initial_box=0).dim == 1
    for n, span, max_order in [(1, 5, 3), (2, 3, 2)]:
        for a in range(-span, span + 1):
            for b in range(-span, span + 1):
                for order in range(max_order + 1):
                    expected = closed_form_dimension(n, b - a, order)
                    for box0 in range(4):
                        space = global_do_dimension(n, a, b, order, initial_box=box0)
                        assert space.dim == expected, (n, a, b, order, box0)


def test_bound_not_reached_within_limit_is_inconsistent(monkeypatch):
    monkeypatch.setattr(projective, "BOX_GROWTH_LIMIT", 2)
    with pytest.raises(InconsistencyError, match="Euler-relation bound 1 "):
        global_do_dimension(1, -5, -5, 0, initial_box=0)


@pytest.mark.parametrize("n, a, b, order", [(3, 0, -30, 1), (1, 0, -40, 1),
                                             (2, 3, 0, 2)])
def test_zero_bound_builds_no_test_set(monkeypatch, n, a, b, order):
    # b - a < -N leaves no candidate, so the bound is 0 at the start box
    def refuse(*args):
        raise AssertionError("test set built for a zero bound")

    monkeypatch.setattr(projective, "iter_chart_test_monomials", refuse)
    space = global_do_dimension(n, a, b, order)
    box0 = order + abs(a) + abs(b) + 2
    assert (space.dim, space.box, space.rank_history) == (0, box0, ((box0, 0),))
    assert candidate_count(n, a, b, order) == 0


def test_zero_bound_still_rejects_negative_box():
    with pytest.raises(PreconditionError, match="box must be nonnegative"):
        global_do_dimension(1, 0, -40, 1, initial_box=-1)


def test_shift_orbits_cover_every_candidate():
    # each shift s contributes one row per beta >= max(0, -s), |beta| <= N
    for n in (1, 2, 3):
        for a, b in [(0, 0), (0, 2), (1, -1), (0, -n - 2)]:
            for order in range(4):
                rows = sum(count * math.comb(order - sum(m) + n + 1, n + 1)
                           for m, count in shift_orbits(n, a, b, order).items())
                assert rows == candidate_count(n, a, b, order)


def shift_count(n, d, k):
    """S(k): shifts in Z^(n+1) with coordinate sum d and negative part of
    size k.  i coordinates are negative; the i = n + 1 term (all negative,
    only when d + k = 0) matters for d <= -(n + 1)."""
    def spread(total, parts):
        if parts == 0:
            return int(total == 0)
        return math.comb(total + parts - 1, parts - 1) if total >= 0 else 0
    if k == 0:
        return spread(d, n + 1)
    return sum(math.comb(n + 1, i) * math.comb(k - 1, i - 1) * spread(d + k, n + 1 - i)
               for i in range(1, n + 2))


def closed_form_dim(n, a, b, order):
    return sum(math.comb(order - k + n, n) * shift_count(n, b - a, k)
               for k in range(order + 1))


@pytest.mark.parametrize("n, a, b, order, dim", [
    (2, 0, 0, 8, 2025), (3, 0, 0, 5, 3136), (5, 0, 0, 3, 3136),
    (3, -2, 2, 3, 2400),
])
def test_closed_form_anchor_values(n, a, b, order, dim):
    assert closed_form_dim(n, a, b, order) == dim
    assert global_do_dimension(n, a, b, order).dim == dim


def test_closed_form_below_minus_n_minus_one():
    # b - a <= -(n + 1): the all-negative shifts count here
    for n in (1, 2, 3):
        for d in range(-n - 3, -n):
            for order in range(-d - n - 1, -d + 2):
                assert do_dimension(n, 0, d, order) == closed_form_dim(n, 0, d, order)
    # (-2, 0), (0, -2) and the all-negative (-1, -1)
    assert shift_count(1, -2, 2) == 3
    assert do_dimension(1, 0, -2, 2) == closed_form_dim(1, 0, -2, 2) == 3


def test_euler_relation_is_structural_kernel():
    # phi * (E - a) annihilates every section of O(a) on every chart
    for n, a, phi_parts in [(1, 2, ((1, 0), (1, 0))), (2, -1, ((0, 0, 0), (0, 0, 0)))]:
        phi = WeylElement.monomial(*phi_parts)
        op = euler_relation(n, a, phi)
        assert not op.is_zero()
        for gamma in chart_test_monomials(n, a, 3):
            assert not op.apply_monomial(gamma)


def test_euler_scaling():
    e = euler_operator(3)
    mono = LaurentPoly.monomial((-1, 2, 1))
    assert e.apply(mono) == 2 * mono


def test_strictness_of_order_filtration():
    # candidate count strictly exceeds dimension at each order >= 1
    for n, a, b in [(1, 0, 0), (2, 0, 1)]:
        for order in (1, 2):
            assert strictness_check(n, a, b, order)
            assert candidate_count(n, a, b, order) > do_dimension(n, a, b, order)


def test_negative_twist_operator_exists():
    res = negative_twist_existence(1, 1)
    assert res.found
    assert res.order == 1
    assert res.dim == 2
    res2 = negative_twist_existence(2, 1)
    assert res2.found
    assert res2.order == 1
    assert res2.dim == 3


def test_negative_twist_gap_grows_with_degree():
    res = negative_twist_existence(1, 2)
    assert res.found
    assert res.order == 2


def test_negative_twist_rejects_bad_input():
    with pytest.raises(PreconditionError):
        negative_twist_existence(0, 1)
    with pytest.raises(PreconditionError):
        negative_twist_existence(1, 0)


# ---------------------------------------------------------------------------
# induced maps on cohomology
# ---------------------------------------------------------------------------

def test_h0_and_hn_bases():
    assert len(h0_basis(1, 2)) == h0_line(1, 2) == 3
    assert len(hn_basis(1, -3)) == hn_line(1, -3) == 2
    assert len(hn_basis(2, -4)) == hn_line(2, -4) == 3
    for gamma in hn_basis(2, -4):
        assert max(gamma) < 0 and sum(gamma) == -4


def test_induced_map_on_sections():
    # d/dx0 : H^0(O(2)) -> H^0(O(1)) in the monomial bases
    op = WeylElement.d(0, 2)
    m = induced_cohomology_map(1, 2, 1, op, 0)
    assert m.rows == h0_line(1, 1)
    assert m.cols == h0_line(1, 2)
    assert m.rank() == 2


def test_induced_map_euler_acts_by_degree_on_hn():
    for n, k in [(1, -2), (1, -3), (2, -3), (3, -4)]:
        e = euler_operator(n + 1)
        m = induced_cohomology_map(n, k, k, e, n)
        dim = hn_line(n, k)
        assert m.rows == m.cols == dim
        for i in range(dim):
            for j in range(dim):
                expected = Fraction(k) if i == j else Fraction(0)
                assert m.entry(i, j) == expected


def test_induced_map_requires_graded_operator():
    ungraded = WeylElement.d(0, 2) + WeylElement.x(0, 2)
    with pytest.raises(PreconditionError):
        induced_cohomology_map(1, 0, 1, ungraded, 0)


def test_induced_map_functoriality():
    rng = random.Random(2026)
    for _ in range(25):
        n = rng.choice([1, 2])
        a = rng.randint(-2, 2)
        d1 = rng.randint(-1, 1)
        d2 = rng.randint(-1, 1)
        i = rng.choice([0, n])
        op1 = random_graded_operator(rng, n + 1, d1, 2)
        op2 = random_graded_operator(rng, n + 1, d2, 2)
        b = a + d2
        c = b + d1
        m2 = induced_cohomology_map(n, a, b, op2, i)
        m1 = induced_cohomology_map(n, b, c, op1, i)
        m12 = induced_cohomology_map(n, a, c, op1 * op2, i)
        assert m1 @ m2 == m12


# ---------------------------------------------------------------------------
# block operators on split rank-two bundles
# ---------------------------------------------------------------------------

def test_block_operator_shape_and_order():
    d12 = WeylElement.monomial((3, 0), (1, 0))   # degree 2 = m - d with m=0, d=2? no: d - m
    op = block_operator(1, 0, 2, d12)
    mat = op.as_matrix()
    assert mat[0][0] == WeylElement.one(2)
    assert mat[0][1].is_zero()
    assert mat[1][0] == d12
    assert mat[1][1] == WeylElement.one(2)
    assert op.order() == 1


def test_block_operator_zero_coupling_is_identity():
    op = block_operator(1, 1, 3, WeylElement.zero(2))
    assert op.order() == 0
    report = op.verify()
    assert report.ok
    assert report.preserves_second_summand
    assert report.identity_on_sub
    assert report.identity_on_quotient


def test_block_operator_verify_full():
    d12 = WeylElement.monomial((3, 0), (1, 0))
    op = block_operator(1, 0, 2, d12)
    report = op.verify()
    assert report.ok
    assert report.order == 1
    assert report.order_witness is not None


def test_block_operator_apply_pair():
    d12 = WeylElement.monomial((2, 0), (0, 0))   # multiplication by x0^2
    op = block_operator(1, 0, 2, d12)
    s = LaurentPoly.zero(2)
    u = LaurentPoly.monomial((1, 1))
    out_s, out_t = op.apply_pair(s, u)
    assert out_s == s
    assert out_t == u
    s2 = LaurentPoly.monomial((0, 0))
    out_s2, out_t2 = op.apply_pair(s2, u)
    assert out_s2 == s2
    assert out_t2 == u + LaurentPoly.monomial((2, 0))


def test_block_operator_grading_validated():
    with pytest.raises(PreconditionError):
        block_operator(1, 0, 2, WeylElement.d(0, 2))   # degree -1, need 2


@pytest.mark.parametrize("n, m, d, d12, message", [
    (0, 0, 2, WeylElement.monomial((2,), (0,)), "projective dimension"),
    (1, 0, 2, WeylElement.monomial((2, 0, 0), (0, 0, 0)), "wrong number of variables"),
    (1, 0, 2, WeylElement.d(0, 2), "x-degree 2"),
])
def test_block_operator_constructor_validates(n, m, d, d12, message):
    with pytest.raises(PreconditionError, match=message):
        BlockOperator(n, m, d, d12)
    with pytest.raises(PreconditionError, match=message):
        BlockOperator(n=n, m=m, d=d, d12=d12)
