import itertools
import json
import math
import random
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_graded_operator
from jetspace.cohomology import h0_line, hn_line
from jetspace.errors import PreconditionError
from jetspace import cli, dimensions, errors, linalg, projective
from jetspace.laurent import LaurentPoly, monomials_of_degree
from jetspace.linalg import ExactMatrix
from jetspace.growth import verify_growth
from jetspace.projective import (WORK_LIMIT,
                                 BlockOperator, action_matrix, block_operator,
                                 candidate_count, candidate_monomials,
                                 chart_test_count, chart_test_monomials,
                                 do_dimension,
                                 do_dimensions,
                                 global_do_dimension,
                                 h0_basis, hn_basis, induced_cohomology_map,
                                 negative_twist_existence)
from jetspace.weyl import WeylElement, euler_operator, falling
from test_growth import closed_form_dimension


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_test_stream_matches_reference_enumeration(n):
    for a in range(-4, 5):
        for box in range((6, 6, 4, 3)[n - 1]):
            want = reference_test_monomials(n, a, box)
            assert chart_test_monomials(n, a, box) == want, (n, a, box)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chart_test_count_is_the_test_set_size(n):
    for a in range(-5, 7):
        for box in range(8 - n):
            assert chart_test_count(n, a, box) == len(chart_test_monomials(n, a, box)), (
                n, a, box)


def _reference_chart_test_count(n, a, box):
    """The count as summed one v at a time, before the hockey-stick form."""
    return projective._bounded_count(n + 1, a, box) + (n + 1) * sum(
        projective._bounded_count(n, a + v, box) for v in range(1, box + 1))


def test_chart_test_count_equals_the_sum_over_v():
    for n in range(1, 6):
        for a in range(-30, 31):
            for box in range(25):
                assert chart_test_count(n, a, box) == _reference_chart_test_count(n, a, box), (
                    n, a, box)


def test_negative_box_rejected_by_every_entry_point():
    for entry in (chart_test_monomials, chart_test_count):
        with pytest.raises(PreconditionError, match="box must be nonnegative"):
            entry(2, 0, -1)


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
    # the history is the one start box and its dimension
    assert global_do_dimension(1, 0, 0, 1).dim == 4
    for n, a, b, order in [(1, 0, 0, 1), (2, 0, -3, 4), (3, -2, 1, 3), (1, 0, -9, 4)]:
        space = global_do_dimension(n, a, b, order)
        assert space.box == order + abs(a) + abs(b) + 2
        assert space.dim == euler_bound(n, a, b, order)
        assert space.rank_history == ((space.box, space.dim),)


# ---------------------------------------------------------------------------
# shift-block kernel against the full action matrix and the closed form
# ---------------------------------------------------------------------------

def euler_bound(n, a, b, order):
    """Sum over shift orbits of count * C(N - |m| + n, n): the candidate
    count minus the independent Euler relations, an upper bound on dim."""
    return sum(count * math.comb(order - sum(m) + n, n)
               for m, count in reference_shift_orbits(n, a, b, order).items())


REFERENCE_BOX_STEP = 2
REFERENCE_BOX_LIMIT = 40


def reference_rank_history(n, a, b, order):
    """An independent box loop on the whole Fraction action matrix from the
    start box: accept a rank once it is unchanged across three boxes.
    Returns (dim, box, history); dim and box are None when the rank does not
    stabilize within the limit."""
    cands = candidate_monomials(n, a, b, order)
    box0 = order + abs(a) + abs(b) + 2
    history = []
    for box in range(box0, box0 + REFERENCE_BOX_LIMIT + 1, REFERENCE_BOX_STEP):
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


@pytest.mark.parametrize("n, a, b, order", [(3, 0, -30, 1), (1, 0, -40, 1),
                                             (2, 3, 0, 2)])
def test_zero_bound_builds_no_test_set(monkeypatch, n, a, b, order):
    # b - a < -N leaves no candidate, so the bound is 0 with no binomial
    # computed
    def refuse(*args):
        raise AssertionError("binomial computed for a zero bound")

    monkeypatch.setattr(dimensions, "comb", refuse)
    space = global_do_dimension(n, a, b, order)
    box0 = order + abs(a) + abs(b) + 2
    assert (space.dim, space.box, space.rank_history) == (0, box0, ((box0, 0),))
    assert candidate_count(n, a, b, order) == 0


@pytest.mark.parametrize("n, top", [(1, 7), (2, 4), (3, 3), (4, 2), (5, 1)])
def test_sweep_matches_every_order(n, top):
    # one pass at the top order gives what one pass per order gives
    span = 2 if n < 4 else 1
    for a in range(-span, span + 1):
        for b in range(-n - 3, 4):
            dims = do_dimensions(n, a, b, top)
            assert dims == tuple(global_do_dimension(n, a, b, order).dim
                                 for order in range(top + 1)), (n, a, b)
            assert dims == tuple(closed_form_dimension(n, b - a, order)
                                 for order in range(top + 1)), (n, a, b)


def test_sweep_entries_are_the_cached_orders():
    assert do_dimensions(2, 0, -1, 3) == (0, 3, 18, 60)
    assert do_dimension(2, 0, -1, 2) == do_dimensions(2, 0, -1, 3)[2]
    assert do_dimensions(2, 0, -30, 2) == (0, 0, 0)
    info = do_dimension.cache_info()
    assert info.hits + info.misses > 0


def test_sweep_rejects_a_negative_top():
    with pytest.raises(PreconditionError, match="operator order must be >= 0"):
        do_dimensions(2, 0, 0, -1)
    with pytest.raises(PreconditionError, match="operator order must be >= 0"):
        do_dimension(1, 9, 8, -1)


def lattice_offset(n, b, m):
    """t = 0 if m_0 = 0, else t = max(0, floor((b + m_0) / n) + 1), so that
    gamma_0 < 0 on every lattice row."""
    return 0 if m[0] == 0 else max(0, (b + m[0]) // n + 1)


def lattice_rows(n, a, m, order, t):
    """The cap rows on which the block of m is unisolvent: gamma_i = m_i +
    t + q_i (i >= 1, q >= 0, |q| <= N - |m|), gamma_0 = a - sum_{i >= 1}
    gamma_i."""
    rows = []
    for k in range(order - sum(m) + 1):
        for q in monomials_of_degree(n, k):
            tail = tuple(mi + t + qi for mi, qi in zip(m[1:], q))
            rows.append((a - sum(tail), *tail))
    return rows


@pytest.mark.parametrize("n, span, max_order", [(1, 5, 8), (2, 4, 6), (3, 3, 5), (4, 3, 5)])
def test_start_box_holds_a_unisolvent_lattice_for_every_block(n, span, max_order):
    # the start-box lemma of the proof in do_dimensions: every block reaches
    # its cap on rows of the start box, including the all-negative shifts
    # (b - a <= -(n + 1))
    all_negative = 0
    full_ranks = {}  # the same rows recur for every b sharing an orbit
    for a in range(-span, span + 1):
        for b in range(-span, span + 1):
            for order in range(max_order + 1):
                box = order + abs(a) + abs(b) + 2
                for m in reference_shift_orbits(n, a, b, order):
                    size = order - sum(m)
                    t = lattice_offset(n, b, m)
                    rows = lattice_rows(n, a, m, order, t)
                    assert len(set(rows)) == len(rows)
                    for gamma in rows:
                        assert sum(gamma) == a
                        assert sum(1 for g in gamma if g < 0) <= 1, (m, gamma)
                        assert falling(gamma[0], m[0]) != 0, (m, gamma)
                    h = a - sum(mi + t for mi in m[1:])
                    far = max(max(map(abs, gamma)) for gamma in rows)
                    assert far == max(abs(h), abs(h - size), m[-1] + t + size) <= box
                    if m[0] == 0:
                        assert (t, h) == (0, a - sum(m)) and far <= abs(a) + order
                    else:
                        assert sum(m) == a - b >= n + 1, (n, a, b, m)
                        assert -n <= h <= -1 if t else h == b + m[0] < 0, (n, a, b, m)
                    cap = math.comb(size + n, n)
                    key = (m, order, tuple(rows))
                    if key not in full_ranks:
                        full_ranks[key] = full_block_rank(m, order, rows)
                    assert full_ranks[key] == cap == len(rows), (n, a, b, order, m)
                    all_negative += m[0] > 0
                dim = closed_form_dimension(n, b - a, order)
                space = global_do_dimension(n, a, b, order)
                assert (space.dim, space.box, space.rank_history) == (
                    dim, box, ((box, dim),)), (n, a, b, order)
    assert all_negative > 0


@pytest.mark.parametrize("n, a, b, order", [
    (2, 0, -3, 4), (2, -2, 0, 3), (2, -1, -3, 4), (3, 0, 0, 3), (3, -2, 1, 3),
    (4, 0, 2, 2)])
def test_dimension_pass_runs_no_elimination(monkeypatch, capsys, n, a, b, order):
    # every lattice block is nonsingular by its factorization, so a cold
    # pass ranks nothing; (2, 0, -3, 4) includes an all-negative orbit
    def refuse(*args):
        raise AssertionError("an elimination step ran")

    for name in ("add_pivot_row", "_make_primitive", "_eliminate"):
        monkeypatch.setattr(linalg, name, refuse)
    monkeypatch.setattr(ExactMatrix, "rank", refuse)
    # clear every cache in projective, so the pass runs cold
    for cached in vars(projective).values():
        getattr(cached, "cache_clear", lambda: None)()
    dim = closed_form_dimension(n, b - a, order)
    assert global_do_dimension(n, a, b, order).dim == dim == euler_bound(n, a, b, order)
    assert do_dimensions(n, a, b, order)[-1] == dim
    argv = ["dim-do", "--n", str(n), "--a", str(a), "--b", str(b), "--N", str(order)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == dim
    if b - a <= -(n + 1):
        assert any(min(m) > 0 for m in reference_shift_orbits(n, a, b, order))


def dense_block(n, size, t):
    """R(n, K, t) in full: rows q, columns delta, both over the n-tuples of
    size <= K sorted by size."""
    tuples = [q for k in range(size + 1) for q in monomials_of_degree(n, k)]
    return [[math.prod(falling(t + x, d) for x, d in zip(q, delta)) for delta in tuples]
            for q in tuples]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_rank_is_the_rank_of_the_dense_block(n):
    # R(n, K, t) has full rank C(K + n, n)
    for size in range(6):
        for t in range(5):
            dense = dense_block(n, size, t)
            assert ExactMatrix.from_rows(dense).rank() == math.comb(size + n, n), (n, size, t)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_translate_zero_blocks_arrive_in_echelon_form(monkeypatch, n):
    # row q of R(n, K, 0) is supported on delta <= q, so with columns keyed
    # from the largest delta down its pivot is its own diagonal prod q_j!:
    # the rows reduce with nothing eliminated, and only the C(K + 2n, 2n)
    # nonzero entries are fed
    eliminated = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda *args: eliminated.append(args) or eliminate(*args))
    for size in range(6):
        dense = dense_block(n, size, 0)
        fed = [{-j: v for j, v in enumerate(row) if v} for row in dense]
        assert sum(map(len, fed)) == math.comb(size + 2 * n, 2 * n)
        for i, row in enumerate(fed):
            assert min(row) == -i
        pivots = {}
        for row in fed:
            linalg.add_pivot_row(pivots, dict(row))
        assert eliminated == []
        assert len(pivots) == math.comb(size + n, n)


def bareiss_det(rows):
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination with row swaps."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def test_block_factors_into_triangular_falling_factorial_matrices():
    # the theorem that replaces a rank pass: by the Vandermonde identity
    # ff(x + y, k) = sum_r C(k, r) ff(x, r) ff(y, k - r), R = A B with
    # A[q, r] = prod ff(q_j, r_j) (zero unless r <= q) and B[r, delta] =
    # prod C(delta_j, r_j) ff(t, delta_j - r_j) (zero unless r <= delta), so
    # det R = prod_q prod_j q_j! for every integer t, negative ones included
    cases = 0
    for n, top in [(1, 7), (2, 5), (3, 3), (4, 2)]:
        for size in range(top + 1):
            tuples = [q for k in range(size + 1) for q in monomials_of_degree(n, k)]
            below = [[all(x <= y for x, y in zip(r, q)) for r in tuples] for q in tuples]
            a = [[math.prod(falling(x, y) for x, y in zip(q, r)) for r in tuples]
                 for q in tuples]
            diagonal = math.prod(math.factorial(x) for q in tuples for x in q)
            for i, q in enumerate(tuples):
                assert a[i][i] == math.prod(map(math.factorial, q))
                assert all(a[i][j] == 0 for j in range(len(tuples)) if not below[i][j])
            for t in range(-4, 6):
                b = [[math.prod(math.comb(d, x) * falling(t, d - x) for x, d in zip(r, delta))
                      for delta in tuples] for r in tuples]
                assert all(b[i][i] == 1 for i in range(len(tuples)))
                assert all(b[i][j] == 0 for i in range(len(tuples))
                           for j in range(len(tuples)) if not below[j][i])
                dense = dense_block(n, size, t)
                assert ExactMatrix.from_rows(a) @ ExactMatrix.from_rows(b) == (
                    ExactMatrix.from_rows(dense)), (n, size, t)
                assert bareiss_det(dense) == diagonal != 0, (n, size, t)
                cases += 1
    assert cases == 210


@pytest.mark.parametrize("n, top", [(1, 5), (2, 3), (3, 2)])
def test_sweeps_are_invariant_under_a_common_twist(n, top):
    for a in range(-2, 3):
        for b in range(-n - 3, 3):
            for s in (-3, -1, 2):
                assert do_dimensions(n, a, b, top) == do_dimensions(
                    n, a + s, b + s, top), (n, a, b, s)


def full_block_rank(m, order, rows, square=False):
    """Rank of the full shift block of m at this order, every beta >= m with
    |beta| <= N a column, entries prod_j ff(gamma_j, beta_j); with square,
    of the square block, the columns with beta_0 = m_0 only."""
    betas = [beta for k in range(sum(m), order + 1)
             for beta in monomials_of_degree(len(m), k)
             if all(x >= y for x, y in zip(beta, m)) and not (square and beta[0] > m[0])]
    if not rows or not betas:
        return 0
    return ExactMatrix.from_rows(
        [[math.prod(falling(g, e) for g, e in zip(gamma, beta)) for beta in betas]
         for gamma in rows]).rank()


@pytest.mark.parametrize("n, a, b, top", [
    (1, 0, 0, 3), (1, 2, -1, 3), (1, 0, -3, 4), (1, -1, -5, 5),
    (2, 0, -1, 2), (2, 1, 0, 2), (2, 0, -3, 3), (2, 1, -3, 4), (3, 0, 0, 2),
    (3, -1, -5, 4)])
def test_square_block_rank_is_the_full_block_rank(n, a, b, top):
    # the Euler column identity on every row: the beta_0 = m_0 columns span
    # each column prefix, so ranks agree on any row subset and at every
    # lower order; b - a <= -(n + 1) includes the all-negative shifts
    rng = random.Random(f"square:{n},{a},{b},{top}")
    pool = chart_test_monomials(n, a, 3 if n < 3 else 2)
    orbits = list(reference_shift_orbits(n, a, b, top))
    if b - a <= -(n + 1):
        assert any(min(m) > 0 for m in orbits)
    for m in orbits:
        for _ in range(4):
            rows = rng.sample(pool, rng.randint(1, min(len(pool), 12)))
            for order in range(sum(m), top + 1):
                assert full_block_rank(m, order, rows, square=True) == full_block_rank(
                    m, order, rows), (m, order, rows)


def recorded_grid():
    return json.loads((Path(__file__).parent / "data" / "shift_block_grid.json").read_text())


def test_dims_boxes_and_histories_match_the_full_block_recording():
    # recorded with full shift blocks fed in sorted order (commit 054fefe);
    # the entries recorded from start boxes 0 and 1 pin the dimension only
    grid = recorded_grid()
    for n, a, b, order, box0, dim, box, history in grid["spaces"]:
        space = global_do_dimension(n, a, b, order)
        if box0 is None:
            assert (space.dim, space.box, space.rank_history) == (
                dim, box, tuple(map(tuple, history))), (n, a, b, order)
        else:
            assert space.dim == dim, (n, a, b, order, box0)
    for n, a, b, top, dims in grid["sweeps"]:
        assert do_dimensions(n, a, b, top) == tuple(dims), (n, a, b, top)


@pytest.mark.parametrize("n, a, b, order", [(2, 0, 0, 12), (6, 0, 0, 3),
                                             (2, 0, 0, 5), (3, 0, 0, 3),
                                             (2, 0, 0, 8), (5, 0, 0, 3)])
def test_work_estimate_accepts_the_anchor_inputs(n, a, b, order):
    assert dimensions._dim_do_work(n, b - a, order) <= WORK_LIMIT
    assert global_do_dimension(n, a, b, order).dim == math.comb(order + n, n) ** 2


def test_binomial_bits_bound_every_binomial():
    for m in range(80):
        for j in range(m + 1):
            assert math.comb(m, j).bit_length() <= errors._binomial_bits(m, j), (m, j)
    for m, j in [(2 * 10 ** 4, 10 ** 4), (10 ** 30, 5), (10 ** 4, 7)]:
        assert math.comb(m, j).bit_length() <= errors._binomial_bits(m, j), (m, j)


def test_work_check_evaluates_no_binomial(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("binomial computed")

    monkeypatch.setattr(dimensions, "comb", refuse)
    big = 10 ** 6
    for call in (lambda: global_do_dimension(big, 0, 0, big),
                 lambda: do_dimension(big, 0, 0, big),
                 lambda: negative_twist_existence(big, big, big),
                 lambda: verify_growth(big, 0, 0, big)):
        with pytest.raises(PreconditionError, match=r"has a work estimate of 2\^\d+ or more"):
            call()
    rc = cli.main(["dim-do", "--n", str(big), "--a", "0", "--b", "0", "--N", str(big)])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == (f"precondition failed: (n={big}, a=0, b=0, N={big}) has a work "
                   "estimate of 2^62 or more, above the limit 2^37\n")


def test_negative_twist_script_replays_its_recording(capsys):
    root = Path(__file__).resolve().parent.parent
    script = runpy.run_path(str(root / "scripts" / "negative_twist_search.py"))
    assert script["main"](["--n", "2", "--max-drop", "3", "--budget", "4"]) == 0
    recorded = (root / "tests" / "data" / "negative_twist_search.txt").read_text()
    assert capsys.readouterr().out == recorded


def test_shift_orbits_cover_every_candidate():
    # each shift s contributes one row per beta >= max(0, -s), |beta| <= N
    for n in (1, 2, 3):
        for a, b in [(0, 0), (0, 2), (1, -1), (0, -n - 2)]:
            for order in range(4):
                rows = sum(count * math.comb(order - sum(m) + n + 1, n + 1)
                           for m, count in reference_shift_orbits(n, a, b, order).items())
                assert rows == candidate_count(n, a, b, order)


def reference_shift_orbits(n, a, b, order):
    """Shift orbits of the candidates, sorted negative part m -> shift
    count: a candidate x^alpha d^beta has shift s = alpha - beta and
    beta >= m(s) := max(0, -s), so walk every negative part m of each size
    <= N, count the spreads of b - a + |m| over its zero slots, and key
    them by sorted(m)."""
    orbits = {}
    for size in range(order + 1):
        rest = b - a + size
        if rest < 0:
            continue
        for m in monomials_of_degree(n + 1, size):
            zeros = m.count(0)
            spreads = math.comb(rest + zeros - 1, zeros - 1) if zeros else int(rest == 0)
            if spreads:
                key = tuple(sorted(m))
                orbits[key] = orbits.get(key, 0) + spreads
    return orbits


def test_orbit_caps_sum_to_the_exact_order_candidates():
    # step 3 of the proof in do_dimensions: cap(s) = C(N - |m| + n, n)
    # counts the beta >= m(s) with |beta| = N, so the caps sum to the
    # C(N + n, n) C(N + d + n, n) candidates of exact order N
    top = 10
    for n in range(1, 7):
        for d in range(-(n + 8), 7):
            orbits = reference_shift_orbits(n, 0, d, top)
            for order in range(top + 1):
                caps = sum(count * math.comb(order - sum(m) + n, n)
                           for m, count in orbits.items() if sum(m) <= order)
                want = (math.comb(order + n, n) * math.comb(order + d + n, n)
                        if order + d >= 0 else 0)
                assert caps == want, (n, d, order)


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
        op = phi * (euler_operator(n + 1) - WeylElement.one(n + 1) * a)
        assert not op.is_zero()
        for gamma in chart_test_monomials(n, a, 3):
            assert not op.apply_monomial(gamma)


def test_euler_scaling():
    e = euler_operator(3)
    mono = LaurentPoly.monomial((-1, 2, 1))
    assert e.apply(mono) == 2 * mono


def test_strictness_of_order_filtration():
    # raising the order bound enlarges the space, and the candidate count
    # strictly exceeds the dimension at each order >= 1
    for n, a, b in [(1, 0, 0), (2, 0, 1)]:
        dims = do_dimensions(n, a, b, 2)
        for order in (1, 2):
            assert dims[order] > dims[order - 1]
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


@pytest.mark.parametrize("n, drops, budgets", [
    *[(n, range(1, 30), range(32)) for n in range(1, 7)],
    # order 3000 on the plane is one pair of small binomials
    (2, [3000], [2999, 3000])])
def test_negative_twist_is_the_closed_form(n, drops, budgets):
    # the first order with DO^N(O, O(-d)) != 0 is d, with dim C(d + n, n);
    # only order d is computed (test_work_check_evaluates_no_binomial has
    # a refused one)
    for d in drops:
        for n_max in budgets:
            res = negative_twist_existence(n, d, n_max)
            assert res.searched_up_to == n_max
            if d <= n_max:
                assert (res.order, res.dim) == (d, math.comb(d + n, n)), (n, d, n_max)
            else:
                assert (res.order, res.dim, res.found) == (None, 0, False), (n, d, n_max)


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
        assert m.to_rows() == [[Fraction(k) if i == j else Fraction(0) for j in range(dim)]
                               for i in range(dim)]


OP9 = WeylElement.parse(
    "6 * x^(2,6) d^(6,2) + 8 * x^(1,4) d^(4,1) + 1 * x^(1,3) d^(3,1) + 2 * x^(1,2) d^(2,1)"
    " + 8 * x^(2,2) d^(2,2) + 7 * x^(2,1) d^(1,2) + 4 * x^(3,1) d^(1,3)"
    " + 4 * x^(4,1) d^(1,4) + 5 * x^(6,2) d^(2,6)")


def test_induced_map_refuses_by_its_work_estimate(monkeypatch):
    # two items per printed cell plus the elimination of its rank: one term
    # eliminates nothing, so a map of about 10^6 cells is accepted; the
    # 9-term operator is accepted on O(239) of P^1 (1.1 s) and refused from
    # O(240) on, O(999) (96 s before) before any basis is built
    x0 = WeylElement.x(0, 2)
    assert projective._induced_map_work(1, 999, x0, 1000, 1001) <= WORK_LIMIT
    assert projective._induced_map_work(1, 239, OP9, 240, 240) <= WORK_LIMIT
    assert projective._induced_map_work(1, 240, OP9, 241, 241) > WORK_LIMIT
    assert induced_cohomology_map(1, 2, 1, WeylElement.d(0, 2), 0).rank() == 2

    def refuse(*args):
        raise AssertionError("basis built for a refused map")

    monkeypatch.setattr(projective, "h0_basis", refuse)
    monkeypatch.setattr(projective, "hn_basis", refuse)
    for n, a, b, op, i in ((1, 999, 999, OP9, 0), (1, -1001, -1001, OP9, 1),
                           (2, 120, 121, WeylElement.x(0, 3), 0)):
        with pytest.raises(PreconditionError, match=(
                rf"the H\^{i} map O\({a}\) -> O\({b}\) on P\^{n} has a work estimate "
                r"of 2\^\d+ or more, above the limit 2\^37")):
            induced_cohomology_map(n, a, b, op, i)


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
    s, t = LaurentPoly.monomial((1, -1)), LaurentPoly.monomial((2, 0))
    zero = LaurentPoly.zero(2)
    # columns of [[1, 0], [D12, 1]]
    assert op.apply_pair(s, zero) == (s, d12.apply(s))
    assert op.apply_pair(zero, t) == (zero, t)
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


def test_block_operator_refuses_oversized_test_sets_before_any_work(monkeypatch):
    # an item per chart monomial of O(m) and one per variable for each term
    # of the top-order part: 521463 monomials of O(232) pass, and the
    # 525924 of O(233) are refused before any is built
    def refuse(*args):
        raise AssertionError("test set built past the limit")

    x0 = WeylElement.monomial((1, 0, 0), (0, 0, 0))
    monkeypatch.setattr(projective, "chart_test_monomials", refuse)
    with pytest.raises(PreconditionError, match=(
            r"the block operator O\(233\) \+ O\(234\) on P\^2 \(525924 chart test "
            r"monomials\) has a work estimate of 2\^37 or more, above the limit 2\^37")):
        block_operator(2, 233, 234, x0).verify()
    # D12 = 0 has no top-order part to apply, so no test set is counted
    zero = block_operator(1, 10 ** 6, 10 ** 6, WeylElement(2, {})).verify()
    assert (zero.order, zero.order_witness, zero.ok) == (0, None, True)
    monkeypatch.undo()
    assert block_operator(2, 232, 233, x0).verify().order_witness is not None


def _reference_verify(block: BlockOperator) -> tuple:
    """Reference for verify(): every chart monomial of O(d) and of O(m) in
    the box, each identity checked by apply_pair, the witness the first
    O(m) monomial that the top-order part of D12 does not kill."""
    n, m, d = block.n, block.m, block.d
    box = block.order() + abs(m) + abs(d) + 3
    zero = LaurentPoly.zero(n + 1)
    preserves = sub_ok = quot_ok = True
    for gamma in chart_test_monomials(n, d, box):
        t = LaurentPoly.monomial(gamma)
        s_out, t_out = block.apply_pair(zero, t)
        preserves = preserves and s_out.is_zero()
        sub_ok = sub_ok and t_out == t
    top = None if block.d12.is_zero() else block.d12.order_part(block.order())
    witness = None
    for gamma in chart_test_monomials(n, m, box):
        s = LaurentPoly.monomial(gamma)
        quot_ok = quot_ok and block.apply_pair(s, zero)[0] == s
        if witness is None and top is not None and top.apply_monomial(gamma):
            witness = gamma
    return preserves, sub_ok, quot_ok, block.order(), witness


def _block_grid_couplings():
    rng = random.Random(24)
    for n in (1, 2):
        for m in range(-2, 3):
            for delta in range(-2, 3):
                couplings = [WeylElement.zero(n + 1)]
                couplings += [random_graded_operator(rng, n + 1, delta, 2) for _ in range(3)]
                if delta >= 0:   # an order-0 coupling: multiplication by x0^delta
                    couplings.append(WeylElement.monomial((delta,) + (0,) * n, (0,) * (n + 1)))
                for d12 in couplings:
                    yield n, m, m + delta, d12


def test_block_operator_verify_matches_the_full_walk():
    for n, m, d, d12 in _block_grid_couplings():
        block = block_operator(n, m, d, d12)
        assert block.verify() == _reference_verify(block), (n, m, d, d12)
    # D12 = E on O(0): its top-order part kills every degree-0 section
    euler = block_operator(1, 0, 0, euler_operator(2))
    report = euler.verify()
    assert report == _reference_verify(euler)
    assert report.order == 1 and report.order_witness is None and not report.ok


def test_block_operator_builds_at_most_the_o_m_test_set(monkeypatch):
    calls = []
    original = chart_test_monomials

    def record(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(projective, "chart_test_monomials", record)
    for n, m, d, d12 in _block_grid_couplings():
        calls.clear()
        block = block_operator(n, m, d, d12)
        block.verify()
        box = block.order() + abs(m) + abs(d) + 3
        assert calls == ([] if d12.is_zero() else [(n, m, box)]), (n, m, d, d12)
