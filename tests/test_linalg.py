import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jetspace.laurent import add_terms
from jetspace.linalg import ExactMatrix, primitive_integers

entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def small_matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r, max_size=r).map(ExactMatrix.from_rows)))


def column(vec):
    return ExactMatrix.from_rows([[v] for v in vec])


def test_known_rank_and_kernel():
    m = ExactMatrix.from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1
    # the kernel line is spanned by (2, -1)
    assert m @ column((2, -1)) == ExactMatrix(2, 1)
    assert ExactMatrix(2, 4).rank() == 0


def test_rank_with_fractions():
    m = ExactMatrix.from_rows([
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(1)],       # 3 * row0: dependent
        [Fraction(2), Fraction(5, 3)],
    ])
    assert m.rank() == 2


def test_primitive_integers():
    F = Fraction
    assert primitive_integers([F(1, 2), F(-3, 4), F(0)]) == [2, -3, 0]
    assert primitive_integers([F(6), F(4)]) == [3, 2]
    assert primitive_integers([F(-2, 3)]) == [-1]
    assert primitive_integers([F(0), F(0)]) == [0, 0]
    assert primitive_integers([]) == []


def _fraction_rref(m):
    """Reference reduced row echelon form: Fraction elimination against
    pivots keyed by their minimal column, each normalized at once, then
    back-substitution.  Its pivot count is the exact rank."""
    pivots = {}
    for row in m.row_dicts():
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = {j: v / row[c] for j, v in row.items()}
                break
            factor = row[c]
            add_terms(row, ((j, -factor * v) for j, v in piv.items()))
    cols_sorted = sorted(pivots)
    for c in reversed(cols_sorted):
        for c2 in cols_sorted:
            if c2 >= c:
                break
            factor = pivots[c2].get(c)
            if factor:
                add_terms(pivots[c2], ((j, -factor * v) for j, v in pivots[c].items()))
    return [pivots[c] for c in cols_sorted], cols_sorted


def reference_kernel(m):
    """A kernel basis read off the reference RREF, one vector per free column."""
    rows, pivot_cols = _fraction_rref(m)
    basis = []
    for free in sorted(set(range(m.cols)) - set(pivot_cols)):
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for row, c in zip(rows, pivot_cols):
            vec[c] = -row.get(free, 0)
        basis.append(vec)
    return basis


def test_rank_equals_the_fraction_elimination():
    rng = random.Random(24)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.6 else 0

    for _ in range(200):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = ExactMatrix.from_rows([[rational() for _ in range(cols)] for _ in range(rows)])
        # a product through a narrow middle has dependent rows
        inner = rng.randint(1, 3)
        low = (ExactMatrix.from_rows([[rational() for _ in range(inner)] for _ in range(rows)])
               @ ExactMatrix.from_rows([[rational() for _ in range(cols)] for _ in range(inner)]))
        for matrix in (m, low):
            assert matrix.rank() == len(_fraction_rref(matrix)[1])


def test_matmul():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[Fraction(2), Fraction(1)],
                                 [Fraction(4), Fraction(3)]]
    assert (b @ a).to_rows() == [[Fraction(3), Fraction(4)],
                                 [Fraction(1), Fraction(2)]]


@given(small_matrices())
@settings(max_examples=50, deadline=None)
def test_rank_nullity(m):
    # rank() against the kernel of the Fraction reference, checked here
    kernel = reference_kernel(m)
    for vec in kernel:
        assert m @ column(vec) == ExactMatrix(m.rows, 1)
    assert m.rank() + len(kernel) == m.cols


@given(small_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_rank_invariant_under_row_shuffle_and_scaling(m, rng):
    rows = m.to_rows()
    rng.shuffle(rows)
    scaled = []
    for row in rows:
        c = Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2]))
        scaled.append([c * v for v in row])
    assert ExactMatrix.from_rows(scaled).rank() == m.rank()


@given(small_matrices())
@settings(max_examples=40, deadline=None)
def test_rank_equals_transpose_rank(m):
    transpose = ExactMatrix.from_rows([list(col) for col in zip(*m.to_rows())])
    assert m.rank() == transpose.rank()


def test_rank_deterministic_large_sparse():
    rng = random.Random(7)
    entries = {}
    for _ in range(200):
        entries[(rng.randrange(40), rng.randrange(60))] = Fraction(
            rng.randint(-9, 9))
    m = ExactMatrix(40, 60, entries)
    assert m.rank() == m.rank()
    assert m.rank() == len(_fraction_rref(m)[1])
