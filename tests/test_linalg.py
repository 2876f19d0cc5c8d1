import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jetspace.linalg import ExactMatrix, primitive_integers

entries = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def small_matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r, max_size=r).map(ExactMatrix.from_rows)))


def test_identity_and_zero():
    eye = ExactMatrix.identity(3)
    assert eye.rank() == 3
    assert eye.kernel_basis() == []
    z = ExactMatrix.zeros(2, 4)
    assert z.rank() == 0
    assert len(z.kernel_basis()) == 4


def test_known_rank_and_kernel():
    m = ExactMatrix.from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1
    (vec,) = m.kernel_basis()
    assert m.apply_to_vector(vec) == [Fraction(0), Fraction(0)]
    # the kernel line is spanned by (2, -1)
    assert vec[0] * Fraction(-1) == vec[1] * Fraction(2)


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


def test_rref_normalized():
    m = ExactMatrix.from_rows([[2, 4, 6], [1, 2, 4]])
    rows, pivot_cols = m.rref()
    assert pivot_cols == [0, 2]
    assert rows[0] == {0: Fraction(1), 1: Fraction(2)}
    assert rows[1] == {2: Fraction(1)}


def test_matmul_and_transpose():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[Fraction(2), Fraction(1)],
                                 [Fraction(4), Fraction(3)]]
    assert a.transpose().to_rows() == [[Fraction(1), Fraction(3)],
                                       [Fraction(2), Fraction(4)]]


@given(small_matrices())
@settings(max_examples=50, deadline=None)
def test_rank_nullity(m):
    assert m.rank() + len(m.kernel_basis()) == m.cols


@given(small_matrices())
@settings(max_examples=50, deadline=None)
def test_kernel_vectors_annihilated(m):
    for vec in m.kernel_basis():
        assert m.apply_to_vector(vec) == [Fraction(0)] * m.rows


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
    assert m.rank() == m.transpose().rank()


def test_rank_deterministic_large_sparse():
    rng = random.Random(7)
    entries = {}
    for _ in range(200):
        entries[(rng.randrange(40), rng.randrange(60))] = Fraction(
            rng.randint(-9, 9))
    m = ExactMatrix(40, 60, entries)
    assert m.rank() == m.rank()
    assert m.rank() + len(m.kernel_basis()) == 60
