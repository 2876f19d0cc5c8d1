import itertools
import math
import random
from fractions import Fraction

import pytest

import jetspace.presented as presented
from jetspace.laurent import LaurentPoly
from jetspace.presented import (PresentedModule, UniPoly, divisibility_chain,
                                smith_normal_form)

t = UniPoly.t()
one = UniPoly.one()


def poly(*coeffs):
    return UniPoly(tuple(Fraction(c) for c in coeffs))


# ---------------------------------------------------------------------------
# univariate polynomial arithmetic
# ---------------------------------------------------------------------------

def test_unipoly_basics():
    p = poly(1, 2, 1)            # 1 + 2t + t^2
    assert p.degree() == 2
    assert p == (t + one) * (t + one)
    assert UniPoly.zero().degree() == -1
    assert not UniPoly.zero()
    assert one.is_unit()
    assert not t.is_unit()


@pytest.mark.parametrize("k", range(7))
def test_unipoly_pow_equals_repeated_products(k):
    p = poly(Fraction(1, 2), -3, 0, 2)
    want = one
    for _ in range(k):
        want = want * p
    assert p ** k == want


def test_unipoly_negative_pow_is_refused():
    with pytest.raises(ValueError, match="negative powers are not defined"):
        t ** -1


def test_unipoly_divmod():
    p = (t ** 3) + poly(0, 2) + poly(5)
    d = t + poly(3)
    q, r = divmod(p, d)
    assert q * d + r == p
    assert r.degree() < d.degree()
    with pytest.raises(ZeroDivisionError):
        divmod(p, UniPoly.zero())


def test_unipoly_gcd_is_monic():
    a = (t + one) * (t + poly(2)) * poly(3)
    b = (t + one) * (t + poly(5)) * poly(7)
    g = a.gcd(b)
    assert g == t + one
    assert g.lead() == 1


def test_unipoly_derivative_and_evaluate():
    p = poly(1, 0, 3)            # 1 + 3t^2
    assert p.derivative() == poly(0, 6)
    assert p.evaluate(Fraction(1, 2)) == Fraction(7, 4)


def test_shift_coefficients_taylor_layers():
    # p(t + s) = sum_k q_k(t) s^k
    p = (t ** 3) + poly(0, -1)
    layers = p.shift_coefficients()
    assert layers[0] == p
    assert layers[1] == poly(-1, 0, 3)      # p'
    assert layers[2] == poly(0, 3)          # p''/2
    assert layers[3] == one
    s = Fraction(2, 3)
    u = Fraction(-1, 4)
    direct = p.evaluate(u + s)
    via_layers = sum(q.evaluate(u) * s ** k for k, q in enumerate(layers))
    assert direct == via_layers


# ---------------------------------------------------------------------------
# UniPoly against a dense reference: convolution and long division on
# ascending coefficient lists, with no trailing zeros
# ---------------------------------------------------------------------------

def trimmed(cs):
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def dense_add(a, b):
    width = max(len(a), len(b))
    return trimmed((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(width))


def dense_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def dense_divmod(a, b):
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        quot[i] = rem[i + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[i + j] -= quot[i] * y
    return trimmed(quot), trimmed(rem)


def dense_gcd(a, b):
    while b:
        a, b = b, dense_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def random_dense(rng):
    """Zero, a constant, a sparse c t^k (k up to 40) or a dense polynomial
    of degree up to 6, with Fraction coefficients."""
    kind = rng.randrange(5)
    if kind == 0:
        return ()
    if kind == 1:
        return (Fraction(rng.choice([-3, 1, 2]), rng.choice([1, 2, 5])),)
    if kind == 2:
        return (Fraction(0),) * rng.choice([1, 7, 40]) + (Fraction(rng.choice([-2, 1, 3])),)
    cs = [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
          for _ in range(rng.randint(1, 6))]
    return tuple(cs) + (Fraction(rng.choice([-3, -1, 1, 2, 7])),)


@pytest.mark.parametrize("seed", range(8))
def test_unipoly_ring_arithmetic_matches_the_dense_reference(seed):
    rng = random.Random(seed)
    for _ in range(25):
        a, b = random_dense(rng), random_dense(rng)
        p, q = UniPoly(a), UniPoly(b)
        assert (p + q).coeffs == dense_add(a, b)
        assert (p - q).coeffs == dense_add(a, [-c for c in b])
        assert (-p).coeffs == trimmed(-c for c in a)
        assert (p * q).coeffs == dense_mul(a, b)
        for c in (0, 3, -1, Fraction(-2, 3)):
            assert (p * c).coeffs == (c * p).coeffs == trimmed(c * x for x in a)
        want = (Fraction(1),)
        for k in range(4):
            assert (p ** k).coeffs == want
            want = dense_mul(want, a)


@pytest.mark.parametrize("seed", range(8))
def test_unipoly_division_and_gcd_match_the_dense_reference(seed):
    rng = random.Random(100 + seed)
    for _ in range(25):
        a, b = random_dense(rng), random_dense(rng)
        if not b:
            continue
        p, q = UniPoly(a), UniPoly(b)
        quot, rem = divmod(p, q)
        assert (quot.coeffs, rem.coeffs) == dense_divmod(a, b)
        assert p.gcd(q).coeffs == dense_gcd(a, b)
        # q divides p q, so their gcd is monic(q)
        assert (p * q).gcd(q).coeffs == tuple(c / b[-1] for c in b)
    # degree 30-60 pairs f g and f h that share a factor f: the primitive
    # remainders keep every coefficient an exact Fraction
    for _ in range(2):
        f, g, h = (tuple(Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
                         for _ in range(rng.randint(15, 30))) + (Fraction(rng.choice([-3, 7])),)
                   for _ in range(3))
        a, b = dense_mul(f, g), dense_mul(f, h)
        gcd = UniPoly(a).gcd(UniPoly(b))
        assert gcd.coeffs == dense_gcd(a, b)
        assert all(type(c) is Fraction for c in gcd.coeffs)
        assert UniPoly(f).divides(gcd)


def test_unipoly_structure_of_zero_and_constants():
    zero = UniPoly.zero()
    assert zero.coeffs == () and UniPoly((0, 0, Fraction(0))).coeffs == ()
    assert zero.degree() == -1 and zero.lead() == 0
    assert not zero.is_unit() and zero.monic() == zero
    for c in (3, Fraction(-1, 2), 1):
        p = UniPoly.constant(c)
        assert p.coeffs == (Fraction(c),) and type(p.coeffs[0]) is Fraction
        assert p.degree() == 0 and p.lead() == c
        assert p.is_unit() and p.monic() == one
    sparse = UniPoly.t() ** 40 * Fraction(2, 3)
    assert sparse.coeffs == (Fraction(0),) * 40 + (Fraction(2, 3),)
    assert sparse.degree() == 40 and sparse.lead() == Fraction(2, 3)
    assert sparse.monic() == t ** 40 and not sparse.is_unit()
    with pytest.raises(AttributeError):
        sparse.coeffs = (1,)


def test_unipoly_hash_agrees_with_equality():
    rng = random.Random(7)
    for _ in range(40):
        a, b = random_dense(rng), random_dense(rng)
        p, q = UniPoly(a), UniPoly(b)
        for x, y in [(p + q - q, p), (UniPoly(a + (0, 0)), p), (p * q, q * p),
                     (p * 1, UniPoly(list(a)))]:
            assert x == y and hash(x) == hash(y)
    assert len({UniPoly((1, 2)), UniPoly((Fraction(2, 2), 2, 0)), t + t + one}) == 1


def test_unipoly_never_meets_a_one_variable_laurent_polynomial():
    p = t + one
    q = LaurentPoly(1, {(0,): 1, (1,): 1})
    assert p != q and q != p
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(TypeError):
            op(p, q)
        with pytest.raises(TypeError):
            op(q, p)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def det_poly(rows):
    n = len(rows)
    if n == 0:
        return one
    total = UniPoly.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = UniPoly.constant(Fraction(sign))
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def minor_gcd(rows, k):
    """gcd of all k x k minors, made monic; None when every minor vanishes."""
    nr, nc = len(rows), len(rows[0])
    g = UniPoly.zero()
    for ri in itertools.combinations(range(nr), k):
        for ci in itertools.combinations(range(nc), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = g.gcd(det_poly(sub))
    return g if g else None


def snf_oracle(rows):
    """Invariant factors via determinantal divisors d_k / d_{k-1}."""
    out = []
    prev = one
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        d = minor_gcd(rows, k)
        if d is None:
            break
        q, r = divmod(d, prev)
        assert not r
        out.append(q.monic())
        prev = d
    return out


def random_poly_matrix(rng, nr, nc, max_deg=2):
    return [[UniPoly(tuple(Fraction(rng.randint(-2, 2))
                           for _ in range(rng.randint(0, max_deg) + 1)))
             for _ in range(nc)] for _ in range(nr)]


def test_snf_diagonal_already():
    rows = [[t, UniPoly.zero()], [UniPoly.zero(), t * t]]
    assert smith_normal_form(rows) == [t, t * t]


def test_snf_reorders_divisibility():
    rows = [[t * t, UniPoly.zero()], [UniPoly.zero(), t]]
    assert smith_normal_form(rows) == [t, t * t]


def test_snf_classic_coupling():
    # off-diagonal coupling forces a nontrivial gcd step
    rows = [[t, t + one], [UniPoly.zero(), t]]
    facs = smith_normal_form(rows)
    assert facs == [one, t * t]


def test_snf_unit_matrix():
    rows = [[poly(2), UniPoly.zero()], [UniPoly.zero(), poly(5)]]
    assert smith_normal_form(rows) == [one, one]


def test_snf_rank_deficient():
    rows = [[t, t], [t, t]]
    assert smith_normal_form(rows) == [t]


def test_snf_matches_determinantal_divisors():
    rng = random.Random(99)
    for _ in range(30):
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 3)
        rows = random_poly_matrix(rng, nr, nc)
        assert smith_normal_form(rows) == snf_oracle(rows)


def test_snf_invariant_under_unimodular_moves():
    rng = random.Random(3)
    for _ in range(20):
        rows = random_poly_matrix(rng, 3, 3)
        base = smith_normal_form(rows)
        i, j = rng.sample(range(3), 2)
        f = UniPoly(tuple(Fraction(rng.randint(-2, 2)) for _ in range(2)))
        moved = [list(r) for r in rows]
        for c in range(3):
            moved[i][c] = moved[i][c] + f * moved[j][c]
        assert smith_normal_form(moved) == base


def test_snf_divisibility_chain():
    # the diagonal the reduction leaves need not be a chain; the gcd/lcm
    # merge must make d_1 | d_2 | ... hold
    rng = random.Random(17)
    shapes = [(3, 4)] * 20 + [(nr, nc) for nr in range(1, 5) for nc in range(1, 5)
                               for _ in range(8)]
    for k, (nr, nc) in enumerate(shapes):
        # odd draws: entries are products of shared linear factors, so the
        # invariants are not all units
        rows = (random_poly_matrix(rng, nr, nc) if k % 2 == 0 else
                [[math.prod((t - poly(rng.randint(-1, 1)) for _ in range(rng.randint(0, 2))),
                            start=poly(rng.randint(-2, 2))) for _ in range(nc)]
                 for _ in range(nr)])
        facs = smith_normal_form(rows)
        for a, b in zip(facs, facs[1:]):
            assert a.divides(b), rows
        assert all(f.lead() == 1 for f in facs)


def test_snf_of_a_matrix_without_rows_or_columns():
    assert smith_normal_form([]) == []
    assert smith_normal_form([[], []]) == []


def test_divisibility_chain_merges_by_gcd_and_lcm():
    assert divisibility_chain([t, t + one]) == [one, t * t + t]
    assert divisibility_chain([t * t, t]) == [t, t * t]
    assert divisibility_chain([poly(2), poly(0, 3)]) == [one, t]
    assert divisibility_chain([]) == []


# ---------------------------------------------------------------------------
# presented modules
# ---------------------------------------------------------------------------

def test_free_module():
    m = PresentedModule.free(3)
    assert m.invariants() == (3, ())
    assert not m.is_torsion()
    assert m.length() is None


def test_cyclic_torsion_module():
    m = PresentedModule.cyclic(t * t)
    assert m.invariants() == (0, (t * t,))
    assert m.is_torsion()
    assert m.length() == 2


def test_cyclic_unit_is_zero_module():
    m = PresentedModule.cyclic(one)
    assert m.invariants() == (0, ())
    assert m.length() == 0


def test_invariants_drop_units():
    m = PresentedModule(2, [[poly(4), UniPoly.zero()],
                            [UniPoly.zero(), t + one]])
    assert m.invariants() == (0, (t + one,))
    assert m.length() == 1


def test_direct_sum():
    a = PresentedModule.cyclic(t)
    b = PresentedModule.free(1)
    s = a.direct_sum(b)
    assert s.invariants() == (1, (t,))
    assert s.length() is None


def test_invariants_computed_once(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return smith_normal_form(matrix)

    monkeypatch.setattr(presented, "smith_normal_form", counting)
    m = PresentedModule(2, [[t * t, t], [t, t * t]])
    assert m.invariants() == (0, (t, t * (t * t - one)))
    assert m.is_torsion()
    assert m.length() == 4
    assert m.invariants() == (0, (t, t * (t * t - one)))
    assert len(calls) == 1


def test_relation_shape_validated():
    with pytest.raises(ValueError):
        PresentedModule(2, [[t]])
