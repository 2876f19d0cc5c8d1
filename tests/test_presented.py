import itertools
import random
from fractions import Fraction

import pytest

import jetspace.presented as presented
from jetspace.presented import PresentedModule, UniPoly, smith_normal_form

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
    rng = random.Random(17)
    for _ in range(20):
        rows = random_poly_matrix(rng, 3, 4)
        facs = smith_normal_form(rows)
        for a, b in zip(facs, facs[1:]):
            assert a.divides(b)
        assert all(f.lead() == 1 for f in facs)


def test_squarefree_parts_of_units():
    assert one.squarefree_parts() == []
    assert poly(-7).squarefree_parts() == []
    assert poly(Fraction(5, 3)).squarefree_parts() == []


def test_squarefree_parts_mixed_multiplicities():
    p = (t - one) ** 2 * (t * t + one) ** 3 * 4
    assert p.squarefree_parts() == [one, t - one, t * t + one]


def test_squarefree_parts_rebuild_random_products():
    rng = random.Random(5)
    for _ in range(20):
        p = poly(rng.choice([-2, 1, 3]))
        for root in rng.sample(range(-4, 5), 3):
            p = p * (t - poly(root)) ** rng.randint(0, 3)
        parts = p.squarefree_parts()
        rebuilt = one
        for e, q in enumerate(parts, start=1):
            assert q == q.monic()
            assert q.gcd(q.derivative()) == one
            rebuilt = rebuilt * q ** e
        assert rebuilt == p.monic()
        assert not parts or not parts[-1].is_unit()


def test_squarefree_parts_rejects_zero():
    with pytest.raises(ValueError):
        UniPoly.zero().squarefree_parts()


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
