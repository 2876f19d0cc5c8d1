import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polynomial
from jetspace import jets, presented
from jetspace.errors import WORK_LIMIT, PreconditionError
from jetspace.jets import (JetElement, cyclic_jet_invariants,
                           do_jet_correspondence_check, evaluate_jet_map,
                           jet_free_rank, jet_of_presented,
                           operator_to_jet_map, symbol_quotient_check,
                           universal_derivation)
from jetspace.laurent import LaurentPoly
from jetspace.presented import PresentedModule, UniPoly
from jetspace.weyl import WeylElement

t = UniPoly.t()


def lp(nvars, terms):
    return LaurentPoly(nvars, {k: Fraction(v) for k, v in terms.items()})


# ---------------------------------------------------------------------------
# truncated polynomial model
# ---------------------------------------------------------------------------

def test_truncation_drops_high_jets():
    # dx^2 vanishes at order 1
    j = JetElement(1, 1, LaurentPoly.monomial((0, 2)))
    assert j.is_zero()


def test_jet_multiplication_truncates():
    dx = JetElement(1, 1, LaurentPoly.monomial((0, 1)))
    assert (dx * dx).is_zero()
    dx2 = JetElement(1, 2, LaurentPoly.monomial((0, 1)))
    assert not (dx2 * dx2).is_zero()
    assert (dx2 * dx2 * dx2).is_zero()


def test_jet_element_linear_structure_and_hash():
    x, dx = LaurentPoly.monomial((1, 0)), LaurentPoly.monomial((0, 1))
    f = JetElement(1, 2, x + dx * dx)
    g = JetElement(1, 2, dx * 3)
    assert f - g == JetElement(1, 2, x + dx * dx - dx * 3)
    assert -f == JetElement(1, 2, -x - dx * dx)
    assert (f - f).is_zero() and (-(-f)) == f
    half = Fraction(1, 2)
    assert f * half == half * f == JetElement(1, 2, (x + dx * dx) * half)
    assert f * 2 == 2 * f == f + f
    # truncation makes different polynomials equal jets, with equal hashes
    h = JetElement(1, 1, x + dx * dx)
    assert h == JetElement(1, 1, x) and hash(h) == hash(JetElement(1, 1, x))
    assert f + g - g == f and hash(f + g - g) == hash(f)
    for other in (JetElement(1, 1, x), JetElement(2, 2, LaurentPoly.monomial((1, 0, 0, 0)))):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(ValueError, match="jet shape mismatch"):
                op(f, other)


# ---------------------------------------------------------------------------
# universal derivation
# ---------------------------------------------------------------------------

def test_universal_derivation_product_example():
    f = lp(2, {(1, 1): 1})            # xy
    j = universal_derivation(f, 2)
    # (x+dx)(y+dy) = xy + x dy + y dx + dx dy
    assert len(j.poly.terms) == 4
    assert j.poly.coefficient((1, 1, 0, 0)) == 1
    assert j.poly.coefficient((1, 0, 0, 1)) == 1
    assert j.poly.coefficient((0, 1, 1, 0)) == 1
    assert j.poly.coefficient((0, 0, 1, 1)) == 1


def test_universal_derivation_square():
    f = lp(1, {(2,): 1})
    j = universal_derivation(f, 3)
    # (x + dx)^2 = x^2 + 2x dx + dx^2
    assert j.poly.coefficient((2, 0)) == 1
    assert j.poly.coefficient((1, 1)) == 2
    assert j.poly.coefficient((0, 2)) == 1
    assert j.poly.coefficient((0, 3)) == 0


def test_universal_derivation_rejects_laurent():
    f = LaurentPoly.monomial((-1,))
    with pytest.raises(PreconditionError):
        universal_derivation(f, 2)


def test_work_estimates_decide_before_any_binomial(monkeypatch):
    # x^20000 at N = 20000 ran for over a minute, x^(100,100,100) at N = 300
    # 17.5 s, m = N = 10^6 47.6 s; x^5000 at N = 5000 takes 2.2 s and
    # m = N = 10^5 0.8 s, so those are accepted (2-core Xeon, Py 3.11), as
    # is x^(10^9) at N = 1, whose coefficients are at most C(10^9, 1)
    def refuse(*args):
        raise AssertionError("binomial computed")

    monkeypatch.setattr(jets, "comb", refuse)
    for call in (lambda: universal_derivation(lp(1, {(20000,): 1}), 20000),
                 lambda: universal_derivation(lp(3, {(100, 100, 100): 1}), 300),
                 lambda: jet_free_rank(10 ** 6, 10 ** 6)):
        with pytest.raises(PreconditionError, match=r"has a work estimate of 2\^\d+ or more"):
            call()
    monkeypatch.setattr(jets, "comb", lambda *args: 1)
    assert len(universal_derivation(lp(1, {(5000,): 1}), 5000).poly.terms) == 5001
    assert len(universal_derivation(lp(1, {(10 ** 9,): 1}), 1).poly.terms) == 2
    assert jet_free_rank(10 ** 5, 10 ** 5) == 1


@given(st.integers(0, 3), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_universal_derivation_multiplicative(order, rng):
    f = random_polynomial(rng, 2, 3)
    g = random_polynomial(rng, 2, 3)
    lhs = universal_derivation(f * g, order)
    rhs = universal_derivation(f, order) * universal_derivation(g, order)
    assert lhs == rhs


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_universal_derivation_additive(rng):
    f = random_polynomial(rng, 2, 3)
    g = random_polynomial(rng, 2, 3)
    assert universal_derivation(f + g, 2) == (
        universal_derivation(f, 2) + universal_derivation(g, 2))


# ---------------------------------------------------------------------------
# the oracle: the prolonged (Taylor-layer) presentation of a jet module
# ---------------------------------------------------------------------------

def taylor_layers(p):
    """q_0, q_1, ..., q_deg with p(t + s) = sum_k q_k(t) s^k: q_k is the k-th
    derivative of p over k!, from binomials, so everything stays exact."""
    n = p.degree() + 1
    layers = [[Fraction(0)] * (n - k) for k in range(n)]
    for j, c in p.terms.items():
        for k in range(j + 1):
            layers[k][j - k] += c * math.comb(j, k)
    return [UniPoly(layer) for layer in layers]


def prolonged_presentation(module, order):
    """J^N(coker R) from its definition, reading no invariant of the module:
    generators are (generator, dt-layer) pairs, and relation column c at
    shift s is dt^s R_c(t + dt) truncated past dt^N, over the dt-power basis.
    Its Smith form is the oracle for jet_of_presented."""
    g, r, layers = module.gens, module.relation_count, order + 1
    rels = [[UniPoly.zero()] * (r * layers) for _ in range(g * layers)]
    for i, row in enumerate(module.relations):
        for c, p in enumerate(row):
            taylor = taylor_layers(p)
            for s in range(layers):
                for k, q in enumerate(taylor[:layers - s]):
                    rels[i * layers + s + k][c * layers + s] = q
    return PresentedModule(g * layers, rels)


def test_taylor_layers_expand_p_at_t_plus_s():
    # p(t + s) = sum_k q_k(t) s^k
    p = t ** 3 - t
    layers = taylor_layers(p)
    assert layers[0] == p
    assert layers[1] == UniPoly((-1, 0, 3))     # p'
    assert layers[2] == UniPoly((0, 3))         # p''/2
    assert layers[3] == UniPoly.one()
    s = Fraction(2, 3)
    u = Fraction(-1, 4)
    direct = p.evaluate(u + s)
    via_layers = sum(q.evaluate(u) * s ** k for k, q in enumerate(layers))
    assert direct == via_layers
    assert taylor_layers(UniPoly.zero()) == []


# ---------------------------------------------------------------------------
# free ranks and jets of presented modules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,order", [(1, 0), (1, 4), (2, 1), (2, 2), (3, 2)])
def test_jet_free_rank_formula(m, order):
    assert jet_free_rank(m, order) == math.comb(m + order, order)


def test_jet_free_rank_scales_with_rank():
    assert jet_free_rank(2, 2, rank=3) == 3 * 6


def test_jet_of_free_module():
    m = PresentedModule.free(2)
    j = jet_of_presented(m, 3)
    assert j.invariants() == (jet_free_rank(1, 3, rank=2), ())


def test_jet_of_order_zero_is_identity():
    m = PresentedModule.cyclic(t * t)
    j = jet_of_presented(m, 0)
    assert j.invariants() == m.invariants()


def test_first_jet_of_double_point():
    # J^1 of k[t]/(t^2) has invariant factors (t, t^3)
    m = PresentedModule.cyclic(t * t)
    j = jet_of_presented(m, 1)
    assert j.invariants() == (0, (t, t ** 3))
    assert j.length() == 4


def test_jet_lengths_of_fat_points():
    # length of J^N(k[t]/(t^d)) is d*(N+1) for these small cases
    for d in (1, 2, 3):
        for order in (0, 1, 2, 3):
            m = PresentedModule.cyclic(t ** d)
            j = jet_of_presented(m, order)
            assert j.is_torsion()
            assert j.length() == d * (order + 1)


def test_jet_of_reduced_points_thickens():
    # J^1 of k[t]/(p) for separable p is the first-order thickening k[t]/(p^2)
    p = t * t - UniPoly.one()
    m = PresentedModule.cyclic(p)
    j = jet_of_presented(m, 1)
    assert j.is_torsion()
    assert j.invariants() == (0, (p * p,))
    assert j.length() == 4


def test_jet_presentation_independence():
    # the same module presented two ways yields isomorphic jets
    direct = PresentedModule.cyclic(t * t)
    padded = PresentedModule(2, [
        [t * t, UniPoly.zero()],
        [UniPoly.zero(), UniPoly.one()],
    ])
    assert padded.invariants() == direct.invariants()
    for order in (0, 1, 2):
        want = prolonged_presentation(direct, order).invariants()
        assert prolonged_presentation(padded, order).invariants() == want
        for module in (direct, padded):
            assert jet_of_presented(module, order).invariants() == want


# ---------------------------------------------------------------------------
# closed-form jets of cyclic modules, against the prolonged presentation
# ---------------------------------------------------------------------------

def _random_modulus(rng, top=3, cap=7):
    """c * prod (t - root)^e * prod (t^2 + k)^e: degree <= cap, e in 1..top,
    distinct roots, so the multiplicities are exactly the e drawn."""
    p, degree = UniPoly.constant(rng.choice([-3, -1, 1, 2, Fraction(1, 2)])), 0
    roots = rng.sample(range(-3, 4), 3)
    shifts = rng.sample(range(1, 5), 2)
    factors = [t - UniPoly.constant(r) for r in roots]
    factors += [t * t + UniPoly.constant(k) for k in shifts]
    rng.shuffle(factors)
    for f in factors:
        e = rng.randint(1, top)
        if degree + e * f.degree() <= cap and rng.random() < 0.6:
            p = p * f ** e
            degree += e * f.degree()
    return p


def test_cyclic_jet_invariants_match_smith_form():
    rng = random.Random(20261018)
    cases = [(_random_modulus(rng), rng.randint(0, 4)) for _ in range(40)]
    # multiplicities up to 4, at every N from 0 to one past the top one
    cases += [(p, order) for p in (_random_modulus(rng, top=4, cap=6) for _ in range(12))
              for order in range(6)]
    # multiplicity 3 above the jet order: N + 1 < e; a unit modulus
    cases += [((t - UniPoly.one()) ** 3 * (t * t + UniPoly.one()), 0),
              (t ** 3 * (t + UniPoly.one()) ** 2, 1),
              ((t + UniPoly.one()) ** 4 * (t * t + UniPoly.constant(2)), 2),
              (UniPoly.constant(Fraction(-2, 3)), 3)]
    for p, order in cases:
        free_rank, torsion = prolonged_presentation(PresentedModule.cyclic(p),
                                                    order).invariants()
        assert free_rank == 0
        assert cyclic_jet_invariants(p, order) == torsion, (p, order)


@pytest.mark.parametrize("seed", range(6))
def test_cyclic_jet_invariants_product_and_length(seed):
    rng = random.Random(seed)
    p, order = _random_modulus(rng), rng.randint(0, 6)
    invariants = cyclic_jet_invariants(p, order)
    product = UniPoly.one()
    for d in invariants:
        product = product * d
    assert product == p.monic() ** (order + 1)
    assert sum(d.degree() for d in invariants) == p.degree() * (order + 1)
    for smaller, larger in zip(invariants, invariants[1:]):
        assert smaller.divides(larger)


def test_cyclic_jet_invariants_fat_point_high_order():
    assert cyclic_jet_invariants(t * t, 40) == (t ** 40, t ** 42)


def test_cyclic_jet_invariants_units_and_errors():
    assert cyclic_jet_invariants(UniPoly.constant(4), 5) == ()
    assert cyclic_jet_invariants(t, 0) == (t,)
    with pytest.raises(PreconditionError):
        cyclic_jet_invariants(UniPoly.zero(), 2)
    with pytest.raises(PreconditionError):
        cyclic_jet_invariants(t, -1)


def test_cyclic_jet_invariants_refuse_by_their_work_estimate(monkeypatch):
    # Fraction products of the gcd chain and of the powers, from the
    # degree, the length deg(p)(N + 1) and the coefficient bits: t + 1 is
    # accepted up to N = 376 (0.4 s), and a 1000-digit constant term at
    # N = 200 (past 120 s before) is refused before any work
    one, big = UniPoly.one(), UniPoly.constant(7 ** 1183 + 1)
    assert jets._cyclic_work(t + one, 376) <= WORK_LIMIT < jets._cyclic_work(t + one, 377)
    assert sum(d.degree() for d in cyclic_jet_invariants(t * t + t, 60)) == 122

    def refuse(*args):
        raise AssertionError("gcd chain computed")

    monkeypatch.setattr(UniPoly, "gcd", refuse)
    for p, order in ((t + big, 200), (t + one, 377), (t * t + t, 10 ** 8),
                     (UniPoly(range(1, 1001)), 0)):
        with pytest.raises(PreconditionError, match=(
                rf"the jet module of Q\[t\]/\(p\) at N={order} \(deg p = {p.degree()}\) "
                r"has a work estimate of 2\^\d+ or more, above the limit 2\^37")):
            cyclic_jet_invariants(p, order)


def test_jet_of_presented_refuses_by_its_work_estimate(monkeypatch):
    # one estimate of every invariant factor's gcd chain and powers, of the
    # merge and of the presentation, made before any chain: t + 1 twice is
    # refused at N = 130, where its cyclic jets alone are far within
    one = UniPoly.one()
    twice = PresentedModule(2, [[t + one, UniPoly.zero()], [UniPoly.zero(), t + one]])
    assert twice.invariants() == (0, (t + one, t + one))
    assert jets._presented_work(0, (t + one, t + one), 129) <= WORK_LIMIT
    assert 2 * jets._cyclic_work(t + one, 130) < WORK_LIMIT // 16
    assert jets._presented_work(0, (t + one,), 376) <= WORK_LIMIT
    assert jet_of_presented(twice, 20).length() == 42
    cases = [(twice, 130), (PresentedModule.cyclic(t + one), 377),
             (PresentedModule.free(1), 10 ** 8)]

    def refuse(*args):
        raise AssertionError("gcd chain computed")

    monkeypatch.setattr(UniPoly, "gcd", refuse)
    for module, order in cases:
        free_rank, torsion = module.invariants()
        what = (f"the jet module at N={order} of a Q[t]-module of free rank {free_rank} "
                f"and torsion degrees {[d.degree() for d in torsion]} has a work estimate")
        with pytest.raises(PreconditionError, match=re.escape(what) + (
                r" of 2\^\d+ or more, above the limit 2\^37")):
            jet_of_presented(module, order)
    with pytest.raises(PreconditionError, match="jet order must be nonnegative"):
        jet_of_presented(twice, -1)


def test_smith_form_refuses_by_its_work_estimate_before_any_division(monkeypatch):
    # the Taylor-layer presentations of this module: 18 x 18 at N = 8 (CI
    # runs its Smith form, 0.5 s) is within the limit, 26 x 26 at N = 12
    # (6 s) is not, and is refused before a single polynomial division
    one = UniPoly.one()
    coupled = PresentedModule(2, [[t, one + t], [one + t * t, t ** 3]])
    accepted = prolonged_presentation(coupled, 8)
    refused = prolonged_presentation(coupled, 12)
    assert presented._smith_work([list(r) for r in accepted.relations], 18) <= WORK_LIMIT

    def divide(*args):
        raise AssertionError("polynomial division run")

    monkeypatch.setattr(UniPoly, "__divmod__", divide)
    message = (r"the Smith form of a 26x26 matrix over Q\[t\] has a work estimate "
               r"of 2\^\d+ or more, above the limit 2\^37")
    with pytest.raises(PreconditionError, match=message):
        presented.smith_normal_form(refused.relations)
    # jet_of_presented reads M's invariants first, so the same refusal
    with pytest.raises(PreconditionError, match=message):
        jet_of_presented(refused, 0)


def test_jet_module_knows_its_invariant_factors(monkeypatch):
    one, zero = UniPoly.one(), UniPoly.zero()
    a, b = (t - one) ** 2 * (t + UniPoly.constant(2)), (t - one) ** 3
    modules = [PresentedModule(2, [[a, zero], [zero, b]]),
               PresentedModule(2, [[t, one + t], [one + t * t, t ** 3]]),
               PresentedModule(3, [[t * t, t], [zero, zero], [t, one - t]]),
               PresentedModule.free(2)]
    cases = [(m, order) for m in modules for order in (0, 3, 10)]
    jets_ = [jet_of_presented(m, order) for m, order in cases]
    fresh = [PresentedModule(j.gens, j.relations).invariants() for j in jets_]

    def smith(*args):
        raise AssertionError("second Smith form run")

    monkeypatch.setattr(presented, "smith_normal_form", smith)
    assert [j.invariants() for j in jets_] == fresh
    # length deg(a b) (N + 1), read off the recorded chain
    assert [j.length() for j in jets_[:3]] == [6 * (order + 1) for order in (0, 3, 10)]


def test_jets_of_presented_modules_by_additivity():
    one = UniPoly.one()
    zero = UniPoly.zero()
    coupled = PresentedModule(2, [[t, one + t], [one + t * t, t ** 3]])
    # summands whose factors share roots, so the cyclic jets merge by gcd/lcm
    a, b = (t - one) ** 2 * (t + UniPoly.constant(2)), (t - one) ** 3
    shared = PresentedModule(2, [[a, zero], [zero, b]])
    # the same module after adding t times the second row to the first
    twisted = PresentedModule(2, [[a, t * b], [zero, b]])
    # from N = 1 on, t and 1 each lie in only two of the three cyclic jet
    # factors, so their merge has a unit, dropped
    apart = PresentedModule(2, [[t, zero], [zero, t * (t - one) ** 2]])
    # free parts beside torsion
    mixed = PresentedModule(3, [[t * t, t], [zero, zero], [t, one - t]])
    half_free = PresentedModule(2, [[(t - one) ** 2], [t - one]])
    cases = [(m, order) for m in (coupled, shared, twisted, apart, mixed, half_free)
             for order in range(7)]
    # no relations, and a zero relation
    cases += [(PresentedModule.free(2), 2), (PresentedModule(1, [[zero]]), 3)]
    rng = random.Random(20261019)
    for _ in range(40):
        gens, rels = rng.randint(1, 3), rng.randint(0, 3)
        rows = [[UniPoly(Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 3)))
                 for _ in range(rels)] for _ in range(gens)]
        cases += [(PresentedModule(gens, rows), order) for order in range(4)]
    for module, order in cases:
        free_rank, torsion = prolonged_presentation(module, order).invariants()
        jet = jet_of_presented(module, order)
        assert jet.invariants() == (free_rank, torsion), (module.relations, order)
        # a minimal presentation: free generators, then diag of the invariants
        diagonal = [[d if j == i else zero for j in range(len(torsion))]
                    for i, d in enumerate(torsion)]
        assert jet.relations == tuple(map(tuple, [[zero] * len(torsion)] * free_rank
                                          + diagonal)), (module.relations, order)
    assert shared.invariants() == twisted.invariants()
    assert mixed.invariants()[0] == 1 and half_free.invariants()[0] == 1


# ---------------------------------------------------------------------------
# operator / jet-map dictionary
# ---------------------------------------------------------------------------

def test_operator_to_jet_map_weights():
    # x d^2 contributes 2! * x on the dx^2 slot
    op = WeylElement.monomial((1,), (2,))
    table = operator_to_jet_map(op, 2)
    assert set(table) == {(2,)}
    assert table[(2,)] == lp(1, {(1,): 2})


def test_operator_to_jet_map_rejects_low_order():
    op = WeylElement.d(0, 1) * WeylElement.d(0, 1)
    with pytest.raises(PreconditionError):
        operator_to_jet_map(op, 1)


def test_do_jet_correspondence_examples():
    d = WeylElement.d(0, 2)
    assert do_jet_correspondence_check(d, 1)
    lap = d * d + WeylElement.d(1, 2) * WeylElement.d(1, 2)
    assert do_jet_correspondence_check(lap, 2)
    euler_like = WeylElement.x(0, 2) * WeylElement.d(0, 2)
    assert do_jet_correspondence_check(euler_like, 3)


def test_do_jet_correspondence_random():
    rng = random.Random(41)
    from conftest import random_graded_operator
    for _ in range(15):
        op = random_graded_operator(rng, 2, rng.randint(0, 2), 2)
        order = max(op.order(), 0)
        testset = [random_polynomial(rng, 2, 3) for _ in range(4)]
        assert do_jet_correspondence_check(op, order, testset=testset)


def test_evaluate_jet_map_is_linear():
    op = WeylElement.x(0, 1) * WeylElement.d(0, 1)
    table = operator_to_jet_map(op, 1)
    f = lp(1, {(2,): 3})
    g = lp(1, {(1,): 1, (0,): 2})
    jf = universal_derivation(f, 1)
    jg = universal_derivation(g, 1)
    assert evaluate_jet_map(table, jf + jg) == (
        evaluate_jet_map(table, jf) + evaluate_jet_map(table, jg))


# ---------------------------------------------------------------------------
# symbol quotient dimensions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,order,expected", [
    (1, 1, 1), (1, 5, 1), (2, 1, 2), (2, 3, 4), (3, 2, 6),
])
def test_symbol_quotient_dimension(m, order, expected):
    res = symbol_quotient_check(m, order)
    assert res.ok
    assert bool(res)
    assert res.dimension == expected
    assert res.dimension == math.comb(m + order - 1, order)
