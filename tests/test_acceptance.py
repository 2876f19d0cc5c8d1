"""End-to-end acceptance checks.

Each test covers one advertised capability, prints a single verdict line
(with capture suspended, so it shows up under any pytest capture mode), and
enforces a wall-clock budget.  Random data is seeded, so reruns are
reproducible.
"""

import itertools
import random
import sys
import time
from fractions import Fraction

from conftest import random_graded_operator, random_polynomial
from jetspace.cohomology import h0_line, h0_sym_tangent
from jetspace.growth import verify_growth
from jetspace.jets import jet_free_rank, jet_of_presented, universal_derivation
from jetspace.laurent import LaurentPoly, monomials_of_degree
from jetspace.presented import PresentedModule, UniPoly, smith_normal_form
from jetspace.projective import (block_operator, do_dimension,
                                 induced_cohomology_map,
                                 negative_twist_existence)
from jetspace.symbols import (elliptic_algebraic, elliptic_real, symbol_of,
                              torus_operator_check)
from jetspace.weyl import WeylElement, euler_operator


def _report(capfd, num, slug, failures, elapsed, budget):
    ok = not failures and elapsed <= budget
    status = "PASS" if ok else "FAIL"
    line = (f"[acceptance {num:02d}] {slug}: {status} "
            f"({elapsed:.2f}s / budget {budget:.0f}s)\n")
    with capfd.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()
    assert not failures, f"acceptance {num:02d} {slug}: {failures[:3]}"
    assert elapsed <= budget, (
        f"acceptance {num:02d} {slug}: {elapsed:.2f}s over budget {budget}s")


def test_criterion_01_composition_faithfulness(capfd):
    """Composing operators agrees with iterated application, Laurent included."""
    t0 = time.monotonic()
    rng = random.Random(11)
    failures = []
    for trial in range(500):
        nvars = rng.randint(1, 3)
        d1 = random_graded_operator(rng, nvars, rng.randint(-2, 2), 3)
        d2 = random_graded_operator(rng, nvars, rng.randint(-2, 2), 3)
        prod = d1 * d2
        for gamma in itertools.product(range(-4, 5), repeat=nvars):
            mono = LaurentPoly.monomial(gamma)
            if prod.apply(mono) != d1.apply(d2.apply(mono)):
                failures.append((trial, gamma, d1.serialize(), d2.serialize()))
                break
    _report(capfd,1, "weyl-composition-faithfulness", failures,
            time.monotonic() - t0, 30)


def test_criterion_02_projective_line_baseline(capfd):
    """dim DO^1(O, O) = 4 on the line; order 0 reduces to global sections."""
    t0 = time.monotonic()
    failures = []
    if do_dimension(1, 0, 0, 1) != 4:
        failures.append(("base", do_dimension(1, 0, 0, 1)))
    for a in range(-5, 6):
        for b in range(-5, 6):
            got = do_dimension(1, a, b, 0)
            want = h0_line(1, b - a)
            if got != want:
                failures.append((a, b, got, want))
    _report(capfd,2, "projective-line-baseline", failures, time.monotonic() - t0, 10)


def test_criterion_03_tangent_sections(capfd):
    """Sections of the tangent sheaf have dimension n^2 + 2n."""
    t0 = time.monotonic()
    failures = []
    for n in (2, 3):
        got = h0_sym_tangent(n, 1, 0).h0
        if got != n * n + 2 * n:
            failures.append((n, got))
    _report(capfd,3, "tangent-sheaf-sections", failures, time.monotonic() - t0, 30)


_PLANE_PAIRS = [(0, 0), (0, 1), (0, -1), (0, 2)]


def test_criterion_04_difference_law_on_plane(capfd):
    """Past a finite threshold M <= 4, each unit of extra order contributes
    exactly h^0(Sym^N T(b-a)) new operators on the plane."""
    t0 = time.monotonic()
    failures = []
    for a, b in _PLANE_PAIRS:
        report = verify_growth(2, a, b, 4)
        m = report.table.threshold
        if m > 4:
            failures.append((a, b, "threshold", m))
        for row in report.table.rows[m + 1:]:
            if not row.match:
                failures.append((a, b, row.order, row.delta, row.expected_delta))
    _report(capfd,4, "order-increment-law", failures, time.monotonic() - t0, 300)


def test_criterion_05_growth_polynomial(capfd):
    """Dimensions follow a degree-2n polynomial with leading term 1/(n!)^2."""
    t0 = time.monotonic()
    failures = []
    for a, b in _PLANE_PAIRS:
        report = verify_growth(2, a, b, 4)
        poly = report.polynomial
        if not report.verdict:
            failures.append((a, b, "verdict", report.first_failure))
        if poly.degree != 4:
            failures.append((a, b, "degree", poly.degree))
        if poly.coeffs[-1] != Fraction(1, 4):
            failures.append((a, b, "lead", poly.coeffs[-1]))
        for row in report.table.rows:
            if row.order >= report.table.threshold and \
                    poly.evaluate(row.order) != row.dim:
                failures.append((a, b, "value", row.order))
    _report(capfd,5, "growth-polynomial", failures, time.monotonic() - t0, 300)


def test_criterion_06_negative_twist_operators(capfd):
    """Operators into a negative twist exist on the plane: none at order 0,
    a 3-dimensional space at order 1."""
    t0 = time.monotonic()
    failures = []
    res = negative_twist_existence(2, 1)
    if not res.found or res.order != 1:
        failures.append(("order", res.order))
    if res.dim != 3:
        failures.append(("dim", res.dim))
    if do_dimension(2, 0, -1, 0) != 0:
        failures.append(("order0", do_dimension(2, 0, -1, 0)))
    _report(capfd,6, "negative-twist-existence", failures, time.monotonic() - t0, 30)


def test_criterion_07_induced_cohomology_maps(capfd):
    """The Euler operator scales top cohomology of O(-(n+1)) by -(n+1), and
    taking induced matrices is functorial for composition."""
    t0 = time.monotonic()
    failures = []
    for n in (1, 2, 3):
        k = -(n + 1)
        mat = induced_cohomology_map(n, k, k, euler_operator(n + 1), n)
        if mat.to_rows() != [[k]]:
            failures.append((n, "euler", mat.to_rows()))
    rng = random.Random(7)
    for trial in range(100):
        n = rng.choice([1, 2])
        a = rng.randint(-3, 2)
        i = rng.choice([0, n])
        op2 = random_graded_operator(rng, n + 1, rng.randint(-1, 1), 2)
        op1 = random_graded_operator(rng, n + 1, rng.randint(-1, 1), 2)
        b = a + op2.degree()
        c = b + op1.degree()
        m2 = induced_cohomology_map(n, a, b, op2, i)
        m1 = induced_cohomology_map(n, b, c, op1, i)
        if m1 @ m2 != induced_cohomology_map(n, a, c, op1 * op2, i):
            failures.append((trial, n, a, i))
    _report(capfd,7, "induced-cohomology-maps", failures, time.monotonic() - t0, 30)


def test_criterion_08_jet_modules(capfd):
    """Free ranks, multiplicativity of the universal derivation, and
    presentation independence of jets of presented modules."""
    t0 = time.monotonic()
    failures = []
    # free ranks against an explicit basis count
    for m in range(1, 6):
        for order in range(11):
            want = sum(len(monomials_of_degree(m, k)) for k in range(order + 1))
            if jet_free_rank(m, order) != want:
                failures.append(("rank", m, order))
    # multiplicativity d(fg) = d(f) d(g) in the truncated ring
    rng = random.Random(29)
    for trial in range(200):
        order = rng.randint(0, 3)
        f = random_polynomial(rng, 2, 3)
        g = random_polynomial(rng, 2, 3)
        lhs = universal_derivation(f * g, order)
        if lhs != universal_derivation(f, order) * universal_derivation(g, order):
            failures.append(("mult", trial))
    # jets only see the cokernel: any presentation of the same module
    # (here: the original matrix vs its diagonal form) gives isomorphic jets
    for trial in range(50):
        g = rng.randint(1, 3)
        r = rng.randint(1, 3)
        rows = [[UniPoly(tuple(Fraction(rng.randint(-2, 2))
                               for _ in range(rng.randint(1, 3))))
                 for _ in range(r)] for _ in range(g)]
        module = PresentedModule(g, rows)
        facs = smith_normal_form(rows)
        diag = PresentedModule.free(g - len(facs))
        for f in facs:
            diag = diag.direct_sum(PresentedModule.cyclic(f))
        if module.invariants() != diag.invariants():
            failures.append(("diag", trial))
            continue
        order = rng.randint(0, 2)
        ja = jet_of_presented(module, order).invariants()
        jb = jet_of_presented(diag, order).invariants()
        if ja != jb:
            failures.append(("jet", trial, ja, jb))
    _report(capfd,8, "jet-modules", failures, time.monotonic() - t0, 60)


def test_criterion_09_symbols_and_ellipticity(capfd):
    """Symbol extraction, multiplicativity of principal parts, and both
    ellipticity verdicts on the standard second-order examples."""
    t0 = time.monotonic()
    failures = []
    d0 = WeylElement.d(0, 2)
    d1 = WeylElement.d(1, 2)
    x0 = WeylElement.x(0, 2)
    lap = d0 * d0 + d1 * d1
    wave = d0 * d0 - d1 * d1
    sym = symbol_of(lap, 2)
    want = LaurentPoly(4, {(0, 0, 2, 0): Fraction(1), (0, 0, 0, 2): Fraction(1)})
    if sym.entries[0][0] != want:
        failures.append("laplace-symbol")
    if symbol_of(x0 * d0 + WeylElement.one(2), 1).entries[0][0] != \
            LaurentPoly(4, {(1, 0, 1, 0): Fraction(1)}):
        failures.append("first-order-symbol")
    ab = symbol_of((x0 * d0 * d0) * (d0 * d1), 4)
    if ab.entries[0][0] != (symbol_of(x0 * d0 * d0, 2) @ symbol_of(d0 * d1, 2)
                            ).entries[0][0]:
        failures.append("symbol-multiplicativity")
    if elliptic_real(sym).verdict != "true":
        failures.append("laplace-real")
    wave_res = elliptic_real(symbol_of(wave, 2))
    if wave_res.verdict != "false" or wave_res.witness is None:
        failures.append("wave-real")
    else:
        vals = (Fraction(0), Fraction(0)) + tuple(wave_res.witness.components)
        if symbol_of(wave, 2).entries[0][0].evaluate(vals) != 0:
            failures.append("wave-witness")
    if elliptic_real(symbol_of(d0 * d1, 2)).verdict != "false":
        failures.append("mixed-real")
    alg = elliptic_algebraic(sym)
    if alg.elliptic or alg.witness is None or \
            alg.witness.defining_poly != (1, 0, 1) or alg.witness.real:
        failures.append("laplace-algebraic")
    single = WeylElement.d(0, 1)
    if not elliptic_algebraic(symbol_of(single * single, 2)).elliptic:
        failures.append("single-variable")
    if not torus_operator_check(d0 * d1) or torus_operator_check(x0 * d1):
        failures.append("torus-check")
    _report(capfd,9, "symbols-and-ellipticity", failures, time.monotonic() - t0, 10)


def test_criterion_10_block_operators(capfd):
    """Unipotent block operators on split rank-2 bundles verify exactly:
    second summand preserved, graded pieces fixed, order read off the
    coupling, vanishing symbol determinant."""
    t0 = time.monotonic()
    failures = []
    rng = random.Random(83)
    for trial in range(20):
        m = rng.randint(-1, 1)
        delta = rng.randint(0, 2)
        d = m + delta
        if rng.random() < 0.15:
            d12 = WeylElement.zero(2)
        else:
            d12 = random_graded_operator(rng, 2, delta, 2, max_terms=2)
        block = block_operator(1, m, d, d12)
        report = block.verify()
        if not report.ok:
            failures.append((trial, "verify"))
            continue
        want_order = d12.order() if not d12.is_zero() else 0
        if report.order != want_order:
            failures.append((trial, "order", report.order, want_order))
        r = report.order
        if r >= 1:
            det = symbol_of([[WeylElement.one(2), WeylElement.zero(2)],
                             [d12, WeylElement.one(2)]], r).xi_det()
            if not det.is_zero():
                failures.append((trial, "symbol-det"))
    _report(capfd,10, "block-operators", failures, time.monotonic() - t0, 30)
