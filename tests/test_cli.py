import importlib.util
import json
import math
import re
import shlex
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

from jetspace import cohomology, dimensions, errors, growth, jets, projective, symbols
from jetspace.cli import main
from jetspace.errors import InconsistencyError
from jetspace.presented import UniPoly
from jetspace.growth import default_n_max
from jetspace.weyl import WeylElement


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def power_sum(m, k, coeffs=None):
    """Operator text of sum_i c_i d_i^k in m variables, whose symbol is the
    power sum sum_i c_i s_i^k (every c_i = 1 by default)."""
    zero = ",".join("0" * m)
    return " + ".join(f"{c} * x^({zero}) d^({','.join(str(k * (j == i)) for j in range(m))})"
                      for i, c in enumerate(coeffs or [1] * m))


def dense_first_order(r):
    """An r x r --matrix of first-order operators a d0 - b d1, none zero."""
    return json.dumps([[f"{(i * r + j) % 7 + 1} * x^(0,0) d^(1,0) + "
                        f"-{(i + 2 * j) % 5 + 1} * x^(0,0) d^(0,1)" for j in range(r)]
                       for i in range(r)])


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_dim_do(capsys):
    payload = run_json(capsys, "dim-do", "--n", "1", "--a", "0", "--b", "0",
                       "--N", "1")
    assert payload["schema"] == "jetspace/1"
    assert payload["dim"] == 4
    assert payload["candidates"] == 5
    assert payload["n"] == 1 and payload["N"] == 1


def test_dim_do_negative_twist(capsys):
    payload = run_json(capsys, "dim-do", "--n", "2", "--a", "0", "--b", "-1",
                       "--N", "1")
    assert payload["dim"] == 3


def test_growth_table_csv(capsys):
    rc, out, err = run(capsys, "growth-table", "--n", "2", "--a", "0",
                       "--b", "0", "--nmax", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "N,dim,delta,expected_delta,match"
    assert lines[1] == "0,1,,,"
    assert lines[2] == "1,9,8,8,true"
    assert lines[3] == "2,36,27,27,true"
    footer = json.loads(lines[4])
    assert footer["M"] == 0
    assert footer["verdict"] is True
    assert footer["P_coeffs"] == ["1", "3", "13/4", "3/2", "1/4"]


@pytest.mark.parametrize("n", ["0", "1"])
def test_growth_table_negative_budget_is_refused_first(capsys, n):
    # the budget is checked before the projective dimension
    rc, out, err = run(capsys, "growth-table", "--n", n, "--a", "0", "--b", "0",
                       "--nmax", "-1")
    assert (rc, out) == (2, "")
    assert err.splitlines()[0] == "precondition failed: the growth threshold needs n_max >= 1"


def test_growth_table_json(capsys):
    payload = run_json(capsys, "growth-table", "--n", "1", "--a", "0",
                       "--b", "0", "--nmax", "3", "--format", "json")
    assert payload["M"] == 0
    assert payload["verdict"] is True
    assert [r["dim"] for r in payload["rows"]] == [1, 4, 9, 16]
    assert payload["rows"][0]["delta"] is None
    assert payload["first_failure"] is None
    assert payload["P_coeffs"] == ["1", "2", "1"]


def test_cohomology_full_profile(capsys):
    payload = run_json(capsys, "cohomology", "--n", "2", "--k", "-4")
    assert payload["h"] == [0, 0, 3]
    assert payload["chi"] == 3


def test_cohomology_single_group_closed_and_cech(capsys):
    closed = run_json(capsys, "cohomology", "--n", "2", "--k", "-3",
                      "--i", "2", "--method", "closed")
    cech = run_json(capsys, "cohomology", "--n", "2", "--k", "-3",
                    "--i", "2", "--method", "cech")
    assert closed["h"] == cech["h"] == 1
    assert closed["method"] == "closed" and cech["method"] == "cech"


def test_cohomology_sym_tangent(capsys):
    payload = run_json(capsys, "cohomology", "--n", "2", "--k", "1", "--j", "0")
    assert payload["h0"] == 8
    assert payload["chi"] == 8


def test_symbol_single_operator(capsys):
    payload = run_json(capsys, "symbol", "--op",
                       "1 * x^(0,0) d^(2,0) + 1 * x^(0,0) d^(0,2)",
                       "--N", "2")
    assert payload["size"] == 1
    assert payload["m"] == 2
    assert payload["entries"][0][0] == (
        "1 * x^(0,0) s^(0,2) + 1 * x^(0,0) s^(2,0)")
    assert payload["constant_coefficient"] is True
    assert payload["torus_operator"] is True


def test_symbol_matrix(capsys):
    matrix = json.dumps([
        ["1 * x^(0,0) d^(1,0)", "0 * x^(0,0) d^(0,0)"],
        ["0 * x^(0,0) d^(0,0)", "1 * x^(0,0) d^(0,1)"],
    ])
    payload = run_json(capsys, "symbol", "--matrix", matrix, "--N", "1")
    assert payload["size"] == 2
    assert payload["entries"][0][0] == "1 * x^(0,0) s^(1,0)"
    assert payload["entries"][0][1] == "0 * x^(0,0) s^(0,0)"


def test_elliptic_check_real_wave(capsys):
    payload = run_json(capsys, "elliptic-check", "--mode", "real", "--op",
                       "1 * x^(0,0) d^(2,0) + -1 * x^(0,0) d^(0,2)",
                       "--N", "2")
    assert payload["verdict"] == "false"
    assert payload["witness"] is not None


def test_elliptic_check_real_laplacian(capsys):
    payload = run_json(capsys, "elliptic-check", "--mode", "real", "--op",
                       "1 * x^(0,0) d^(2,0) + 1 * x^(0,0) d^(0,2)",
                       "--N", "2")
    assert payload["verdict"] == "true"
    assert payload["witness"] is None


@pytest.mark.parametrize("argv", [
    ("symbol", "--N", "2"),
    ("elliptic-check", "--mode", "real", "--N", "2"),
    ("elliptic-check", "--mode", "algebraic", "--N", "2"),
])
def test_one_by_one_matrix_matches_bare_operator(capsys, argv):
    op = "1 * x^(0,0) d^(2,0) + -1 * x^(1,0) d^(0,1) + -4 * x^(0,0) d^(0,2)"
    bare = run(capsys, *argv, "--op", op)
    assert bare[0] == 0, bare[2]
    assert run(capsys, *argv, "--matrix", json.dumps([[op]])) == bare


def test_elliptic_check_algebraic(capsys):
    payload = run_json(capsys, "elliptic-check", "--mode", "algebraic",
                       "--op", "1 * x^(0,0) d^(2,0) + 1 * x^(0,0) d^(0,2)",
                       "--N", "2")
    assert payload["elliptic"] is False
    assert payload["witness_defining_poly"] == [1, 0, 1]
    assert payload["witness_real"] is False


def _ops(*terms):
    m = len(terms[0][1])
    return " + ".join(f"{c} * x^({','.join('0' * m)}) d^({','.join(map(str, e))})"
                      for c, e in terms)


# one request per branch of the quadratic, closure and grid routes
@pytest.mark.parametrize("mode, terms, N, want", [
    ("real", [(1, (2, 0)), (-2, (0, 2))], 2,
     {"verdict": "false", "witness": None, "sign_points": [["0", "1"], ["1", "0"]],
      "reason": "indefinite quadratic form (exact signature); no rational zero "
                "along the diagonalizing pairs"}),
    ("real", [(1, (1, 1)), (1, (0, 2))], 2,  # zero first pivot: a swap
     {"verdict": "false", "witness": ["1", "0"], "sign_points": None}),
    ("real", [(8, (3, 0)), (-1, (2, 1)), (8, (1, 2)), (-1, (0, 3))], 3,
     {"verdict": "false", "witness": ["1/8", "1"], "sign_points": None,
      "reason": "dyadic refinement hit an exact zero"}),
    ("algebraic", [(1, (3, 0))], 3,
     {"elliptic": False, "witness": ["0", "1"], "witness_defining_poly": None}),
    ("algebraic", [(1, (3, 0)), (-2, (0, 3))], 3,
     {"elliptic": False, "witness": ["t", "1"], "witness_defining_poly": [-2, 0, 0, 1],
      "witness_real": True}),
    ("algebraic", [(1, (1, 2)), (1, (2, 1))], 3,  # both terms divisible by s0
     {"elliptic": False, "witness": ["0", "1"], "witness_defining_poly": None}),
], ids=["real-no-rational-zero", "real-pivot-swap", "real-bisection-zero",
        "algebraic-monomial", "algebraic-cube-root", "algebraic-common-factor"])
def test_elliptic_check_branches(capsys, mode, terms, N, want):
    payload = run_json(capsys, "elliptic-check", "--mode", mode,
                       "--op", _ops(*terms), "--N", str(N))
    assert {key: payload[key] for key in want} == want


def test_jet_derive(capsys):
    payload = run_json(capsys, "jet", "--derive", "1 * x^(1,1)", "--N", "2")
    assert payload["action"] == "derive"
    jet = payload["jet"]
    assert "1 * x^(0,0) dx^(1,1)" in jet
    assert "1 * x^(1,1) dx^(0,0)" in jet


def test_jet_free_rank(capsys):
    payload = run_json(capsys, "jet", "--free-rank", "--m", "2", "--r", "1",
                       "--N", "2")
    assert payload["rank"] == 6


def test_jet_cyclic(capsys):
    payload = run_json(capsys, "jet", "--cyclic", "0,0,1", "--N", "1")
    assert payload["invariants"] == ["t", "t^3"]
    assert payload["torsion"] is True
    assert payload["length"] == 4
    assert payload["free_rank"] == 0


def test_induced_map(capsys):
    payload = run_json(capsys, "induced-map", "--n", "1", "--a", "2",
                       "--b", "1", "--i", "0", "--op", "1 * x^(0,0) d^(1,0)")
    assert payload["source_basis"] == [[0, 2], [1, 1], [2, 0]]
    assert payload["target_basis"] == [[0, 1], [1, 0]]
    assert payload["matrix"] == [["0", "1", "0"], ["0", "0", "2"]]
    assert payload["rank"] == 2


def test_block_op(capsys):
    payload = run_json(capsys, "block-op", "--n", "1", "--m", "0", "--d", "2",
                       "--op", "1 * x^(3,0) d^(1,0)")
    assert payload["order"] == 1
    assert payload["report"]["ok"] is True
    assert payload["report"]["preserves_second_summand"] is True


def test_block_op_euler_coupling_has_no_witness(capsys):
    # the top-order part of D12 = E kills every degree-0 section
    payload = run_json(capsys, "block-op", "--n", "1", "--m", "0", "--d", "0",
                       "--op", "1 * x^(1,0) d^(1,0) + 1 * x^(0,1) d^(0,1)")
    assert payload["order"] == 1
    assert payload["report"]["order_witness"] is None
    assert payload["report"]["ok"] is False


# ---------------------------------------------------------------------------
# output handling and determinism
# ---------------------------------------------------------------------------

def test_identical_invocations_identical_bytes(capsys):
    args = ("growth-table", "--n", "1", "--a", "0", "--b", "1", "--nmax", "2")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.endswith("\n")


def test_json_keys_sorted(capsys):
    rc, out, _ = run(capsys, "dim-do", "--n", "1", "--a", "0", "--b", "0",
                     "--N", "0")
    keys = [line.split('"')[1] for line in out.splitlines()
            if line.startswith('  "')]
    assert keys == sorted(keys)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, err = run(capsys, "cohomology", "--n", "1", "--k", "3",
                       "--output", str(target))
    assert rc == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["h"] == [4, 0]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_missing_args(capsys):
    rc, out, err = run(capsys, "dim-do", "--n", "1")
    assert rc == 1
    assert "usage" in err.lower()


def test_usage_error_unknown_command(capsys):
    rc, out, err = run(capsys, "frobnicate")
    assert rc == 1


def test_usage_error_bad_operator_text(capsys):
    rc, out, err = run(capsys, "symbol", "--op", "nonsense", "--N", "1")
    assert rc == 1
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ("induced-map", "--n", "1", "--a", "0", "--b", "0", "--i", "0"),
    ("block-op", "--n", "1", "--m", "0", "--d", "0"),
    ("symbol", "--N", "1"),
    ("elliptic-check", "--mode", "real", "--N", "1"),
])
def test_usage_error_empty_operator(capsys, argv):
    # a given --op is always parsed, blank or not
    for text in ("", " "):
        rc, out, err = run(capsys, *argv, "--op", text)
        assert (rc, out) == (1, "")
        assert err.startswith("usage error: empty term text\n")


@pytest.mark.parametrize("argv", [("symbol",), ("elliptic-check", "--mode", "real")])
def test_usage_error_operand_missing_or_empty_matrix(capsys, argv):
    rc, out, err = run(capsys, *argv, "--N", "1")
    assert (rc, out) == (1, "")
    assert err.startswith("usage error: one of --op or --matrix is required\n")
    rc, out, err = run(capsys, *argv, "--matrix", "", "--N", "1")
    assert (rc, out) == (1, "")
    assert err.startswith("usage error: --matrix is not valid JSON: ")


def test_usage_error_nonsquare_matrix(capsys):
    rc, out, err = run(capsys, "symbol", "--matrix",
                       '[["1 * x^(0,0) d^(1,0)"], ["1 * x^(0,0) d^(0,1)"]]',
                       "--N", "1")
    assert rc == 1


@pytest.mark.parametrize("matrix", ['[[1]]', '[["1 * x^(0) d^(1)", null], [[], "0 * x^(0) d^(0)"]]'])
def test_usage_error_matrix_cell_not_a_string(capsys, matrix):
    rc, out, err = run(capsys, "symbol", "--matrix", matrix, "--N", "1")
    assert rc == 1
    assert err.startswith("usage error: --matrix must be a square JSON array")


@pytest.mark.parametrize("argv", [
    ("symbol",),
    ("elliptic-check", "--mode", "real"),
])
def test_usage_error_op_together_with_matrix(capsys, argv):
    op = "1 * x^(0,0) d^(1,0)"
    rc, out, err = run(capsys, *argv, "--op", op, "--matrix", json.dumps([[op]]), "--N", "1")
    assert (rc, out) == (1, "")
    assert err.startswith("usage error: give only one of --op or --matrix\n")


def test_usage_error_cohomology_i_with_j(capsys):
    rc, out, err = run(capsys, "cohomology", "--n", "2", "--k", "1",
                       "--j", "0", "--i", "0")
    assert rc == 1
    assert out == ""
    assert err.startswith("usage error: argument --i: not allowed with argument --j")


@pytest.mark.parametrize("extra", [("--j", "0"), ()])
def test_usage_error_cohomology_method_without_i(capsys, extra):
    rc, out, err = run(capsys, "cohomology", "--n", "2", "--k", "1", *extra,
                       "--method", "cech")
    assert rc == 1
    assert out == ""
    assert err.splitlines()[0] == "usage error: --method needs --i"


def test_cohomology_method_defaults_to_closed_with_i(capsys):
    payload = run_json(capsys, "cohomology", "--n", "2", "--k", "-4", "--i", "2")
    assert payload["method"] == "closed"


def test_usage_error_jet_needs_exactly_one_action(capsys):
    rc, out, err = run(capsys, "jet", "--N", "1")
    assert rc == 1
    rc, out, err = run(capsys, "jet", "--free-rank", "--cyclic", "0,1",
                       "--m", "1", "--r", "1", "--N", "1")
    assert rc == 1


def test_usage_error_elliptic_check_has_no_depth_option(capsys):
    # the real search narrows a sign change by a fixed 12 halvings
    rc, out, err = run(capsys, "elliptic-check", "--mode", "real", "--op",
                       "1 * x^(0,0) d^(4,0) + 1 * x^(0,0) d^(0,4)", "--N", "4",
                       "--depth", "3")
    assert (rc, out) == (1, "")
    assert err.startswith("usage error: unrecognized arguments: --depth 3\n")


@pytest.mark.parametrize("argv", [
    ("symbol", "--op", "1/0 * x^(1,0) d^(0,0)", "--N", "0"),
    ("symbol", "--matrix", '[["1/0 * x^(0,0) d^(0,0)"]]', "--N", "0"),
    ("elliptic-check", "--mode", "real", "--op", "1/0 * x^(0,0) d^(2,0)",
     "--N", "2"),
    ("jet", "--cyclic", "1/0,1", "--N", "2"),
    ("jet", "--cyclic", "1,x", "--N", "2"),
    ("jet", "--derive", "1/0 * x^(1,1)", "--N", "2"),
    ("jet", "--derive", "1 * x^()", "--N", "2"),
    ("jet", "--derive", "1 * x^(1,)", "--N", "2"),
    ("symbol", "--op", "1 * x^() d^()", "--N", "0"),
    # one coefficient grammar, -?\d+(/\d+)?, for --cyclic as for terms
    ("jet", "--cyclic=1.5,2", "--N", "1"),
    ("jet", "--cyclic=1e3,2", "--N", "1"),
    ("jet", "--cyclic=+3,2", "--N", "1"),
    ("jet", "--cyclic=1_0,2", "--N", "1"),
    # Fraction("1e10000000") would build 10^(10^7) before any check
    ("jet", "--cyclic=1e10000000,1", "--N", "1"),
    # integer literals past 4300 digits, read with the digit limit lifted
    ("symbol", "--matrix", f"[[{'7' * 5000}]]", "--N", "1"),
    ("symbol", "--op", f"{'7' * 5000} * x^(0,0) d^(1,0)", "--N", "1"),
    ("symbol", "--op", f"1 * x^(0,{'7' * 5000}) d^(1,0)", "--N", "1"),
    ("symbol", "--matrix", "[" * 100000, "--N", "1"),
])
def test_usage_error_bad_coefficient_or_exponents(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert rc == 1
    assert out == ""
    assert err.startswith("usage error: ")
    assert "Traceback" not in err
    # the message names an oversized literal without echoing it
    assert len(err.splitlines()[0]) < 200


def test_oversized_literal_is_named(capsys):
    rc, out, err = run(capsys, "symbol", "--op", f"{'7' * 5000} * x^(0,0) d^(1,0)", "--N", "1")
    assert (rc, out) == (1, "")
    assert err.splitlines()[0] == ("usage error: coefficient 777777777777... has 5000 digits, "
                                   "over the cap of 4300")


def test_elliptic_check_huge_binomial_has_rational_witness(capsys):
    # det = xi0^2 - 10^400 xi1^2 vanishes at (10^200, 1); the root is exact
    op = f"1 * x^(0,0) d^(2,0) + -{10 ** 400} * x^(0,0) d^(0,2)"
    payload = run_json(capsys, "elliptic-check", "--mode", "algebraic",
                       "--op", op, "--N", "2")
    assert payload["elliptic"] is False
    assert payload["witness"] == [str(10 ** 200), "1"]
    assert payload["witness_defining_poly"] is None
    payload = run_json(capsys, "elliptic-check", "--mode", "real",
                       "--op", op, "--N", "2")
    assert payload["verdict"] == "false"
    assert payload["witness"] == [str(10 ** 200), "1"]


def test_jet_cyclic_past_the_int_digit_limit(capsys):
    # the one invariant (t + 3^400)^31 has coefficients of up to 5917 digits
    c = 3 ** 400
    payload = run_json(capsys, "jet", f"--cyclic={c},1", "--N", "30")
    assert payload["length"] == 31
    (text,) = payload["invariants"]
    coeffs = {}
    for term in text.split(" + "):
        head, t, power = term.partition("t")
        # Decimal reads the digits without int()'s digit limit
        coeffs[int(power[1:] or 1) if t else 0] = int(Decimal(head.rstrip("*") or 1))
    assert coeffs == {i: math.comb(31, i) * c ** (31 - i) for i in range(32)}


def test_precondition_exit(capsys):
    rc, out, err = run(capsys, "cohomology", "--n", "0", "--k", "1")
    assert rc == 2
    assert "precondition failed" in err


@pytest.mark.parametrize("argv", [
    ("jet", "--derive", "1 * x^(1)", "--N=-1"),
    ("jet", "--cyclic=1", "--N=-1"),
    ("jet", "--cyclic", "1,1", "--N", "100000000"),
    ("induced-map", "--n", "0", "--a", "0", "--b", "0", "--i", "0",
     "--op", "1 * x^(0) d^(0)"),
    ("block-op", "--n", "0", "--m", "0", "--d", "0", "--op", "1 * x^(0) d^(0)"),
    ("block-op", "--n", "2", "--m", "233", "--d", "234", "--op", "1 * x^(1,0,0) d^(0,0,0)"),
    ("induced-map", "--n", "2", "--a", "120", "--b", "121", "--i", "0",
     "--op", "1 * x^(1,0,0) d^(0,0,0)"),
    # work estimates past errors.WORK_LIMIT: each ran 5 s to minutes
    ("jet", "--free-rank", "--m", "300000", "--r", "1", "--N", "300000"),
    ("jet", "--free-rank", "--m", "1000000", "--r", "1", "--N", "1000000"),
    ("jet", "--derive", "1 * x^(20000)", "--N", "20000"),
    ("jet", "--derive", "1 * x^(100,100,100)", "--N", "300"),
    ("cohomology", "--n", "200000", "--k", "200000"),
    ("cohomology", "--n", "1000000", "--k", "1000000"),
    ("cohomology", "--n", "10000000", "--k", "1"),
    ("cohomology", "--n", "100000", "--k", "100000", "--j", "100000"),
    # elliptic-check: the grid of a quartic in m = 7 variables (42.6 s and
    # 661 MB before its estimate), the tick powers and the witness
    # polynomial of degree 10^12, a dense 9 x 9 Laplace expansion and a
    # quadratic form in 100 variables
    ("elliptic-check", "--mode", "real", "--op", power_sum(7, 4), "--N", "4"),
    ("elliptic-check", "--mode", "real", "--op", power_sum(2, 10 ** 12), "--N", str(10 ** 12)),
    ("elliptic-check", "--mode", "algebraic", "--op", power_sum(2, 10 ** 12, (1, 2)),
     "--N", str(10 ** 12)),
    ("elliptic-check", "--mode", "real", "--matrix", dense_first_order(9), "--N", "1"),
    ("elliptic-check", "--mode", "real", "--op", power_sum(100, 2), "--N", "2"),
])
def test_precondition_exit_without_traceback(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("precondition failed: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, exit_code, first_line", [
    (("jet", "--free-rank", "--N", "2"), 1, "usage error: --free-rank needs --m and --r"),
    (("symbol", "--N", "-1", "--op", "1 * x^(0) d^(0)"), 2,
     "precondition failed: symbol order must be nonnegative"),
    (("symbol", "--N", "1", "--matrix",
      '[["1 * x^(0) d^(1)", "0 * x^(0,0) d^(0,0)"], ["0 * x^(0) d^(0)", "1 * x^(0) d^(1)"]]'),
     2, "precondition failed: mixed variable counts in operator matrix"),
    (("induced-map", "--n", "2", "--a", "0", "--b", "0", "--i", "1",
      "--op", "1 * x^(0,0,0) d^(0,0,0)"),
     2, "precondition failed: induced maps are available for i = 0 and i = n"),
    (("induced-map", "--n", "2", "--a", "0", "--b", "0", "--i", "0",
      "--op", "1 * x^(0,0) d^(0,0)"),
     2, "precondition failed: operator has the wrong number of variables"),
    (("cohomology", "--n", "2", "--k", "-1", "--j", "0"), 2,
     "precondition failed: symmetric power must be nonnegative"),
    (("cohomology", "--n", "0", "--k", "1", "--j", "0"), 2,
     "precondition failed: projective dimension must be >= 1"),
    (("cohomology", "--n", "-2", "--k", "1", "--j", "0"), 2,
     "precondition failed: projective dimension must be >= 1"),
    (("cohomology", "--n", "1", "--k", "1", "--j", "0"), 2,
     "precondition failed: h0_sym_tangent needs n >= 2; on the projective line the "
     "tangent bundle is O(2), so use h^0(O(2k + j)) instead"),
])
def test_refusal_first_line(capsys, argv, exit_code, first_line):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (exit_code, "")
    assert err.splitlines()[0] == first_line
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, key, want", [
    (("cohomology", "--n", "99999", "--k", "99999"),
     lambda payload: payload["h"][0], lambda: math.comb(199998, 99999)),
    (("jet", "--free-rank", "--m", "10000", "--r", "1", "--N", "10000"),
     lambda payload: payload["rank"], lambda: math.comb(20000, 10000)),
    # h0 = C(n + k, k) h0(O(j + k)) - C(n + k - 1, k - 1) h0(O(j + k - 1))
    (("cohomology", "--n", "20000", "--k", "3", "--j", "20000"),
     lambda payload: payload["h0"],
     lambda: (math.comb(20003, 3) * math.comb(40003, 20000)
              - math.comb(20002, 2) * math.comb(40002, 20000))),
], ids=["cohomology", "jet-free-rank", "cohomology-sym-tangent"])
def test_exact_result_past_the_int_digit_limit_is_printed(capsys, argv, key, want):
    # each value has more than the 4300 digits that str(int) allows by
    # default; the report prints it whole and the limit is restored
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    # Decimal reads the digits exactly without passing through int()
    assert key(json.loads(out, parse_int=Decimal)) == want()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_growth_table_past_the_int_digit_limit_is_printed(capsys, fmt):
    # dims C(N + 200, 200) C(N + 10^30 + 200, 200) have over 5600 digits;
    # growth-table formats them itself, under the same lifted limit
    big = 10 ** 30
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    rc, out, err = run(capsys, "growth-table", "--n", "200", "--a", "0",
                       "--b", str(big), "--nmax", "1", "--format", fmt)
    assert (rc, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    want = [math.comb(order + 200, 200) * math.comb(order + big + 200, 200)
            for order in range(2)]
    if fmt == "json":
        dims = [row["dim"] for row in json.loads(out, parse_int=Decimal)["rows"]]
    else:
        dims = [Decimal(line.split(",")[1]) for line in out.splitlines()[1:3]]
    assert dims == want


def test_output_to_missing_directory_or_directory_is_usage_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "report.json", tmp_path):
        rc, out, err = run(capsys, "cohomology", "--n", "1", "--k", "3",
                           "--output", str(target))
        assert rc == 1
        assert out == ""
        assert err.splitlines()[0].startswith("usage error: cannot write --output")
        assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_precondition_cech_out_of_range(capsys):
    # 352716 monomials of 11 entries pass the work estimate
    rc, out, err = run(capsys, "cohomology", "--n", "10", "--k", "11",
                       "--i", "0", "--method", "cech")
    assert (rc, out) == (2, "")
    assert err.startswith("precondition failed: the Cech count of h^0(P^10, O(11)) has a work")


def test_cohomology_checks_i_before_any_binomial(monkeypatch, capsys):
    # n = k = 120000 with i = 999999 took 2.2 s to refuse; an input both out
    # of range and over the work limit is refused for its range
    def refuse(*args):
        raise AssertionError("line_cohomology called")

    monkeypatch.setattr(cohomology, "line_cohomology", refuse)
    for n, k, i in [(2, 3, 3), (2, 3, -1), (120000, 120000, 999999),
                    (10 ** 6, 10 ** 6, -1)]:
        rc, out, err = run(capsys, "cohomology", "--n", str(n), "--k", str(k),
                           "--i", str(i))
        assert (rc, out, err) == (2, "", f"precondition failed: i must lie in [0, {n}]\n")
    monkeypatch.undo()
    # n < 1 is still refused for n, whatever i is
    rc, out, err = run(capsys, "cohomology", "--n", "0", "--k", "1", "--i", "5")
    assert (rc, out, err) == (2, "", "precondition failed: projective dimension must be >= 1\n")


def test_inconsistency_exit(monkeypatch, capsys):
    # a budget at or below the threshold, nmax <= M0 = max(0, a - b - n),
    # is a precondition: the input alone shows the shortfall
    rc, out, err = run(capsys, "growth-table", "--n", "1", "--a", "0",
                       "--b", "-2", "--nmax", "1")
    assert (rc, out, err) == (2, "", "precondition failed: the stabilization threshold 1 "
                                     "of (n=1, a=0, b=-2) is not below the budget 1\n")

    # a failed internal cross-check exits 3
    def fail(*args):
        raise InconsistencyError("cross-check failed")

    monkeypatch.setattr(growth, "verify_growth", fail)
    rc, out, err = run(capsys, "growth-table", "--n", "1", "--a", "0",
                       "--b", "0", "--nmax", "2")
    assert (rc, out, err) == (3, "", "internal inconsistency: cross-check failed\n")


# ---------------------------------------------------------------------------
# work limit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("dim-do", "--n", "5000", "--a", "0", "--b", "0", "--N", "5000"),
    ("dim-do", "--n", "1000000", "--a", "0", "--b", "0", "--N", "1000000"),
    ("dim-do", "--n", "1", "--a", "0", "--b", "0", "--N", "1000000000"),
    ("growth-table", "--n", "2234", "--a", "0", "--b", "0", "--nmax", "1"),
])
def test_oversized_input_is_refused_up_front(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert re.fullmatch(r"precondition failed: \(n=\d+, a=0, b=0, N=\d+\) has a work "
                        r"estimate of 2\^\d+ or more, above the limit 2\^37\n", err)


@pytest.mark.parametrize("argv", [
    ("dim-do", "--n", "50", "--a", "0", "--b", "0", "--N", "6"),
    ("dim-do", "--n", "1", "--a", "0", "--b", "0", "--N", "150"),
    ("growth-table", "--n", "40", "--a", "0", "--b", "0", "--nmax", "5"),
    ("dim-do", "--n", "1000000", "--a", "0", "--b", "0", "--N", "0"),
])
def test_cheap_input_is_accepted(capsys, argv):
    # a few small binomials each, so the work estimate accepts them; dim-do
    # --n 50 --N 6 prints dim C(56, 6)^2 = 1054199336286096
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    if argv[0] == "dim-do":
        payload = json.loads(out)
        n, order = payload["n"], payload["N"]
        assert payload["dim"] == math.comb(order + n, n) ** 2
    else:
        assert out.splitlines()[-1].endswith('"verdict": true}')


def test_algebra_workload_shapes_are_accepted(capsys, monkeypatch):
    # every request of the benchmark's algebra workload runs, and its
    # heaviest elliptic-check shapes (the m = 4 quartic grid, the 2 x 2
    # first-order matrices) stay 64 times inside the work limit, as does
    # the m = 3 quartic grid; the degree-99999 grid stays inside it.  So do
    # all of its jet --cyclic moduli at their N, the fat t^2 at N = 42, and
    # every induced-map and block-op shape it draws from: n <= 2, twists
    # -1..4, one term of order k <= 2 and coefficient 3
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in (1, 2, 3):
        for job in workloads.algebra(seed):
            rc, out, err = run(capsys, *job["argv"])
            assert (rc, err) == (0, ""), job["argv"]
    limit = projective.WORK_LIMIT
    _, anchor, order = workloads.ALGEBRA_ANCHOR
    moduli = [(anchor, order), ((0, 0, 1), 42)] + [
        (p, order) for choices, order, _ in workloads.CYCLIC_SLOTS for p in choices]
    for p, order in moduli:
        assert jets._cyclic_work(UniPoly(p), order) <= limit // 64, (p, order)
    monkeypatch.setattr(errors, "WORK_LIMIT", limit // 64)
    for n in (1, 2):
        for k in (1, 2):
            beta = (k,) + (0,) * n
            for a in range(4):
                for shift in (-1, 0, 1):
                    alpha = (k + shift,) + (0,) * n
                    op = WeylElement.monomial(alpha, beta, 3)
                    projective.induced_cohomology_map(n, a, a + shift, op, 0)
            d12 = WeylElement.monomial((0,) * (n + 1), beta, 3)
            for m in (-1, 0, 1):
                projective.block_operator(n, m, m - k, d12).verify()
    monkeypatch.undo()
    for m in (3, 4):
        assert symbols._grid_work(m, 4, m, 2) <= limit // 64
    d0, d1 = (WeylElement.parse(f"4 * x^(0,0) d^({e})") for e in ("1,0", "0,1"))
    cauchy_riemann = symbols.symbol_of([[d0, -d1], [d1, d0]], 1)
    assert symbols._det_work(cauchy_riemann) <= limit // 64
    assert symbols._grid_work(2, 99999, 1, 1) <= limit
    payload = run_json(capsys, "elliptic-check", "--mode", "real",
                       "--op", "1 * x^(0,0) d^(99999,0)", "--N", "99999")
    assert payload["verdict"] == "false"


OP9 = ("6 * x^(2,6) d^(6,2) + 8 * x^(1,4) d^(4,1) + 1 * x^(1,3) d^(3,1) + 2 * x^(1,2) d^(2,1)"
       " + 8 * x^(2,2) d^(2,2) + 7 * x^(2,1) d^(1,2) + 4 * x^(3,1) d^(1,3)"
       " + 4 * x^(4,1) d^(1,4) + 5 * x^(6,2) d^(2,6)")


@pytest.mark.parametrize("argv, exit_code", [
    # a 1000-digit constant term: past 120 s before its work estimate
    (("jet", f"--cyclic={7 ** 1183 + 1},1", "--N", "200"), 2),
    # a 9-term operator on a 10^6-cell map: 96 s before, in its elimination
    (("induced-map", "--n", "1", "--a", "999", "--b", "999", "--i", "0", "--op", OP9), 2),
    # 250203 chart monomials, built in 0.3 s, and 184756 Cech monomials
    (("block-op", "--n", "2", "--m", "160", "--d", "161", "--op", "1 * x^(1,0,0) d^(0,0,0)"), 0),
    (("cohomology", "--n", "10", "--k", "10", "--i", "0", "--method", "cech"), 0),
    (("jet", f"--cyclic={3 ** 400},1", "--N", "30"), 0),
], ids=["jet-cyclic-1000-digits", "induced-map-op9", "block-op-O160", "cech-n10-k10",
        "jet-cyclic-3^400"])
def test_measured_inputs_exit_by_the_work_estimate(capsys, argv, exit_code):
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert rc == exit_code, err
    if exit_code == 2:
        assert out == "" and elapsed < 1, elapsed
        assert re.search(r"has a work estimate of 2\^\d+ or more, above the limit 2\^37\n$", err)
    else:
        assert err == "" and out


def test_every_golden_dimension_input_is_within_the_work_limit():
    for name in ("dim_do_golden.json", "growth_table_golden.json",
                 "readme_cli_golden.json"):
        for case in json.loads((Path(__file__).parent / "data" / name).read_text()):
            argv = case["argv"]
            if argv[0] not in ("dim-do", "growth-table") or case["exit"] != 0:
                continue
            opts = dict(zip(argv[1::2], argv[2::2]))
            n, d = int(opts["--n"]), int(opts["--b"]) - int(opts["--a"])
            if argv[0] == "dim-do":
                work = dimensions._dim_do_work(n, d, int(opts["--N"]))
            else:
                work = growth._growth_work(n, d, int(opts.get("--nmax", default_n_max(n))))
            assert work <= projective.WORK_LIMIT, argv


def test_retired_order_cap_variable_changes_nothing(monkeypatch, capsys):
    # JETSPACE_NMAX_OVERRIDE once capped --N and --nmax; the work estimate
    # is the one budget now, so any value leaves every output as it is
    requests = [("dim-do", "--n", "1", "--a", "0", "--b", "0", "--N", "2"),
                ("growth-table", "--n", "1", "--a", "0", "--b", "0")]
    monkeypatch.delenv("JETSPACE_NMAX_OVERRIDE", raising=False)
    unset = [run(capsys, *argv) for argv in requests]
    assert [rc for rc, _, _ in unset] == [0, 0]
    for value in ("1", "many"):
        monkeypatch.setenv("JETSPACE_NMAX_OVERRIDE", value)
        assert [run(capsys, *argv) for argv in requests] == unset, value


# ---------------------------------------------------------------------------
# golden bytes: `jetspace -h`, every subcommand's -h and four usage errors,
# recorded at COLUMNS=80 before the parser declared each option once;
# argparse words and wraps these differently across Python versions, so
# they are compared on the version that recorded them
# ---------------------------------------------------------------------------

HELP_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_help_golden.json").read_text())


@pytest.mark.skipif("%d.%d" % sys.version_info[:2] != HELP_GOLDEN["python"],
                    reason=f"help bytes recorded on Python {HELP_GOLDEN['python']}")
@pytest.mark.parametrize("case", HELP_GOLDEN["cases"],
                         ids=[shlex.join(c["argv"]) or "no-arguments"
                              for c in HELP_GOLDEN["cases"]])
def test_help_and_usage_error_golden_bytes(monkeypatch, capsys, case):
    monkeypatch.setenv("COLUMNS", str(HELP_GOLDEN["columns"]))
    try:
        rc = main(list(case["argv"]))
    except SystemExit as exc:  # -h prints the help and exits 0
        rc = exc.code
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


# ---------------------------------------------------------------------------
# golden bytes: jet --cyclic output recorded from the Smith-form route
# ---------------------------------------------------------------------------

JET_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "jet_cyclic_golden.json").read_text())


@pytest.mark.parametrize("case", sorted(JET_GOLDEN))
def test_jet_cyclic_golden_bytes(capsys, case):
    modulus, order = case.split(" N=")
    rc, out, err = run(capsys, "jet", "--cyclic=" + modulus, "--N", order)
    assert rc == 0, err
    assert out == JET_GOLDEN[case]


# ---------------------------------------------------------------------------
# golden bytes: dim-do on the benchmark's inputs, zero-bound twists and a grid
# ---------------------------------------------------------------------------

DIM_DO_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "dim_do_golden.json").read_text())


@pytest.mark.parametrize("case", DIM_DO_GOLDEN,
                         ids=[" ".join(c["argv"][1:]) for c in DIM_DO_GOLDEN])
def test_dim_do_golden_bytes(capsys, case):
    rc, out, err = run(capsys, *case["argv"])
    assert (rc, out) == (case["exit"], case["stdout"]), err


# ---------------------------------------------------------------------------
# golden bytes: growth-table at the default budget, n 1..3, a -2..2,
# b - a -6..3, csv and json (the cases with nmax <= M0 exit 2)
# ---------------------------------------------------------------------------

GROWTH_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "growth_table_golden.json").read_text())


@pytest.mark.parametrize("case", GROWTH_GOLDEN,
                         ids=[" ".join(c["argv"][1:]) for c in GROWTH_GOLDEN])
def test_growth_table_golden_bytes(capsys, case):
    rc, out, err = run(capsys, *case["argv"])
    assert (rc, out) == (case["exit"], case["stdout"]), err


# ---------------------------------------------------------------------------
# golden bytes: every README example plus codec edge cases
# ---------------------------------------------------------------------------

README = Path(__file__).parents[1] / "README.md"
README_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "readme_cli_golden.json").read_text())


def _invocation(words):
    """Split shell words into (env, argv) around the leading `jetspace`."""
    env = {}
    while "=" in words[0]:
        name, value = words.pop(0).split("=", 1)
        env[name] = value
    assert words.pop(0) == "jetspace"
    return env, words


def readme_invocations():
    """(env, argv) of every `$ jetspace ...` line of README.md, with
    continuation lines and multi-line quotes joined and trailing comments
    dropped, then of every inline `jetspace ...` code span."""
    lines = README.read_text().splitlines()
    found = []
    i = 0
    while i < len(lines):
        text = lines[i]
        i += 1
        if not text.startswith("$ "):
            continue
        text = text[2:]
        while True:
            if text.rstrip().endswith("\\"):
                text = text.rstrip()[:-1] + " " + lines[i]
                i += 1
                continue
            try:
                words = shlex.split(text, comments=True)
            except ValueError:  # a quote is still open
                text += "\n" + lines[i]
                i += 1
                continue
            break
        found.append(_invocation(words))
    for span in re.findall(r"`(jetspace [^`]+)`", README.read_text()):
        found.append(_invocation(shlex.split(span)))
    return found


def _script(name):
    path = Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the arguments CI runs the scripts with
@pytest.mark.parametrize("name, args, golden", [
    ("ellipticity_gallery", None, "ellipticity_gallery.txt"),
    ("negative_twist_search", ["--n", "2", "--max-drop", "3", "--budget", "4"],
     "negative_twist_search.txt"),
])
def test_script_output_matches_golden(capsys, name, args, golden):
    main = _script(name).main
    assert (main() if args is None else main(args)) == 0
    assert capsys.readouterr().out == (Path(__file__).parent / "data" / golden).read_text()


def test_readme_examples_have_golden_entries():
    recorded = [(case["env"], case["argv"]) for case in README_GOLDEN]
    examples = readme_invocations()
    assert len(examples) >= 14
    for env, argv in examples:
        assert (env, argv) in recorded, shlex.join(argv)


@pytest.mark.parametrize("case", README_GOLDEN,
                         ids=[shlex.join(c["argv"]) for c in README_GOLDEN])
def test_readme_cli_golden_bytes(monkeypatch, capsys, case):
    for name, value in case["env"].items():
        monkeypatch.setenv(name, value)
    rc, out, err = run(capsys, *case["argv"])
    assert (rc, out) == (case["exit"], case["stdout"]), err
