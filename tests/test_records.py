"""Result records are named tuples; `import jetspace` registers every module
but executes only those a process reads from, behind an unchanged public API."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jetspace
from jetspace.cohomology import h0_sym_tangent, line_cohomology
from jetspace.growth import verify_growth
from jetspace.jets import SymbolQuotientResult, symbol_quotient_check
from jetspace.projective import global_do_dimension, negative_twist_existence
from jetspace.symbols import Witness

ROOT = Path(__file__).resolve().parent.parent

# every module the benchmark's tracer patches after `import jetspace.cli`
TRACED_MODULES = ("cli", "dimensions", "projective", "linalg", "cohomology", "growth",
                  "presented", "jets", "weyl", "symbols", "laurent")

# every name `jetspace` exported when it imported its modules eagerly
PUBLIC = {
    "errors": "InconsistencyError PreconditionError StabilizationError",
    "laurent": "LaurentPoly monomials_of_degree",
    "linalg": "ExactMatrix",
    "weyl": "WeylElement euler_operator falling",
    "presented": "PresentedModule UniPoly smith_normal_form",
    "jets": "JetElement cyclic_jet_invariants do_jet_correspondence_check "
            "jet_free_rank jet_of_presented symbol_quotient_check universal_derivation",
    "cohomology": "cech_line_oracle chi_line chi_sym_tangent h0_line h0_sym_tangent "
                  "hn_line line_cohomology",
    "projective": "BlockOperator NegativeTwistResult TwistedDOSpace block_operator "
                  "candidate_count candidate_monomials chart_test_monomials do_dimension "
                  "global_do_dimension h0_basis hn_basis "
                  "induced_cohomology_map negative_twist_existence",
    "growth": "GrowthPolynomial GrowthReport GrowthTable default_n_max expected_delta "
              "growth_polynomial stabilization_threshold verify_growth",
    "symbols": "EllipticityVerdict SymbolMatrix Witness classify elliptic_algebraic "
               "elliptic_real symbol_of torus_operator_check",
}

PROBE = """
import json, sys, types
print(json.dumps([sorted(sys.modules),
                  sorted(name[len("jetspace."):] for name, mod in sys.modules.items()
                         if name.startswith("jetspace.") and type(mod) is types.ModuleType)]))
"""


def run_fresh(code: str) -> tuple[set, set]:
    """Run `code` in a fresh interpreter; return the names in sys.modules and
    the jetspace submodules whose body has run (a lazily registered module
    stops being a LazyLoader subclass of ModuleType once it executes).

    -S: some site-packages hooks import inspect themselves; only what
    jetspace loads is under test."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code + PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    loaded, executed = json.loads(out.splitlines()[-1])
    return set(loaded), set(executed)


def test_cli_import_registers_every_traced_module():
    loaded, executed = run_fresh("import jetspace.cli")
    assert {f"jetspace.{m}" for m in TRACED_MODULES} <= loaded
    assert executed == {"cli", "errors"}


def test_executing_every_module_loads_no_dataclasses_or_inspect():
    loaded, executed = run_fresh("import jetspace.cli\nfrom jetspace import *")
    assert set(TRACED_MODULES) <= executed
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


@pytest.mark.parametrize("argv, expected", [
    (["dim-do", "--n", "2", "--a", "0", "--b", "0", "--N", "5"],
     {"cli", "errors", "dimensions"}),
    (["growth-table", "--n", "2", "--a", "0", "--b", "0"],
     {"cli", "errors", "dimensions", "cohomology", "growth"}),
    (["cohomology", "--n", "2", "--k", "3"], {"cli", "errors", "cohomology"}),
    (["jet", "--cyclic=3,-1,2,5", "--N", "12"],
     {"cli", "errors", "laurent", "presented", "jets"}),
    (["jet", "--derive", "1/2 * x^(1,1) + -3/4 * x^(2,0) + 5 * x^(0,0)", "--N", "2"],
     {"cli", "errors", "laurent", "jets"}),
    (["jet", "--free-rank", "--m", "2", "--r", "1", "--N", "3"], {"cli", "errors", "jets"}),
    (["induced-map", "--n", "1", "--a", "2", "--b", "1", "--i", "0", "--op", "1 * x^(0,0) d^(1,0)"],
     {"cli", "cohomology", "dimensions", "errors", "laurent", "linalg", "projective", "weyl"}),
    (["block-op", "--n", "1", "--m", "0", "--d", "2", "--op", "1 * x^(3,0) d^(1,0)"],
     {"cli", "dimensions", "errors", "laurent", "projective", "weyl"}),
    (["cohomology", "--n", "2", "--k", "3", "--i", "0", "--method", "cech"],
     {"cli", "cohomology", "errors", "laurent"}),
    (["symbol", "--op", "1 * x^(1,0) d^(2,0) + -3 * x^(0,0) d^(1,1)", "--N", "2"],
     {"cli", "errors", "laurent", "weyl", "symbols"}),
    (["elliptic-check", "--mode", "real", "--op",
      "1 * x^(0,0) d^(4,0) + -2 * x^(0,0) d^(0,4)", "--N", "4"],
     {"cli", "errors", "laurent", "weyl", "symbols"}),
], ids=["dim-do", "growth-table", "cohomology", "jet-cyclic", "jet-derive", "jet-free-rank",
        "induced-map", "block-op", "cohomology-cech", "symbol", "elliptic-check"])
def test_subcommand_executes_only_the_modules_it_needs(argv, expected):
    _, executed = run_fresh(f"import jetspace.cli\njetspace.cli.main({argv!r})")
    assert executed == expected


def test_dim_do_imports_no_fractions_or_decimal():
    argv = ["dim-do", "--n", "2", "--a", "0", "--b", "0", "--N", "5"]
    loaded, _ = run_fresh(f"import jetspace.cli\njetspace.cli.main({argv!r})")
    assert not loaded & {"fractions", "decimal"}


def test_survey_reads_execute_every_module_their_calls_need():
    # as the benchmark's survey child: read the functions, then time calls
    reads = ("from jetspace import growth, projective\n"
             "fns = growth.verify_growth, projective.negative_twist_existence")
    _, before_calls = run_fresh(reads)
    _, after_calls = run_fresh(reads + "\nfns[0](2, 0, -3, 4)\nfns[1](2, 2)")
    assert not before_calls & {"symbols", "presented", "jets", "laurent", "linalg", "weyl"}
    assert after_calls == before_calls


def test_public_names_are_their_defining_modules_objects():
    names = [(module, name) for module, text in PUBLIC.items() for name in text.split()]
    assert len(names) == 55
    listed = dir(jetspace)
    for module, name in names:
        home = importlib.import_module(f"jetspace.{module}")
        assert getattr(jetspace, name) is getattr(home, name), name
        assert name in jetspace.__all__ and name in listed, name
    namespace = {}
    exec("from jetspace import *", namespace)
    assert {name for _, name in names} <= namespace.keys()


def test_benchmark_tracer_finds_every_name_it_patches():
    # the tracer patches jetspace from outside; read its tables, change nothing
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import jetspace.cli  # noqa: F401
    from jetspace import projective
    for module, attr, *_ in tracing.TRACED + tracing.COUNTED:
        owner, _, name = attr.rpartition(".")
        home = sys.modules[module]
        if owner:
            assert name in getattr(home, owner).__dict__, (module, attr)
        else:
            assert callable(getattr(home, name)), (module, attr)
    assert callable(projective.do_dimension.cache_info)
    assert global_do_dimension(2, 0, 0, 1).rank_history
    matrix = projective.action_matrix(projective.candidate_monomials(1, 0, 0, 1),
                                      projective.chart_test_monomials(1, 0, 3))
    assert matrix.rows > 0 and matrix.nnz > 0


def test_counting_names_are_one_object_in_dimensions_and_projective():
    from jetspace import dimensions, projective
    for name in ("NegativeTwistResult TwistedDOSpace _check_space candidate_count "
                 "do_dimension do_dimensions global_do_dimension "
                 "negative_twist_existence").split():
        assert getattr(projective, name) is getattr(dimensions, name), name


@pytest.mark.parametrize("code, expected", [
    ("jetspace.global_do_dimension", {"errors", "dimensions"}),
    ("from jetspace import projective\nprojective.global_do_dimension",
     {"errors", "dimensions", "projective"}),
    ("from jetspace import cohomology\ncohomology.line_cohomology", {"errors", "cohomology"}),
], ids=["package", "projective", "cohomology"])
def test_reading_a_counting_name_executes_no_matrix_code(code, expected):
    _, executed = run_fresh(f"import jetspace\n{code}")
    assert executed == expected


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'main'"):
        jetspace.main  # noqa: B018
    assert getattr(jetspace, "main", None) is None


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    quick_start = readme[readme.index("## Quick start (library)"):]
    code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    assert namespace["space"].dim == 4
    assert namespace["report"].verdict is True
    assert namespace["J"].length() == 4


def records():
    report = verify_growth(1, 0, 0, 2)
    return [
        global_do_dimension(1, 0, 0, 1),
        negative_twist_existence(1, 1, 2),
        line_cohomology(2, 1),
        h0_sym_tangent(2, 1, 0),
        report,
        report.table.rows[0],
        symbol_quotient_check(2, 2),
        Witness((Fraction(1), Fraction(0))),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_record_fields_are_read_only(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert record == tuple(record)
    assert record == type(record)(*record)


def test_symbol_quotient_result_truth_is_its_verdict():
    assert not SymbolQuotientResult(False, 3)
    assert SymbolQuotientResult(True, 3)
    assert symbol_quotient_check(2, 2)



# library refusals no other test reaches: the exception type and its message
_SYMBOL_OP = "1 * x^(1) d^(1)"


@pytest.mark.parametrize("call, error, message", [
    # no float enters an exact path
    (lambda: jetspace.LaurentPoly(1, {(0,): 0.5}), TypeError,
     "coefficient must be int or Fraction, got float"),
    (lambda: jetspace.UniPoly([0.5]), TypeError,
     "coefficient must be int or Fraction, got float"),
    (lambda: jetspace.symbol_of(jetspace.WeylElement.parse(_SYMBOL_OP), 1).xi_det(),
     jetspace.PreconditionError, "symbol has nonconstant chart coefficients"),
    (lambda: jetspace.symbol_of([[jetspace.WeylElement.parse(_SYMBOL_OP)] * 2], 1),
     jetspace.PreconditionError, "operator matrix must be square"),
    (lambda: jetspace.chi_sym_tangent(2, -1, 0), jetspace.PreconditionError,
     "symmetric power must be nonnegative"),
    (lambda: negative_twist_existence(2, 3, -1), jetspace.PreconditionError,
     "search budget must be nonnegative"),
    (lambda: jetspace.expected_delta(2, 0, 0), jetspace.PreconditionError,
     "increments are defined for N >= 1"),
    (lambda: jetspace.jet_free_rank(1, -1), jetspace.PreconditionError,
     "jet_free_rank arguments must be nonnegative"),
    (lambda: symbol_quotient_check(0, 1), jetspace.PreconditionError,
     "symbol quotient check needs m >= 1, N >= 1"),
    (lambda: jetspace.PresentedModule(-1, []), ValueError,
     "generator count must be nonnegative"),
    (lambda: jetspace.PresentedModule(2, [[jetspace.UniPoly.t()], []]), ValueError,
     "ragged relation matrix"),
    (lambda: jetspace.ExactMatrix(-1, 2), ValueError,
     "matrix dimensions must be nonnegative"),
    (lambda: jetspace.ExactMatrix(1, 1, {(1, 0): 1}), IndexError,
     "entry (1,0) outside 1x1"),
    (lambda: jetspace.ExactMatrix.from_rows([[1, 2], [3]]), ValueError, "ragged rows"),
    (lambda: jetspace.ExactMatrix(1, 2) @ jetspace.ExactMatrix(1, 2), ValueError,
     "shape mismatch in matrix product"),
])
def test_library_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
