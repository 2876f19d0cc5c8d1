"""Result records are named tuples, and `import jetspace.cli` stays lean."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jetspace.cohomology import h0_sym_tangent, line_cohomology
from jetspace.growth import verify_growth
from jetspace.jets import SymbolQuotientResult, symbol_quotient_check
from jetspace.projective import global_do_dimension, negative_twist_existence
from jetspace.symbols import Witness

SRC = Path(__file__).resolve().parent.parent / "src"

# every module the benchmark's tracer patches after `import jetspace.cli`
TRACED_MODULES = ("cli", "projective", "linalg", "cohomology", "growth",
                  "presented", "jets", "weyl", "symbols", "laurent")


def test_cli_import_loads_every_module_without_dataclasses():
    # -S: some site-packages hooks import inspect themselves; only what
    # jetspace loads is under test
    code = "import json, sys, jetspace.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert {f"jetspace.{m}" for m in TRACED_MODULES} <= loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


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

