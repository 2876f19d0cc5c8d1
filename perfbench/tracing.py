"""Spans around jetspace's public functions, installed from outside.

install() wraps each traced name where its callers look it up: a function
is replaced in every jetspace module that holds it (cli and growth import
names directly), a method is replaced on its class.  A span records name,
start, end, parent span and request id; spans stay in memory and dump()
writes them with the layer counters when the child exits.

run.py turns the dumps of one pass into the per-layer metrics with
summarize().
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


def _action_matrix(counts, args, result):
    counts["projective.action_matrix.rows"] += result.rows
    counts["projective.action_matrix.nnz"] += result.nnz


def _rank(counts, args, result):
    counts["linalg.rank.rows"] += args[0].rows
    counts["linalg.rank.rank"] += result


def _test_set(counts, args, result):
    counts["projective.chart_test_monomials.monomials"] += len(result)


def _boxes(counts, args, result):
    counts["projective.global_do_dimension.boxes"] += len(result.rank_history)


def _smith(counts, args, result):
    """Input size, and the widest numerator or denominator among the
    invariant factors returned (the growth inside is not visible from here)."""
    matrix = args[0]
    counts["presented.smith_normal_form.input_cells"] += (
        len(matrix) * (len(matrix[0]) if matrix else 0))
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in result for c in p.coeffs), default=0)
    key = "presented.smith_normal_form.max_coeff_bits"
    counts[key] = max(counts[key], bits)


def _derivation_terms(counts, args, result):
    counts["jets.universal_derivation.terms"] += len(result.poly.terms)


# (module, attribute or Class.method, span name, counter update or None).
TRACED = (
    ("jetspace.cli", "main", "cli.main", None),
    ("jetspace.projective", "global_do_dimension", "projective.global_do_dimension", _boxes),
    ("jetspace.projective", "do_dimension", "projective.do_dimension", None),
    ("jetspace.projective", "chart_test_monomials", "projective.chart_test_monomials", _test_set),
    ("jetspace.projective", "action_matrix", "projective.action_matrix", _action_matrix),
    ("jetspace.linalg", "ExactMatrix.rank", "linalg.rank", _rank),
    ("jetspace.cohomology", "h0_sym_tangent", "cohomology.h0_sym_tangent", None),
    ("jetspace.growth", "verify_growth", "growth.verify_growth", None),
    ("jetspace.presented", "smith_normal_form", "presented.smith_normal_form", _smith),
    ("jetspace.jets", "jet_of_presented", "jets.jet_of_presented", None),
    ("jetspace.jets", "universal_derivation", "jets.universal_derivation", _derivation_terms),
    ("jetspace.weyl", "WeylElement.parse", "weyl.parse", None),
    ("jetspace.weyl", "WeylElement.apply", "weyl.apply", None),
    ("jetspace.symbols", "symbol_of", "symbols.symbol_of", None),
    ("jetspace.symbols", "SymbolMatrix.det", "symbols.det", None),
    ("jetspace.symbols", "elliptic_real", "symbols.elliptic_real", None),
    ("jetspace.symbols", "elliptic_algebraic", "symbols.elliptic_algebraic", None),
)
# Called too often for a span each: only the calls are counted.
COUNTED = (
    ("jetspace.laurent", "LaurentPoly.evaluate", "laurent.evaluate"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = None

    def span(self, name, fn, measure):
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[sid] = [name, start, end, parent, self.request]
            if measure is not None:
                measure(self.counts, args, result)
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        import jetspace.cli  # noqa: F401  (loads every jetspace module)
        from jetspace import projective

        self.cached = projective.do_dimension
        for module, attr, name, measure in TRACED:
            _replace(module, attr, lambda fn: self.span(name, fn, measure))
        for module, attr, name in COUNTED:
            _replace(module, attr, lambda fn: self.counter(name, fn))

    def dump(self, path: str) -> None:
        info = self.cached.cache_info()
        counts = dict(self.counts)
        counts["projective.do_dimension.hits"] = info.hits
        counts["projective.do_dimension.misses"] = info.misses
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def _replace(module: str, attr: str, make) -> None:
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(sys.modules[module], cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
        return
    original = getattr(sys.modules[module], attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if (name == "jetspace" or name.startswith("jetspace.")) and \
                getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


# ---- analysis -------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for sid, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


LAYER_TIMES = (
    "projective.action_matrix", "linalg.rank", "projective.chart_test_monomials",
    "projective.global_do_dimension", "cohomology.h0_sym_tangent",
    "growth.verify_growth", "presented.smith_normal_form",
    "jets.jet_of_presented", "jets.universal_derivation", "weyl.parse",
    "weyl.apply", "symbols.symbol_of", "symbols.det", "symbols.elliptic_real",
    "symbols.elliptic_algebraic", "cli.main",
)
LAYER_CALLS = (
    "projective.action_matrix", "linalg.rank", "projective.do_dimension",
    "cohomology.h0_sym_tangent", "presented.smith_normal_form", "weyl.apply",
)


def summarize(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the dumps of its child processes."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    max_bits = 0
    for dump in dumps:
        spans = dump["spans"]
        for (name, *_), t in zip(spans, self_times(spans)):
            self_s[name] += t
            calls[name] += 1
        for key, value in dump["counts"].items():
            if key.endswith("max_coeff_bits"):
                max_bits = max(max_bits, value)
            else:
                counts[key] += value
    out = {f"{name}.self_s": self_s[name] for name in LAYER_TIMES}
    out.update({f"{name}.calls": calls[name] for name in LAYER_CALLS})
    out["laurent.evaluate.calls"] = counts["laurent.evaluate.calls"]
    out["projective.action_matrix.rows"] = counts["projective.action_matrix.rows"]
    out["projective.action_matrix.nnz"] = counts["projective.action_matrix.nnz"]
    out["linalg.rank.rows"] = counts["linalg.rank.rows"]
    out["linalg.rank.useful_ratio"] = _ratio(counts["linalg.rank.rank"],
                                             counts["linalg.rank.rows"])
    out["projective.chart_test_monomials.monomials"] = \
        counts["projective.chart_test_monomials.monomials"]
    out["projective.global_do_dimension.boxes_per_call"] = _ratio(
        counts["projective.global_do_dimension.boxes"],
        calls["projective.global_do_dimension"])
    hits = counts["projective.do_dimension.hits"]
    out["projective.do_dimension.hit_ratio"] = _ratio(
        hits, hits + counts["projective.do_dimension.misses"])
    out["presented.smith_normal_form.input_cells"] = \
        counts["presented.smith_normal_form.input_cells"]
    out["presented.smith_normal_form.max_coeff_bits"] = max_bits
    out["jets.universal_derivation.terms"] = counts["jets.universal_derivation.terms"]
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
