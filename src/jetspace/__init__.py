"""Exact computation of global algebraic differential operators on projective
space: Weyl algebra arithmetic, jet modules, twisted operator spaces, their
dimension growth, and principal symbols with ellipticity verdicts.

Importing the package registers every submodule in `sys.modules` and on the
package, but a submodule's body runs only when one of its attributes is
first read, so a process pays only for the modules its work uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("InconsistencyError", "PreconditionError", "StabilizationError"),
    "laurent": ("LaurentPoly", "monomials_of_degree"),
    "linalg": ("ExactMatrix",),
    "weyl": ("WeylElement", "euler_operator", "falling"),
    "presented": ("PresentedModule", "UniPoly", "smith_normal_form"),
    "jets": ("JetElement", "cyclic_jet_invariants", "do_jet_correspondence_check",
             "jet_free_rank", "jet_of_presented", "symbol_quotient_check",
             "universal_derivation"),
    "cohomology": ("cech_line_oracle", "chi_line", "chi_sym_tangent", "h0_line",
                   "h0_sym_tangent", "hn_line", "line_cohomology"),
    "dimensions": ("NegativeTwistResult", "TwistedDOSpace", "candidate_count",
                   "do_dimension", "global_do_dimension", "negative_twist_existence"),
    "projective": ("BlockOperator", "block_operator", "candidate_monomials",
                   "chart_test_monomials", "h0_basis", "hn_basis", "induced_cohomology_map"),
    "growth": ("GrowthPolynomial", "GrowthReport", "GrowthTable", "default_n_max",
               "expected_delta", "growth_polynomial", "stabilization_threshold",
               "verify_growth"),
    "symbols": ("EllipticityVerdict", "SymbolMatrix", "Witness", "classify",
                "elliptic_algebraic", "elliptic_real", "symbol_of",
                "torus_operator_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _register_lazily(module: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    globals()[module] = mod


for _module in _EXPORTS:
    _register_lazily(_module)
del _module


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
