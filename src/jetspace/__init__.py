"""Exact computation of global algebraic differential operators on projective
space: Weyl algebra arithmetic, jet modules, twisted operator spaces, their
dimension growth, and principal symbols with ellipticity verdicts."""

from .errors import InconsistencyError, PreconditionError, StabilizationError
from .laurent import LaurentPoly, monomials_of_degree
from .linalg import ExactMatrix
from .weyl import WeylElement, euler_operator, falling
from .presented import PresentedModule, UniPoly, smith_normal_form
from .jets import (JetElement, cyclic_jet_invariants,
                   do_jet_correspondence_check, jet_free_rank,
                   jet_of_presented, symbol_quotient_check,
                   universal_derivation)
from .cohomology import (cech_line_oracle, chi_line, chi_sym_tangent,
                         h0_line, h0_sym_tangent, hn_line, line_cohomology)
from .projective import (BlockOperator, NegativeTwistResult, TwistedDOSpace,
                         block_operator, candidate_count, candidate_monomials,
                         chart_test_monomials, do_dimension, euler_relation,
                         global_do_dimension, h0_basis, hn_basis,
                         induced_cohomology_map, negative_twist_existence,
                         strictness_check)
from .growth import (GrowthPolynomial, GrowthReport, GrowthTable,
                     default_n_max, expected_delta, growth_polynomial,
                     stabilization_threshold, verify_growth)
from .symbols import (EllipticityVerdict, SymbolMatrix, Witness, classify,
                      elliptic_algebraic, elliptic_real, symbol_of,
                      torus_operator_check)

__version__ = "0.1.0"
