"""Gradient-like vector fields for bilinear structures on R^n:
integrability conditions, the wedge-power non-integrability
obstruction, and numerical extraction of the prescribed-gradient
locus with chart-coverage certification."""

from .dsl import Expr, differentiate, parse_expression
from .errors import (DegenerateForm, DimensionMismatch, Diverged, DomainError,
                     GradlocusError, NotAntisymmetric, NotSymplectic,
                     OddDimension, ParseError, ScenarioError, TooFewPoints)
from .exterior import (MultiVector, antisymmetric_part, gamma, gamma_power,
                       pfaffian, wedge)
from .fields import (ScalarField, VectorField, gradient_like_field,
                     hamiltonian_field, left_gradient, matrix_apply,
                     right_gradient)
from .geometry import (BilinearForm, FormKind, GeometricPair, companion_map,
                       evaluate, make_form, minkowski, pseudo_euclidean,
                       standard_euclidean, standard_symplectic, verify_pair)
from .integrability import (IntegrabilityReport, ProbeReport,
                            equivalence_probe, gamma_obstruction,
                            left_residual, point_report, right_residual,
                            symmetric_residual, symplectic_residual)
from .locus import (CoverReport, DimensionEstimate, LocusOptions, LocusSample,
                    PhiSystem, all_charts, box_counting_dimension, build_phi,
                    certify, chart_memberships, default_scales,
                    halton_sequence, rank_with_tolerance, sample_locus,
                    solve_from_seed, verify_cover)
from .scenarios import (Scenario, builtin_demos, load_scenario,
                        scenario_from_dict, scenario_to_dict)

__version__ = "0.1.0"

__all__ = [
    "BilinearForm", "CoverReport", "DegenerateForm", "DimensionEstimate",
    "DimensionMismatch", "Diverged", "DomainError", "Expr", "FormKind",
    "GeometricPair", "GradlocusError", "IntegrabilityReport", "LocusOptions",
    "LocusSample", "MultiVector", "NotAntisymmetric", "NotSymplectic",
    "OddDimension", "ParseError", "PhiSystem", "ProbeReport", "ScalarField",
    "Scenario", "ScenarioError", "TooFewPoints", "VectorField", "all_charts",
    "antisymmetric_part", "box_counting_dimension", "build_phi",
    "builtin_demos", "certify", "chart_memberships", "companion_map",
    "default_scales", "differentiate", "equivalence_probe", "evaluate",
    "gamma", "gamma_obstruction", "gamma_power", "gradient_like_field",
    "halton_sequence", "hamiltonian_field", "left_gradient", "left_residual",
    "load_scenario", "make_form", "matrix_apply", "minkowski",
    "parse_expression", "pfaffian", "point_report", "pseudo_euclidean",
    "rank_with_tolerance", "right_gradient", "right_residual", "sample_locus",
    "scenario_from_dict", "scenario_to_dict", "solve_from_seed",
    "standard_euclidean", "standard_symplectic", "symmetric_residual",
    "symplectic_residual", "verify_cover", "verify_pair", "wedge",
]
