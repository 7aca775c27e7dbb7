"""Effective Hamiltonians on abelian covers: solvers, checks, experiments.

The package splits along the pipeline: ``model`` defines the periodic
systems, ``topology`` their maximal abelian covers and rescalings,
``action`` the finite-horizon variational solvers, ``mather`` the
long-run averaged quantities and their dualities, ``homogenize`` the
ladder experiments, and ``cli``/``config`` the batch front end.
"""

from .errors import (ConfigError, EffhamError, ModelValidityError,
                     SolverError, WindowExhaustedError)
from .model import (GraphLagrangian, RegularityReport, TorusHamiltonian,
                    TrigPolynomial, double_legendre_residual,
                    fenchel_young_residual, legendre_transform,
                    legendre_transform_numeric, verify_tonelli)
from .topology import (CoverPoint, GraphCover, MetricGraph, QuotientPoint,
                       SpaceConvergenceReport, SubcoverMap, TorusCover,
                       cover_distance, estimate_space_convergence, f_eps,
                       figure_eight, g_map, ghat_map, match_point,
                       norm_value, quotient_distance, single_loop,
                       subcover_lift, subcover_project)
from .action import (ActionQuery, EdgeBump, HopfResult, InitialDatum,
                     LaxResult, TorusBump, allocate_time, datum_on_cover,
                     hopf_lax, lax_oleinik, minimal_action,
                     minimal_action_graph, minimal_action_torus,
                     minimal_action_torus_rescaled, search_radius)
from .mather import (AnalyticQuadraticBeta, BetaHatEvaluator,
                     DirectBetaEvaluator, DualityReport, GridEvaluator,
                     LegendreDual, MeanActionReport, MechanicalBeta1D,
                     alpha_beta_duality, alpha_graph, alpha_torus_minimax,
                     alpha_torus_quadrature, beta_graph, beta_hat,
                     effective_hamiltonian_subcover, mean_action_check,
                     tabulate_evaluator)
from .homogenize import (AffineCheckReport, DatumConvergenceReport,
                         ExperimentReport, ExperimentRow, Scenario,
                         affine_datum_check, default_beta_evaluator,
                         function_convergence_check, matching_bound,
                         run_experiment, run_subcover_experiment)
from .config import ScenarioConfig, load_config

__all__ = [
    "ActionQuery", "AffineCheckReport", "AnalyticQuadraticBeta",
    "BetaHatEvaluator", "ConfigError", "CoverPoint",
    "DatumConvergenceReport", "DirectBetaEvaluator", "DualityReport",
    "EdgeBump", "EffhamError", "ExperimentReport", "ExperimentRow",
    "GraphCover", "GraphLagrangian", "GridEvaluator", "HopfResult",
    "InitialDatum", "LaxResult", "LegendreDual", "MeanActionReport",
    "MechanicalBeta1D", "MetricGraph", "ModelValidityError",
    "QuotientPoint", "RegularityReport", "Scenario", "ScenarioConfig",
    "SolverError", "SpaceConvergenceReport", "SubcoverMap", "TorusBump",
    "TorusCover", "TorusHamiltonian", "TrigPolynomial",
    "WindowExhaustedError", "affine_datum_check", "allocate_time",
    "alpha_beta_duality", "alpha_graph", "alpha_torus_minimax",
    "alpha_torus_quadrature", "beta_graph", "beta_hat", "cover_distance",
    "datum_on_cover", "default_beta_evaluator", "double_legendre_residual",
    "effective_hamiltonian_subcover", "estimate_space_convergence",
    "f_eps", "fenchel_young_residual", "figure_eight",
    "function_convergence_check", "g_map", "ghat_map", "hopf_lax",
    "lax_oleinik", "legendre_transform", "legendre_transform_numeric",
    "load_config", "match_point", "matching_bound", "mean_action_check",
    "minimal_action", "minimal_action_graph", "minimal_action_torus",
    "minimal_action_torus_rescaled", "norm_value", "quotient_distance",
    "run_experiment", "run_subcover_experiment", "search_radius",
    "single_loop", "subcover_lift", "subcover_project", "tabulate_evaluator",
    "verify_tonelli",
]
