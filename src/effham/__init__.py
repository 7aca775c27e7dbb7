"""Effective Hamiltonians on abelian covers: solvers, checks, experiments.

The package splits along the pipeline: ``model`` defines the periodic
systems, ``topology`` their maximal abelian covers and rescalings,
``action`` the finite-horizon variational solvers, ``mather`` the
long-run averaged quantities and their dualities, ``homogenize`` the
ladder experiments, and ``cli``/``config`` the batch front end.  The
names below are the package-level entry points; everything else is
imported from its module.
"""

from .errors import ConfigError, EffhamError, ModelValidityError, SolverError
from .action import hopf_lax, lax_oleinik
from .homogenize import Scenario, run_experiment
from .config import load_config

__all__ = [
    "ConfigError", "EffhamError", "ModelValidityError", "Scenario",
    "SolverError", "hopf_lax", "lax_oleinik", "load_config",
    "run_experiment",
]
