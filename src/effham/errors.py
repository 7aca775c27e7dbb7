"""Exception types shared across the package.

The command line front end maps these onto process exit codes, so solver
code should raise the most specific type available instead of a bare
ValueError whenever the failure is meaningful to a caller.
"""


class EffhamError(Exception):
    """Base class for package errors."""


class ConfigError(EffhamError):
    """A scenario configuration is structurally or semantically invalid.

    ``path`` holds a dotted field path ("experiment.epsilons[2]") so the
    CLI can report exactly which entry was rejected.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ModelValidityError(EffhamError):
    """A model violates the convexity/positivity assumptions it declares."""


class SolverError(EffhamError):
    """An iterative solver failed to converge or exhausted its budget;
    ``query`` indexes the query of ``action.lax_oleinik_many`` that failed."""

    query = None
