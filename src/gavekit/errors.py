"""Exception types shared across the package."""


class GavekitError(Exception):
    """Base class for all gavekit errors."""


class DimensionError(GavekitError, ValueError):
    """Operands have incompatible shapes."""


class ParameterError(GavekitError, ValueError):
    """A parameter is outside its admissible range."""


class ConfigurationError(GavekitError, ValueError):
    """Solver, splitting, or omega configuration is inconsistent."""


class SingularMatrixError(GavekitError):
    """Matrix is structurally or numerically singular."""


class NumericsError(GavekitError):
    """A non-finite value appeared during computation."""


class DivergenceError(GavekitError):
    """Iteration residual exceeded the divergence guard."""


class ConvergenceFailure(GavekitError):
    """An iterative estimate or search did not converge within its budget."""


class FormatError(GavekitError, ValueError):
    """Malformed file content."""


class SpecError(GavekitError, ValueError):
    """Invalid experiment specification."""
