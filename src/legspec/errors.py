"""Exception types shared across the toolkit."""


class LegspecError(Exception):
    """Base class for all toolkit errors."""


class InvalidSampleError(LegspecError):
    """A sample point/vector violates the suite preconditions."""


class InvalidPointError(LegspecError):
    """An ambient point is not on the unit sphere."""


class DegenerateImmersionError(LegspecError):
    """Immersion Jacobian is rank deficient."""


class UnsupportedError(LegspecError):
    """Requested object (dimension, immersion, mesh) is not shipped."""


class QuadratureError(LegspecError):
    """Quadrature failure, e.g. zero volume."""


class EvaluationError(LegspecError):
    """A field evaluated to a non-finite value."""


class ConvergenceError(LegspecError):
    """An iterative solver stopped before it converged."""


class PreconditionError(LegspecError):
    """A documented mathematical precondition failed its residual check."""


class InvalidFieldError(LegspecError):
    """A cone field fails its Killing/holomorphy requirements."""
