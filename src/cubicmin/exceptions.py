"""Exception types raised across the package.

Grouped here so callers can catch the common base class and so the CLI
can map error families onto exit codes (input errors vs. solver errors).
"""


class CubicminError(Exception):
    """Base class for all errors raised by this package."""


class ConvergenceError(CubicminError):
    """An iterative kernel failed to converge: it hit its iteration cap or
    left double range."""


class PoleEvaluation(CubicminError):
    """The secular function was evaluated at or too close to a pole."""


class NormMismatch(CubicminError):
    """A degenerate multiplier is inconsistent with its norm equation."""


class CertificateFailure(CubicminError):
    """A computed solution failed its global-optimality certificate."""


class NotStationary(CubicminError):
    """An exact escape move was requested at a non-stationary point."""


class NonNegativeCurvature(CubicminError):
    """A negative-curvature construction was called without negative curvature."""


class ThresholdNotMet(CubicminError):
    """Negative curvature exists but no escape-case tolerance threshold holds.

    Callers should tighten the stationarity tolerance of the local solve
    and retry; the thresholds scale with the gradient residual.
    """


class BoundExceeded(CubicminError):
    """The escape loop exceeded the theoretical bound on escape steps."""


class ToleranceFloor(CubicminError):
    """Tolerance tightening reached the floating-point floor without resolution."""


class EmptyInput(CubicminError):
    """An operation that needs at least one record received none."""


class SchemaError(CubicminError):
    """A problem file violates the documented schema.

    Carries the offending field name so the CLI can point at the entry.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
