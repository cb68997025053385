"""Exception types shared across the package."""


class SpclError(Exception):
    """Base class for package errors."""


class NormTooSmall(SpclError):
    """Vector norm at or below the normalization floor; refusing to divide."""


class NonFiniteValue(SpclError):
    """An operation produced NaN or Inf."""


class ShapeMismatch(SpclError):
    """Operand shapes are incompatible."""


class InvalidConfig(SpclError):
    """A configuration value violates its contract."""


class DataError(SpclError):
    """Dataset is missing, malformed, or inconsistent."""


class VerificationFailure(SpclError):
    """One or more verification property families failed."""

    def __init__(self, failed_families):
        self.failed_families = list(failed_families)
        super().__init__("verification failed: " + ", ".join(self.failed_families))


class DisconnectedParamWarning(UserWarning):
    """A parameter passed to ``GradTape.gradient`` does not influence the output."""
