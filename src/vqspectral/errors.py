"""Exception types shared across the package."""


class VqSpectralError(Exception):
    """Base class for all package errors."""


class ContractViolation(VqSpectralError):
    """An argument violated a documented precondition."""


class ConfigurationError(VqSpectralError):
    """An unsupported or inconsistent configuration was requested."""


class NumericError(VqSpectralError):
    """A numeric procedure failed to converge or produced a non-finite value."""


class SingularSystemError(VqSpectralError):
    """The assembled operator is numerically rank deficient."""

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(f"{message} (condition estimate {condition_estimate:.3e})")
        self.condition_estimate = condition_estimate


class DivisionGuardError(VqSpectralError):
    """A relative metric was requested against a zero-norm reference."""


class TruncationDegenerateError(VqSpectralError):
    """A coefficient threshold removed every expansion term."""


class DegenerateDenominatorError(VqSpectralError):
    """The loss denominator radicand fell below tolerance or is not finite."""


class DivergenceError(VqSpectralError):
    """Training produced a non-finite or exploding quantity."""


class PhaseContaminationWarning(UserWarning):
    """A recovered solution carried a non-negligible imaginary residue."""
