"""Exception types and the input check shared across the package."""

import math
import numbers


class ValidationError(ValueError):
    """Raised when an input value violates a documented precondition."""


def check_numbers(obj, names) -> None:
    """Raise ValidationError unless each named attribute of obj is a finite
    real number."""
    for name in names:
        value = getattr(obj, name)
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValidationError(f"{name} must be a finite number, got {value!r}")


class WrongKindError(ValidationError):
    """Raised when an operation receives a stimulus of the wrong kind."""


class DegenerateDesignError(ValidationError):
    """Raised when a regression design has no spread in the predictor."""


class UnreachableRateError(RuntimeError):
    """A target temperature rate falls outside an actuator's feasible band.

    Carries the feasible rate interval so callers can report what the
    channel could have delivered instead.
    """

    def __init__(self, channel, target_rate, rate_min, rate_max,
                 segment_index=None, stimulus_id=None):
        self.channel = channel
        self.target_rate = target_rate
        self.rate_min = rate_min
        self.rate_max = rate_max
        self.segment_index = segment_index
        self.stimulus_id = stimulus_id
        where = ""
        if stimulus_id is not None:
            where += f" for stimulus {stimulus_id}"
        if segment_index is not None:
            where += f" (segment {segment_index})"
        super().__init__(
            f"{channel} channel cannot reach {target_rate:+.4f} degC/s{where}; "
            f"feasible interval is [{rate_min:+.4f}, {rate_max:+.4f}] degC/s"
        )


class CalibrationError(RuntimeError):
    """Calibration failed to converge; carries the residual report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
