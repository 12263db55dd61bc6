"""Exception types and the input checks shared across the package."""

import math
import numbers


class ValidationError(ValueError):
    """Raised when an input value violates a documented precondition."""


def check_numbers(obj, names=(), nonnegative=()) -> None:
    """Raise ValidationError unless each attribute of obj named in `names`
    or `nonnegative` is a finite real number other than a bool, and each
    named in `nonnegative` is also at least 0."""
    for name in (*names, *nonnegative):
        value = getattr(obj, name)
        if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                           and math.isfinite(value)):
            raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if name in nonnegative and value < 0:
            raise ValidationError(f"{name} must be non-negative, got {value!r}")


def check_counts(obj, least) -> None:
    """Raise ValidationError unless each attribute of obj named in the dict
    `least` is an integer (numbers.Integral, not bool) of at least its value."""
    for name, low in least.items():
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValidationError(f"{name} must be at least {low}, got {value}")


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
                 segment_index=None, stimulus_id=None, participant=None):
        self.channel = channel
        self.target_rate = target_rate
        self.rate_min = rate_min
        self.rate_max = rate_max
        self.segment_index = segment_index
        self.stimulus_id = stimulus_id
        self.participant = participant
        where = ", ".join(f"{name} {value}" for name, value in (
            ("participant", participant), ("stimulus", stimulus_id))
            if value is not None)
        where = f" for {where}" if where else ""
        if segment_index is not None:
            where += f" (segment {segment_index})"
        super().__init__(
            f"{channel} channel cannot reach {target_rate:+.4f} degC/s{where}; "
            f"feasible interval is [{rate_min:+.4f}, {rate_max:+.4f}] degC/s"
        )

    def __reduce__(self):
        # The default rebuilds from self.args, the message alone.
        return (type(self), (self.channel, self.target_rate, self.rate_min,
                             self.rate_max, self.segment_index,
                             self.stimulus_id, self.participant))

    def located(self, **where) -> "UnreachableRateError":
        """This error with more context: each given field (segment_index,
        stimulus_id, participant) replaces this error's value."""
        fields = dict(segment_index=self.segment_index,
                      stimulus_id=self.stimulus_id, participant=self.participant)
        fields.update(where)
        return UnreachableRateError(self.channel, self.target_rate,
                                    self.rate_min, self.rate_max, **fields)


class CalibrationError(RuntimeError):
    """Calibration failed to converge; carries the residual report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
