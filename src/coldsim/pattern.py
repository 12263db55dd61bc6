"""Stimulus pattern algebra for the cold-sensation display.

A stimulus alternates a continuously running cold-air channel with an
intermittent radiant warm channel.  Three pattern kinds are supported:

- S1: alternating cooling/warming cycles that hold the mean skin
  temperature constant (the per-cycle swing integrates to zero),
- S2: an initial temperature drop followed by a balanced hold,
- S3: continuous cooling only.

Cycle quantities follow from three design inputs: the cooling rate
(negative), the fraction of each cycle spent cooling, and the per-cycle
temperature swing.  Schedule boundaries are carried as exact rationals
(derived from the decimal reading of the inputs) so that long schedules
accumulate no floating-point drift and whole cycles balance exactly.
A compiled schedule holds its segment ends as whole ticks of one
denominator and its two rates; its Fractions and Segments are built only
when asked for, and control reads the ticks directly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .errors import ValidationError, WrongKindError
from .plant import _decimal

KINDS = ("S1", "S2", "S3")

# Shortest stimulation cycle the actuators can alternate cleanly, seconds.
MIN_CYCLE_TIME = 0.5

# Default per-cycle skin temperature swing, degC.
DEFAULT_SWING = 0.06


@lru_cache(maxsize=4096)
def _decimal_fraction(x) -> Fraction:
    num, q = _decimal(x)
    return Fraction(num, 10**q)


def _exact(x: Union[float, int, Fraction]) -> Fraction:
    """Exact rational from the decimal reading of a number.

    Floats are interpreted through their shortest round-trip decimal
    representation, so 0.06 becomes 3/50 rather than the nearest binary
    fraction.  This keeps cycle boundaries like 0.6 s exact.
    """
    if isinstance(x, Fraction):
        return x
    return _decimal_fraction(x)


@dataclass(frozen=True)
class StimulusSpec:
    """One stimulus pattern request.

    cooling_rate is always negative (degC/s).  cooling_ratio (fraction of
    a cycle spent cooling) and swing (degC per half-cycle) apply to S1
    only; drop_duration (seconds of initial cooling) applies to S2 only.
    """

    kind: str
    cooling_rate: float
    cooling_ratio: Optional[float] = None
    swing: float = DEFAULT_SWING
    duration: float = 15.0
    drop_duration: float = 5.0


def stimulus_id(spec: StimulusSpec) -> str:
    """Stable label for a spec, used in study plans and calibration reports."""
    if spec.kind == "S1":
        return f"S1_vc{spec.cooling_rate}_r{spec.cooling_ratio}"
    return f"{spec.kind}_vc{spec.cooling_rate}"


@dataclass(frozen=True)
class SpecIssue:
    severity: str  # "error" | "warning"
    message: str


def validate_spec(spec: StimulusSpec) -> list[SpecIssue]:
    """Check a stimulus spec against its invariants.

    Returns a list of issues; hard violations carry severity "error".
    A cycle shorter than MIN_CYCLE_TIME is reported as a warning only,
    since the actuators can still be driven, just less cleanly.
    """
    return _validate(spec)[0]


def _validate(spec: StimulusSpec):
    """validate_spec's issues, plus the exact S1 cycle quantities when
    the spec is a valid S1 (None otherwise)."""
    issues: list[SpecIssue] = []
    exact = None

    def err(msg):
        issues.append(SpecIssue("error", msg))

    if spec.kind not in KINDS:
        err(f"kind must be one of {KINDS}, got {spec.kind!r}")
        return issues, None
    for name in ("cooling_rate", "cooling_ratio", "swing", "duration", "drop_duration"):
        value = getattr(spec, name)
        if value is not None and not math.isfinite(value):
            err(f"{name} must be a finite number, got {value!r}")
    if issues:  # the checks below compare numbers, which inf and NaN defeat
        return issues, None
    if not spec.duration > 0:
        err("duration must be positive")
    if not spec.cooling_rate < 0:
        err("cooling_rate must be negative")
    if spec.kind == "S1":
        if spec.cooling_ratio is None or not 0 < spec.cooling_ratio < 1:
            err("cooling_ratio must lie in the open interval (0, 1)")
        if not spec.swing > 0:
            err("swing must be positive")
        if not issues:
            exact = _derive_exact(spec)
            cycle = exact[1]
            if cycle < _exact(MIN_CYCLE_TIME):
                issues.append(SpecIssue(
                    "warning",
                    f"cycle time {float(cycle):.3f} s is below the "
                    f"{MIN_CYCLE_TIME} s actuation floor",
                ))
    elif spec.kind == "S2":
        if not spec.drop_duration > 0:
            err("drop_duration must be positive")
        elif spec.duration > 0 and not spec.drop_duration < spec.duration:
            err("drop_duration must be shorter than duration")
    return issues, exact


def _require_valid(spec: StimulusSpec):
    """Raise ValidationError on a spec's errors; else return the exact S1
    cycle quantities of _derive_exact (None for S2 and S3)."""
    issues, exact = _validate(spec)
    errors = [i.message for i in issues if i.severity == "error"]
    if errors:
        raise ValidationError("; ".join(errors))
    return exact


def _derive_exact(spec: StimulusSpec):
    """Exact cycle quantities for an S1 spec.

    Returns (cooling_time, cycle_time, recovery_rate, warm_rate) as
    Fractions.  recovery_rate is the net rate during the warming part of
    the cycle; warm_rate is what the warm channel must supply on top of
    the still-running cold channel.
    """
    # With rate = -a/b, ratio = c/d and swing = e/f (a, b, c, d, e, f > 0):
    #   cooling_time  = swing / -rate                        = e*b / (f*a)
    #   cycle_time    = cooling_time / ratio                 = e*b*d / (f*a*c)
    #   recovery_rate = swing / (cycle_time - cooling_time)  = a*c / (b*(d-c))
    #   warm_rate     = recovery_rate - rate                 = a*d / (b*(d-c))
    # Each is computed on the integers and made one Fraction.
    rate, ratio, swing = (_exact(x) for x in
                          (spec.cooling_rate, spec.cooling_ratio, spec.swing))
    a, b = -rate.numerator, rate.denominator
    c, d = ratio.numerator, ratio.denominator
    e, f = swing.numerator, swing.denominator
    return (Fraction(e * b, f * a), Fraction(e * b * d, f * a * c),
            Fraction(a * c, b * (d - c)), Fraction(a * d, b * (d - c)))


@dataclass(frozen=True)
class DerivedPattern:
    """Cycle quantities derived from an S1 stimulus spec."""

    cooling_time: float   # s spent cooling per cycle
    cycle_time: float     # s per full cycle
    recovery_rate: float  # degC/s net rate during the warming part
    warm_rate: float      # degC/s the warm channel must deliver


def derive_pattern(spec: StimulusSpec) -> DerivedPattern:
    """Derive the cycle quantities of an S1 stimulus.

    Raises WrongKindError for S2/S3 specs and ValidationError when the
    spec violates its invariants.
    """
    if spec.kind != "S1":
        raise WrongKindError(f"derive_pattern requires an S1 spec, got {spec.kind}")
    cooling_time, cycle_time, recovery_rate, warm_rate = _require_valid(spec)
    return DerivedPattern(
        cooling_time=float(cooling_time),
        cycle_time=float(cycle_time),
        recovery_rate=float(recovery_rate),
        warm_rate=float(warm_rate),
    )


@dataclass(frozen=True)
class Segment:
    """One piecewise-constant stretch of a rate schedule.

    Boundaries and rate are exact rationals.
    """

    start: Fraction
    end: Fraction
    rate: Fraction
    cold_active: bool
    warm_active: bool


@dataclass(frozen=True)
class RateSchedule:
    """Target skin-temperature-rate segments covering [0, duration].

    The segments alternate, starting with cooling: segment i ends at
    ends[i] ticks of 1/den s, where segment i + 1 starts, and runs at
    cooling_rate for even i and at warming_rate for odd i (exact
    Fractions; warming_rate is S1's recovery rate, 0 for S2, None for S3).
    """

    den: int
    ends: tuple[int, ...]
    cooling_rate: Fraction
    warming_rate: Optional[Fraction]
    duration: Fraction

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The segments with exact boundaries, built on each call; each
        boundary is one Fraction shared by the two segments it separates."""
        segments = []
        start = Fraction(0)
        rates = (self.cooling_rate, self.warming_rate)  # even, odd segments
        for index, end_tick in enumerate(self.ends):
            end = Fraction(end_tick, self.den)
            segments.append(Segment(start, end, rates[index % 2], True, index % 2 == 1))
            start = end
        return tuple(segments)

    def rate_integral(self, start=None, end=None) -> Fraction:
        """Exact integral of the target rate over [start, end] (degC)."""
        t0 = Fraction(0) if start is None else _exact(start)
        t1 = self.duration if end is None else _exact(end)
        total = Fraction(0)
        for seg in self.segments:
            lo = max(seg.start, t0)
            hi = min(seg.end, t1)
            if hi > lo:
                total += seg.rate * (hi - lo)
        return total

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["start_s", "end_s", "rate_c_per_s",
                             "cold_active", "warm_active"])
            for seg in self.segments:
                writer.writerow([
                    float(seg.start), float(seg.end), float(seg.rate),
                    str(seg.cold_active).lower(), str(seg.warm_active).lower(),
                ])


def compile_schedule(spec: StimulusSpec) -> RateSchedule:
    """Compile a stimulus spec into a rate schedule over [0, duration].

    S1 alternates cooling and warming segments, starting with cooling and
    truncating the final partial cycle exactly at the requested duration.
    S2 is one cooling drop followed by a balanced hold at rate zero.
    S3 is a single cooling segment.  The cold channel is active on every
    segment; the warm channel is active exactly where the target rate
    sits above the cooling rate.  Every boundary is computed on integer
    ticks of one denominator per schedule.  Raises ValidationError on the
    spec's errors.
    """
    exact = _require_valid(spec)
    duration = _exact(spec.duration)
    rate = _exact(spec.cooling_rate)
    if spec.kind == "S1":
        cooling_time, cycle_time, warming_rate, _ = exact  # recovery rate
        # Each boundary is computed on integers, from whole-cycle multiples.
        den, (cool, cycle, end) = _common_ticks(cooling_time, cycle_time, duration)
        ends = []
        for pos in range(0, end, cycle):
            cool_end = pos + cool
            if cool_end >= end:  # the duration ends while cooling
                ends.append(end)
                break
            warm_end = pos + cycle
            ends += (cool_end, warm_end if warm_end < end else end)
    elif spec.kind == "S2":
        den, ends = _common_ticks(_exact(spec.drop_duration), duration)
        warming_rate = Fraction(0)
    else:  # S3
        den, ends = _common_ticks(duration)
        warming_rate = None
    return RateSchedule(den, tuple(ends), rate, warming_rate, duration)


def _common_ticks(*times: Fraction) -> tuple[int, list[int]]:
    """The least common denominator of some times, and each time as a
    whole number of ticks of 1/den."""
    den = math.lcm(*(t.denominator for t in times))
    return den, [t.numerator * (den // t.denominator) for t in times]
