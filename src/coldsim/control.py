"""Duty models, calibration, and the control-loop runner.

Each actuator channel is modeled as an affine map from PWM duty ratio to
skin-temperature rate over a valid duty band.  Calibration drives each
channel alone at every duty of its grid for MEASURE_TIME, fits rate =
temperature change / MEASURE_TIME against duty by least squares, then
verifies that full stimulus patterns leave the skin temperature
unchanged; a residual net drift is folded back into the warm channel's
measurements and the verification repeats until the drift gate passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .errors import (CalibrationError, DegenerateDesignError,
                     UnreachableRateError, ValidationError, check_numbers)
from .pattern import RateSchedule, StimulusSpec, compile_schedule, stimulus_id
from .plant import DEFAULT_SENSOR_RESOLUTION, DT, SkinPlant, Trace

VALVE_DUTY_RANGE = (0.490, 0.601)
LED_DUTY_RANGE = (0.118, 0.902)

# Calibration duty grids; each spans its channel's duty band.
VALVE_GRID = (VALVE_DUTY_RANGE[0], 0.514, 0.538, 0.561, 0.584, VALVE_DUTY_RANGE[1])
LED_GRID = (LED_DUTY_RANGE[0], 0.275, 0.431, 0.588, 0.745, LED_DUTY_RANGE[1])
ENDPOINT_REPEATS = 3   # lowest/highest grid duty measured this often
MEASURE_TIME = 6.0     # s per single-stimulus measurement
DRIFT_THRESHOLD = 0.1  # degC net change allowed per verification pattern

# Alternating patterns that check heat balance after fitting, all of one
# duration (the drift rate divides by it): a subset of the study grid, including one low cooling-ratio
# pattern whose long warm phase makes warm-channel bias visible.  The
# grid's most demanding warm rate is deliberately absent: the first fit
# sits slightly low (ambient pull absorbed during single-channel
# measurement counts twice when both channels run), and the
# drift-correction rounds must lift the warm model before that corner
# becomes commandable.
VERIFY_SPECS = (
    StimulusSpec("S1", cooling_rate=-0.16, cooling_ratio=0.5),
    StimulusSpec("S1", cooling_rate=-0.20, cooling_ratio=0.5),
    StimulusSpec("S1", cooling_rate=-0.20, cooling_ratio=0.3),
)

# Samples per second in the traces run_control returns.
LOG_RATE = 100.0


@dataclass(frozen=True)
class DutyModel:
    """Affine duty-to-rate model for one actuator channel."""

    channel: str          # "valve" | "led"
    slope: float          # degC/s per duty fraction
    intercept: float      # degC/s
    duty_min: float
    duty_max: float
    r_squared: float = 1.0

    def __post_init__(self):
        check_numbers(self, ("slope", "intercept", "duty_min", "duty_max",
                             "r_squared"))
        if not (0.0 <= self.duty_min < self.duty_max <= 1.0):
            raise ValidationError("duty range must satisfy 0 <= min < max <= 1")

    def predicted_rate(self, duty: float) -> float:
        return self.slope * duty + self.intercept

    def rate_range(self) -> tuple[float, float]:
        lo = self.predicted_rate(self.duty_min)
        hi = self.predicted_rate(self.duty_max)
        return (min(lo, hi), max(lo, hi))

    def to_dict(self) -> dict:
        return asdict(self)


def exact_models(params) -> tuple[DutyModel, DutyModel]:
    """Duty models copied from a plant's true coefficients (no fitting)."""
    valve = DutyModel("valve", params.valve_gain, params.valve_bias,
                      *VALVE_DUTY_RANGE, r_squared=1.0)
    led = DutyModel("led", params.led_gain, params.led_bias,
                    *LED_DUTY_RANGE, r_squared=1.0)
    return valve, led


def fit_duty_model(duties: Sequence[float], rates: Sequence[float],
                   channel: str) -> DutyModel:
    """Least-squares affine fit of rate against duty over the channel's band."""
    duty_range = {"valve": VALVE_DUTY_RANGE, "led": LED_DUTY_RANGE}.get(channel)
    if duty_range is None:
        raise ValidationError(f"unknown channel {channel!r}")
    if len(duties) != len(rates):
        raise ValidationError(f"fit_duty_model needs one rate per duty, got "
                              f"{len(duties)} duties and {len(rates)} rates")
    if len(duties) < 2:
        raise ValidationError("fit_duty_model needs at least 2 points")
    if len(set(duties)) < 2:
        raise DegenerateDesignError("all duty values identical; cannot fit a line")
    n = len(duties)
    mean_d = sum(duties) / n
    mean_v = sum(rates) / n
    sxx = sum((d - mean_d) ** 2 for d in duties)
    sxy = sum((d - mean_d) * (v - mean_v) for d, v in zip(duties, rates))
    slope = sxy / sxx
    intercept = mean_v - slope * mean_d
    ss_res = sum((v - (slope * d + intercept)) ** 2 for d, v in zip(duties, rates))
    ss_tot = sum((v - mean_v) ** 2 for v in rates)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DutyModel(channel, slope, intercept, *duty_range, r_squared)


def invert_duty(model: DutyModel, target_rate: float) -> float:
    """Duty ratio that the model predicts will produce target_rate.

    Raises UnreachableRateError when the duty falls outside the model's
    valid band by more than 1e-9 (boundary round-off is clamped), and
    for a NaN target rate.
    """
    if model.slope == 0.0:
        raise ValidationError("cannot invert a zero-slope duty model")
    duty = (target_rate - model.intercept) / model.slope
    if not model.duty_min - 1e-9 <= duty <= model.duty_max + 1e-9:  # NaN fails
        lo, hi = model.rate_range()
        raise UnreachableRateError(model.channel, target_rate, lo, hi)
    return min(max(duty, model.duty_min), model.duty_max)


@dataclass(frozen=True)
class CalibrationProtocol:
    """Calibration settings that callers vary; the duty grids, repeats,
    measurement time, verification patterns and drift gate are this
    module's constants."""

    max_iters: int = 10
    sensor_resolution: float = DEFAULT_SENSOR_RESOLUTION  # degC; 0 = ideal
    measurement_noise: float = 0.0    # degC/s sigma added to measured rates
    noise_seed: Optional[int] = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be at least 1, got {self.max_iters}")
        check_numbers(self, nonnegative=("sensor_resolution", "measurement_noise"))


@dataclass(frozen=True)
class VerificationCheck:
    stimulus: str
    net_delta_t: float
    passed: bool


@dataclass
class CalibrationResult:
    valve: DutyModel
    led: DutyModel
    iterations: int
    verification: list[list[VerificationCheck]]

    def to_json(self, path) -> None:
        doc = {
            "valve": self.valve.to_dict(),
            "led": self.led.to_dict(),
            "meta": {
                "iterations": self.iterations,
                "valve_grid": list(VALVE_GRID),
                "led_grid": list(LED_GRID),
                "measure_time_s": MEASURE_TIME,
                "drift_threshold_c": DRIFT_THRESHOLD,
                "verification": [
                    [asdict(check) for check in round_]
                    for round_ in self.verification
                ],
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_models(path) -> tuple[DutyModel, DutyModel]:
    """Read the duty models that CalibrationResult.to_json wrote.

    A file that does not hold them, or whose "valve" or "led" entry is
    the model of another channel, raises ValidationError naming it.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        valve, led = DutyModel(**doc["valve"]), DutyModel(**doc["led"])
        for key, model in (("valve", valve), ("led", led)):
            if model.channel != key:
                raise ValidationError(
                    f"the {key!r} entry has channel {model.channel!r}")
        return valve, led
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot read {path} as duty models: {exc!r}") from exc


def _sensor_delta(plant: SkinPlant, protocol: CalibrationProtocol, before: float,
                  **span) -> float:
    """Skin-temperature change, read through the sensor, over one
    plant.run_span(**span) on a freshly reset skin.  Every reset starts
    at the plant's t_init, so the caller reads that skin once and passes
    the reading as before.  Both callers ask for one sample over the
    whole span, so the plant computes only its end."""
    plant.reset()
    plant.run_span(**span)
    return plant.read_sensor(protocol.sensor_resolution).value - before


def _measure_grid(plant: SkinPlant, protocol: CalibrationProtocol, before: float,
                  grid: Sequence[float], channel: str,
                  rng: np.random.Generator) -> list[float]:
    """Mean temperature change over MEASURE_TIME at each duty of one grid.

    The channel runs alone at the duty.  Endpoint duties are repeated to
    firm up the band limits; repeats are averaged as rates.
    """
    n_steps = int(round(MEASURE_TIME / DT))
    deltas = []
    for i, duty in enumerate(grid):
        repeats = ENDPOINT_REPEATS if i in (0, len(grid) - 1) else 1
        rates = []
        for _ in range(repeats):
            delta = _sensor_delta(plant, protocol, before, n_steps=n_steps,
                                  log_every=n_steps,
                                  **{f"duty_{channel}": duty, f"{channel}_on": True})
            if protocol.measurement_noise > 0.0:
                delta += rng.normal(0.0, protocol.measurement_noise) * MEASURE_TIME
            rates.append(delta / MEASURE_TIME)
        deltas.append(sum(rates) / repeats * MEASURE_TIME)
    return deltas


def calibrate(plant: SkinPlant,
              protocol: Optional[CalibrationProtocol] = None) -> CalibrationResult:
    """Run the full measurement-fit-verify-correct loop against a plant.

    A round fits the warm model to the warm channel's temperature
    changes and runs every verification pattern; when one leaves the
    skin more than DRIFT_THRESHOLD from where it started, the mean
    drift rate over the patterns is added to every warm measurement and
    the next round refits.  Each of VERIFY_SPECS is compiled and cut
    into the pieces run_control would play, from the schedule's integer
    ticks as schedule_to_timeline reads them, once per call.  It gets its
    cooling duty once the valve model is fitted, before the rounds; a
    round only inverts each pattern's distinct warm rates through its
    warm model.  Like each single-channel reading, each verification
    pattern is one run_span call that computes only the end temperature
    the sensor reads, not a logged trace.  Raises CalibrationError when
    the drift gate still fails after max_iters rounds, and
    UnreachableRateError naming the pattern when a verification rate is
    out of a fitted model's band.
    """
    protocol = protocol if protocol is not None else CalibrationProtocol()
    stimuli = [stimulus_id(spec) for spec in VERIFY_SPECS]
    cut = [_verification_inputs(spec, stimulus)
           for spec, stimulus in zip(VERIFY_SPECS, stimuli)]
    rng = np.random.default_rng(protocol.noise_seed)
    plant.reset()  # every reading starts from this skin
    before = plant.read_sensor(protocol.sensor_resolution).value

    valve_deltas = _measure_grid(plant, protocol, before, VALVE_GRID, "valve", rng)
    led_deltas = _measure_grid(plant, protocol, before, LED_GRID, "led", rng)
    valve_model = fit_duty_model(
        VALVE_GRID, [d / MEASURE_TIME for d in valve_deltas], "valve")

    verifications = [with_valve(valve_model) for with_valve in cut]
    history: list[list[VerificationCheck]] = []
    for iteration in range(1, protocol.max_iters + 1):
        led_model = fit_duty_model(
            LED_GRID, [d / MEASURE_TIME for d in led_deltas], "led")
        nets = [_sensor_delta(plant, protocol, before, **inputs(led_model))
                for inputs in verifications]
        checks = [VerificationCheck(stimulus, net, abs(net) <= DRIFT_THRESHOLD)
                  for stimulus, net in zip(stimuli, nets)]
        history.append(checks)
        if all(c.passed for c in checks):
            return CalibrationResult(valve_model, led_model, iteration, history)
        # A balanced pattern that ends warmer means the warm channel
        # delivers that much more rate than its measurements say.
        drift_rate = sum(nets) / len(nets) / VERIFY_SPECS[0].duration
        led_deltas = [d + drift_rate * MEASURE_TIME for d in led_deltas]

    raise CalibrationError(
        f"verification drift still above {DRIFT_THRESHOLD} degC "
        f"after {protocol.max_iters} iterations", report=history)


def _verification_inputs(spec: StimulusSpec, stimulus: str):
    """Cut a verification pattern into the pieces run_control would play,
    once, and return the function that takes the fitted valve model and
    returns the function giving run_span's inputs for one sample over the
    pattern under a warm model.

    The pattern is compiled and its warm spans read from the schedule's
    integer ticks by _warm_spans, as schedule_to_timeline reads them, so
    the pieces are the ones run_control would play.  The cooling duty is
    inverted once per valve model; the innermost function inverts only
    the distinct warm rates.  An unreachable rate raises
    UnreachableRateError naming the stimulus.
    """
    schedule = compile_schedule(spec)
    cooling_rate = schedule.base_cooling_rate
    warm, led_spans = _warm_spans(schedule)
    duration = schedule.duration_s
    # The cooling channel runs throughout, as in schedule_to_timeline.
    (_, led_index, _, led_on, n_steps), n = _timeline_pieces(
        duration, ((0.0, duration, 0),), led_spans, off=-1)

    def with_valve(valve_model: DutyModel):
        valve_duty = _invert_at(valve_model, cooling_rate, None, stimulus)

        def inputs(led_model: DutyModel) -> dict:
            led_duties = [_invert_at(led_model, rate, segment, stimulus)
                          for rate, (_, segment) in warm.items()]
            led_duties.append(0.0)  # at index -1: the warm channel is off
            return dict(duty_valve=valve_duty,
                        duty_led=np.array(led_duties)[led_index],
                        valve_on=True, led_on=led_on, n_steps=n_steps,
                        log_every=max(n, 1))
        return inputs
    return with_valve


def _invert_at(model: DutyModel, target_rate: float, segment_index=None,
               stimulus=None) -> float:
    """invert_duty, raising an unreachable rate with where it was asked for."""
    try:
        return invert_duty(model, target_rate)
    except UnreachableRateError as exc:
        raise exc.located(segment_index=segment_index, stimulus_id=stimulus) from exc


@dataclass(frozen=True)
class ChannelSpan:
    start: float
    end: float
    duty: float


@dataclass(frozen=True)
class ActuatorTimeline:
    """Per-channel duty spans over [0, duration]; off outside them."""

    valve: tuple[ChannelSpan, ...]
    led: tuple[ChannelSpan, ...]
    duration: float


def schedule_to_timeline(schedule: RateSchedule, valve_model: DutyModel,
                         led_model: DutyModel) -> ActuatorTimeline:
    """Translate a rate schedule into actuator duty spans.

    The cold channel runs for the whole presentation at the duty that
    realizes the cooling rate.  On warming/hold segments the warm channel
    supplies the difference between the segment's target rate and the
    still-running cooling rate; each distinct warm rate is inverted once,
    and an unreachable one names the first segment that asks for it.
    """
    valve_duty = invert_duty(valve_model, schedule.base_cooling_rate)
    warm, spans = _warm_spans(schedule)
    led_duties = [_invert_at(led_model, rate, segment)
                  for rate, (_, segment) in warm.items()]
    return ActuatorTimeline(
        (ChannelSpan(0.0, schedule.duration_s, valve_duty),),
        tuple(ChannelSpan(start, end, led_duties[k]) for start, end, k in spans),
        schedule.duration_s)


def _warm_spans(schedule: RateSchedule) -> tuple[dict, list]:
    """A schedule's warm-channel spans as (start, end, k) in seconds, k
    indexing the distinct warm rates (a segment's target rate less the
    schedule's cooling rate), and a dict of those rates in order of first
    use, each mapped to (k, the index of the first segment that asks for
    it).  A boundary of t ticks is the float t / den, which is the float
    of its exact Fraction bit for bit.
    """
    den, base_rate = schedule.den, schedule.base_cooling_rate
    warm: dict[float, tuple[int, int]] = {}
    spans = []
    last = None  # the segment rate that k was found for
    for index, (start, end, rate, warm_active) in enumerate(schedule.ticks):
        if warm_active:
            # S1 warm segments share one rate object: convert it once.
            if rate is not last:
                last = rate
                k = warm.setdefault(float(rate) - base_rate, (len(warm), index))[0]
            spans.append((start / den, end / den, k))
    return warm, spans


def _timeline_pieces(duration: float, valve, led, off=0.0) -> tuple[tuple, int]:
    """Snap two channels' spans to steps of DT and cut [0, duration]
    into pieces on which both channels hold one state.

    Each channel is an iterable of (start, end, value) spans, which must
    be ordered and disjoint; a step outside every span has that channel
    off.  Span boundaries are snapped to the nearest step; a span that
    would vanish entirely in the snapping is an error, and so is a
    non-finite boundary or duration.  Returns, in run_span's argument
    order, each channel's value per piece (off where the channel is off),
    each channel's on flag per piece and each piece's step count, all as
    arrays; and the duration's length in steps.
    """
    if not 0.0 <= duration < math.inf:
        raise ValidationError(f"timeline duration must be finite and "
                              f"non-negative, got {duration!r}")
    n = int(round(duration / DT))
    # Per channel, the (value, on) state that holds from each snapped
    # boundary on; a later span starting where an earlier one ends wins.
    changes = ({}, {})
    for spans, change in zip((valve, led), changes):
        prev_end = 0.0
        for start, end, value in spans:
            if not prev_end <= start <= end < math.inf:  # False for NaN
                if math.isfinite(start) and math.isfinite(end):
                    raise ValidationError(
                        f"span [{start}, {end}) is out of order: spans on one "
                        f"channel must be ordered and disjoint from t = 0")
                raise ValidationError(
                    f"span [{start}, {end}) has a non-finite boundary")
            prev_end = end
            # Boundaries snap to the nearest step (that is always within
            # half a step); a nonempty span must still survive.
            t0 = min(int(round(start / DT)), n)
            t1 = min(int(round(end / DT)), n)
            if t0 == t1 and end > start:
                raise ValidationError(
                    f"span [{start}, {end}) collapses to zero steps of {DT} s")
            change[t0] = (value, True)
            change[t1] = (off, False)

    cuts = sorted({0, n, *changes[0], *changes[1]})
    value_valve, valve_on, value_led, led_on = [], [], [], []  # per piece
    valve = led = (off, False)
    for cut in cuts[:-1]:
        valve = changes[0].get(cut, valve)
        led = changes[1].get(cut, led)
        value_valve.append(valve[0])
        valve_on.append(valve[1])
        value_led.append(led[0])
        led_on.append(led[1])

    return (np.array(value_valve), np.array(value_led),
            np.array(valve_on, dtype=bool), np.array(led_on, dtype=bool),
            np.diff(cuts)), n


_SPAN = attrgetter("start", "end", "duty")  # a ChannelSpan as (start, end, value)


def run_control(timeline: ActuatorTimeline, plant: SkinPlant) -> Trace:
    """Step the plant under a timeline at DT and log at LOG_RATE.

    The timeline is checked, snapped to steps and cut into pieces as
    _timeline_pieces says, and the plant runs all of them in one call
    that returns only the logged samples.  The returned trace covers
    t = 0 through the end of the timeline inclusive: the grid
    k / LOG_RATE, plus the end itself when it is off that grid.
    """
    pieces, n = _timeline_pieces(timeline.duration, map(_SPAN, timeline.valve),
                                 map(_SPAN, timeline.led))
    log_every = int(round(1.0 / (LOG_RATE * DT)))  # steps per logged sample
    start = plant.t_skin
    temps = plant.run_span(*pieces, log_every=log_every)
    time = np.arange(n // log_every + 1) / LOG_RATE
    if n % log_every:
        time = np.append(time, n * DT)
    return Trace(time, np.concatenate(([start], temps)))
