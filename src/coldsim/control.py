"""Duty models, calibration, and the control-loop runner.

Each actuator channel is modeled as an affine map from PWM duty ratio to
skin-temperature rate over a valid duty band.  Calibration measures
single-stimulus rates on a duty grid, fits both channels by least
squares, then verifies that full stimulus patterns leave the skin
temperature unchanged; a residual net drift is folded back into the warm
model and the verification repeats until the drift gate passes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, asdict
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


def default_duty_range(channel: str) -> tuple[float, float]:
    if channel == "valve":
        return VALVE_DUTY_RANGE
    if channel == "led":
        return LED_DUTY_RANGE
    raise ValidationError(f"unknown channel {channel!r}")


def exact_models(params) -> tuple[DutyModel, DutyModel]:
    """Duty models copied from a plant's true coefficients (no fitting)."""
    valve = DutyModel("valve", params.valve_gain, params.valve_bias,
                      *VALVE_DUTY_RANGE, r_squared=1.0)
    led = DutyModel("led", params.led_gain, params.led_bias,
                    *LED_DUTY_RANGE, r_squared=1.0)
    return valve, led


@dataclass(frozen=True)
class CalibrationPoint:
    """One single-stimulus measurement: duty, temperature change, duration."""

    duty: float
    delta_temp: float   # degC over the measurement window
    delta_time: float = MEASURE_TIME  # s

    @property
    def rate(self) -> float:
        return self.delta_temp / self.delta_time


def mean_rate(points: Sequence[CalibrationPoint]) -> float:
    """Average measured rate over repeats of one duty setting."""
    if not points:
        raise ValidationError("mean_rate needs at least one measurement")
    duty = points[0].duty
    delta_time = points[0].delta_time
    for p in points:
        if p.duty != duty or p.delta_time != delta_time:
            raise ValidationError("mean_rate expects a common duty and delta_time")
    return sum(p.rate for p in points) / len(points)


def fit_duty_model(points: Sequence[CalibrationPoint], channel: str) -> DutyModel:
    """Least-squares affine fit of rate against duty over the channel's band."""
    if len(points) < 2:
        raise ValidationError("fit_duty_model needs at least 2 points")
    duties = [p.duty for p in points]
    rates = [p.rate for p in points]
    if len(set(duties)) < 2:
        raise DegenerateDesignError("all duty values identical; cannot fit a line")
    n = len(points)
    mean_d = sum(duties) / n
    mean_v = sum(rates) / n
    sxx = sum((d - mean_d) ** 2 for d in duties)
    sxy = sum((d - mean_d) * (v - mean_v) for d, v in zip(duties, rates))
    slope = sxy / sxx
    intercept = mean_v - slope * mean_d
    ss_res = sum((v - (slope * d + intercept)) ** 2 for d, v in zip(duties, rates))
    ss_tot = sum((v - mean_v) ** 2 for v in rates)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DutyModel(channel, slope, intercept, *default_duty_range(channel),
                     r_squared)


def invert_duty(model: DutyModel, target_rate: float) -> float:
    """Duty ratio that the model predicts will produce target_rate.

    Raises UnreachableRateError when the duty falls outside the model's
    valid band by more than 1e-9 (boundary round-off is clamped).
    """
    if model.slope == 0.0:
        raise ValidationError("cannot invert a zero-slope duty model")
    duty = (target_rate - model.intercept) / model.slope
    if duty < model.duty_min - 1e-9 or duty > model.duty_max + 1e-9:
        lo, hi = model.rate_range()
        raise UnreachableRateError(model.channel, target_rate, lo, hi)
    return min(max(duty, model.duty_min), model.duty_max)


def apply_drift_correction(points: Sequence[CalibrationPoint], net_drift: float,
                           duration: float) -> list[CalibrationPoint]:
    """Shift measured rates by the residual drift rate net_drift/duration.

    A pattern that should have been heat-balanced but left the skin
    net_drift warmer means the channel delivered that much extra rate;
    folding it into the measured rates and refitting cancels it.
    """
    if not duration > 0:
        raise ValidationError("duration must be positive")
    correction = net_drift / duration
    return [CalibrationPoint(p.duty, p.delta_temp + correction * p.delta_time,
                             p.delta_time)
            for p in points]


def default_verification_specs() -> tuple[StimulusSpec, ...]:
    """Alternating patterns used to check heat balance after fitting.

    A subset of the study grid, including one low cooling-ratio pattern
    whose long warm phase makes warm-channel bias visible.  The grid's
    most demanding warm rate is deliberately absent: the first fit sits
    slightly low (ambient pull absorbed during single-channel
    measurement counts twice when both channels run), and the
    drift-correction rounds must lift the warm model before that corner
    becomes commandable.
    """
    return (
        StimulusSpec("S1", cooling_rate=-0.16, cooling_ratio=0.5),
        StimulusSpec("S1", cooling_rate=-0.20, cooling_ratio=0.5),
        StimulusSpec("S1", cooling_rate=-0.20, cooling_ratio=0.3),
    )


@dataclass(frozen=True)
class CalibrationProtocol:
    """Calibration settings that callers vary; the duty grids, repeats,
    measurement time and drift gate are this module's constants."""

    verify_specs: tuple = field(default_factory=default_verification_specs)
    max_iters: int = 10
    sensor_resolution: float = DEFAULT_SENSOR_RESOLUTION  # degC; 0 = ideal
    measurement_noise: float = 0.0    # degC/s sigma added to measured rates
    noise_seed: Optional[int] = None


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

    A file that does not hold them raises ValidationError naming it.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return DutyModel(**doc["valve"]), DutyModel(**doc["led"])
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot read {path} as duty models: {exc!r}") from exc


def _measure_channel(plant: SkinPlant, protocol: CalibrationProtocol,
                     grid: Sequence[float], channel: str,
                     rng: np.random.Generator) -> list[CalibrationPoint]:
    """Single-stimulus rate measurements over one duty grid.

    The skin is re-initialized before every measurement; the change is
    read through the (optionally quantized) sensor.  Endpoint duties are
    repeated to firm up the band limits.
    """
    n_steps = int(round(MEASURE_TIME / DT))
    points = []
    for i, duty in enumerate(grid):
        repeats = ENDPOINT_REPEATS if i in (0, len(grid) - 1) else 1
        for _ in range(repeats):
            plant.reset()
            before = plant.read_sensor(protocol.sensor_resolution).value
            if channel == "valve":
                plant.run_span(duty_valve=duty, valve_on=True, n_steps=n_steps)
            else:
                plant.run_span(duty_led=duty, led_on=True, n_steps=n_steps)
            after = plant.read_sensor(protocol.sensor_resolution).value
            delta = after - before
            if protocol.measurement_noise > 0.0:
                delta += rng.normal(0.0, protocol.measurement_noise) * MEASURE_TIME
            points.append(CalibrationPoint(duty, delta))
    return points


def _mean_points(points: Sequence[CalibrationPoint]) -> list[CalibrationPoint]:
    """Collapse repeated measurements into one averaged point per duty."""
    by_duty: dict[float, list[CalibrationPoint]] = {}
    for p in points:
        by_duty.setdefault(p.duty, []).append(p)
    collapsed = []
    for duty, group in by_duty.items():
        rate = mean_rate(group)
        dt_meas = group[0].delta_time
        collapsed.append(CalibrationPoint(duty, rate * dt_meas, dt_meas))
    collapsed.sort(key=lambda p: p.duty)
    return collapsed


def calibrate(plant: SkinPlant,
              protocol: Optional[CalibrationProtocol] = None) -> CalibrationResult:
    """Run the full measurement-fit-verify-correct loop against a plant.

    Raises CalibrationError when the drift gate still fails after
    max_iters correction rounds; unreachable verification rates
    propagate as UnreachableRateError.
    """
    protocol = protocol if protocol is not None else CalibrationProtocol()
    if len({spec.duration for spec in protocol.verify_specs}) > 1:
        raise ValidationError("verification patterns must share one duration")
    rng = np.random.default_rng(protocol.noise_seed)

    raw_valve = _measure_channel(plant, protocol, VALVE_GRID, "valve", rng)
    raw_led = _measure_channel(plant, protocol, LED_GRID, "led", rng)
    valve_points = _mean_points(raw_valve)
    led_points = _mean_points(raw_led)
    valve_model = fit_duty_model(valve_points, "valve")
    led_model = fit_duty_model(led_points, "led")

    schedules = [compile_schedule(spec) for spec in protocol.verify_specs]
    history: list[list[VerificationCheck]] = []
    for iteration in range(1, protocol.max_iters + 1):
        checks = []
        nets = []
        for spec, schedule in zip(protocol.verify_specs, schedules):
            timeline = schedule_to_timeline(schedule, valve_model, led_model)
            plant.reset()
            before = plant.read_sensor(protocol.sensor_resolution).value
            run_control(timeline, plant)
            after = plant.read_sensor(protocol.sensor_resolution).value
            net = after - before
            nets.append(net)
            checks.append(VerificationCheck(
                stimulus_id(spec), net, abs(net) <= DRIFT_THRESHOLD))
        history.append(checks)
        if all(c.passed for c in checks):
            return CalibrationResult(valve_model, led_model, iteration, history)
        drift = sum(nets) / len(nets)
        duration = protocol.verify_specs[0].duration
        led_points = apply_drift_correction(led_points, drift, duration)
        led_model = fit_duty_model(led_points, "led")

    raise CalibrationError(
        f"verification drift still above {DRIFT_THRESHOLD} degC "
        f"after {protocol.max_iters} iterations", report=history)


@dataclass(frozen=True)
class ChannelSpan:
    start: float
    end: float
    duty: float
    active: bool


@dataclass(frozen=True)
class ActuatorTimeline:
    """Per-channel duty spans covering [0, duration]."""

    valve: tuple[ChannelSpan, ...]
    led: tuple[ChannelSpan, ...]
    duration: float

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["channel", "start_s", "end_s", "duty", "active"])
            for channel, spans in (("valve", self.valve), ("led", self.led)):
                for span in spans:
                    writer.writerow([channel, span.start, span.end, span.duty,
                                     str(span.active).lower()])


def schedule_to_timeline(schedule: RateSchedule, valve_model: DutyModel,
                         led_model: DutyModel) -> ActuatorTimeline:
    """Translate a rate schedule into actuator duty spans.

    The cold channel runs for the whole presentation at the duty that
    realizes the cooling rate.  On warming/hold segments the warm channel
    supplies the difference between the segment's target rate and the
    still-running cooling rate.
    """
    base_rate = schedule.base_cooling_rate
    valve_duty = invert_duty(valve_model, base_rate)
    valve_spans = [ChannelSpan(0.0, schedule.duration_s, valve_duty, True)]
    led_spans = []
    for index, seg in enumerate(schedule.segments):
        if seg.warm_active:
            warm_rate = seg.rate_c_per_s - base_rate
            try:
                led_duty = invert_duty(led_model, warm_rate)
            except UnreachableRateError as exc:
                raise UnreachableRateError(
                    exc.channel, exc.target_rate, exc.rate_min, exc.rate_max,
                    segment_index=index) from exc
            led_spans.append(ChannelSpan(seg.start_s, seg.end_s, led_duty, True))
        else:
            led_spans.append(ChannelSpan(seg.start_s, seg.end_s, 0.0, False))
    return ActuatorTimeline(tuple(valve_spans), tuple(led_spans),
                            schedule.duration_s)


def run_control(timeline: ActuatorTimeline, plant: SkinPlant,
                dt: float = DT) -> Trace:
    """Step the plant under a timeline and log at LOG_RATE.

    Each channel's spans must be ordered and disjoint; a step outside
    every active span has that channel off.  Span boundaries are snapped
    to the nearest step; an active span that would vanish entirely in
    the snapping is an error.  The plant runs the whole presentation in
    one call, and the returned trace covers t = 0 through the end of the
    timeline inclusive.
    """
    if not dt > 0:
        raise ValidationError("dt must be positive")
    total_ticks = int(round(timeline.duration / dt))

    n_log = total_ticks + 1
    duty_valve = np.zeros(n_log)
    duty_led = np.zeros(n_log)
    valve_on = np.zeros(n_log, dtype=bool)
    led_on = np.zeros(n_log, dtype=bool)
    for spans, duty, on in ((timeline.valve, duty_valve, valve_on),
                            (timeline.led, duty_led, led_on)):
        prev_end = 0.0
        for span in spans:
            if span.start < prev_end or span.end < span.start:
                raise ValidationError(
                    f"span [{span.start}, {span.end}) is out of order: spans on "
                    f"one channel must be ordered and disjoint from t = 0")
            prev_end = span.end
            if not span.active:
                continue
            # Boundaries snap to the nearest step (that is always within
            # half a step); a nonempty active span must still survive.
            t0, t1 = (min(int(round(t / dt)), total_ticks)
                      for t in (span.start, span.end))
            if t0 == t1 and span.end > span.start:
                raise ValidationError(
                    f"active span [{span.start}, {span.end}) collapses to "
                    f"zero steps at dt={dt}")
            duty[t0:t1] = span.duty
            on[t0:t1] = True
    # Hold the last actuator state on the final logged sample.
    if total_ticks > 0:
        for column in (duty_valve, duty_led, valve_on, led_on):
            column[-1] = column[-2]

    temp = np.empty(n_log)
    temp[0] = plant.t_skin
    temp[1:] = plant.run_span(duty_valve=duty_valve[:-1], duty_led=duty_led[:-1],
                              valve_on=valve_on[:-1], led_on=led_on[:-1],
                              dt=dt, n_steps=total_ticks)

    log_every = max(1, int(round(1.0 / (LOG_RATE * dt))))
    idx = np.arange(0, n_log, log_every)
    if idx[-1] != n_log - 1:
        idx = np.append(idx, n_log - 1)
    if abs(log_every * dt - 1.0 / LOG_RATE) < 1e-12:
        # Aligned subsampling: emit exact log-grid timestamps.
        time = (idx // log_every) / LOG_RATE
        if idx[-1] % log_every:
            time[-1] = idx[-1] * dt
    else:
        time = idx * dt
    return Trace(np.asarray(time, dtype=float), temp[idx], duty_valve[idx],
                 duty_led[idx], valve_on[idx], led_on[idx])
