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
from dataclasses import dataclass, asdict
from typing import Optional, Sequence

import numpy as np

from .errors import (CalibrationError, DegenerateDesignError,
                     UnreachableRateError, ValidationError, check_counts, check_numbers)
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
# duration (the drift rate divides by it): a subset of the study grid,
# including one low cooling-ratio pattern whose long warm phase makes
# warm-channel bias visible.  The
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


def exact_models(params) -> tuple[DutyModel, DutyModel]:
    """Duty models copied from a plant's true coefficients (no fitting); the
    valve, which runs throughout a presentation, also carries the rest pull
    at t_init."""
    rest = params.relax_coeff * (params.t_neutral - params.t_init)
    valve = DutyModel("valve", params.valve_gain, params.valve_bias + rest,
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
    noise_seed: int | Sequence[int] | None = None  # any numpy seed

    def __post_init__(self):
        check_counts(self, {"max_iters": 1})
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
            "valve": asdict(self.valve),
            "led": asdict(self.led),
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
                  total: int, *inputs) -> float:
    """Skin-temperature change, read through the sensor, over one
    plant.run_span(*inputs) of total steps on a freshly reset skin.
    Every reset starts at the plant's t_init, so the caller reads that
    skin once and passes the reading as before.  The span returns one
    sample, after all total steps, so the plant computes only its end."""
    plant.reset()
    plant.run_span(*inputs, log_every=total)
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
        inputs = ((duty, 0.0, True, False) if channel == "valve"
                  else (0.0, duty, False, True))
        repeats = ENDPOINT_REPEATS if i in (0, len(grid) - 1) else 1
        rates = []
        for _ in range(repeats):
            delta = _sensor_delta(plant, protocol, before, n_steps, *inputs, n_steps)
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
    into pieces by _cut_schedule once per call, before the first plant
    reading; each round makes its timeline from that cut as
    schedule_to_timeline does, inverting only the cooling rate and the
    one warming rate.  Like each single-channel reading, each
    verification pattern is one run_span call that computes only the
    end temperature the sensor reads, not a logged trace.  Raises
    CalibrationError when the drift gate still fails after max_iters
    rounds, and UnreachableRateError naming the pattern (and, for the
    warming rate, segment 1) when a verification rate is out of a fitted
    model's band.
    """
    protocol = protocol if protocol is not None else CalibrationProtocol()
    patterns = []  # (stimulus, schedule, cut) of each verification pattern
    for spec in VERIFY_SPECS:
        schedule = compile_schedule(spec)
        patterns.append((stimulus_id(spec), schedule, _cut_schedule(schedule)))
    rng = np.random.default_rng(protocol.noise_seed)
    plant.reset()  # every reading starts from this skin
    before = plant.read_sensor(protocol.sensor_resolution).value

    valve_deltas = _measure_grid(plant, protocol, before, VALVE_GRID, "valve", rng)
    led_deltas = _measure_grid(plant, protocol, before, LED_GRID, "led", rng)
    valve_model = fit_duty_model(
        VALVE_GRID, [d / MEASURE_TIME for d in valve_deltas], "valve")

    history: list[list[VerificationCheck]] = []
    for iteration in range(1, protocol.max_iters + 1):
        led_model = fit_duty_model(
            LED_GRID, [d / MEASURE_TIME for d in led_deltas], "led")
        checks = []
        for stimulus, schedule, cut in patterns:
            try:
                tl = _invert_cut(schedule, cut, valve_model, led_model)
            except UnreachableRateError as exc:
                raise exc.located(stimulus_id=stimulus) from exc
            net = _sensor_delta(plant, protocol, before, int(tl.n_steps.sum()),
                                tl.valve_duty, tl.led_duty, True, tl.led_on,
                                tl.n_steps)
            checks.append(VerificationCheck(stimulus, net, abs(net) <= DRIFT_THRESHOLD))
        history.append(checks)
        if all(c.passed for c in checks):
            return CalibrationResult(valve_model, led_model, iteration, history)
        # A balanced pattern that ends warmer means the warm channel
        # delivers that much more rate than its measurements say.
        drift_rate = (sum(c.net_delta_t for c in checks) / len(checks)
                      / VERIFY_SPECS[0].duration)
        led_deltas = [d + drift_rate * MEASURE_TIME for d in led_deltas]

    raise CalibrationError(
        f"verification drift still above {DRIFT_THRESHOLD} degC "
        f"after {protocol.max_iters} iterations", report=history)


@dataclass(frozen=True)
class ActuatorTimeline:
    """What SkinPlant.run_span plays for one presentation: the cold
    channel on at valve_duty throughout, and the warm channel at
    led_duty, on or off as led_on says for each piece of n_steps steps
    of DT."""

    valve_duty: float
    led_duty: float
    led_on: np.ndarray
    n_steps: np.ndarray


def schedule_to_timeline(schedule: RateSchedule, valve_model: DutyModel,
                         led_model: DutyModel) -> ActuatorTimeline:
    """Translate a rate schedule into the pieces the plant plays.

    The cold channel runs for the whole presentation at the duty that
    realizes the cooling rate.  On warming/hold segments the warm channel
    supplies the difference between the schedule's warming rate and the
    still-running cooling rate.  The schedule is cut by _cut_schedule,
    as calibration cuts its verification patterns, and each of the two
    rates is inverted once; an unreachable warming rate names segment 1,
    the first that asks for it.
    """
    return _invert_cut(schedule, _cut_schedule(schedule), valve_model, led_model)


def _invert_cut(schedule: RateSchedule, cut: tuple, valve_model: DutyModel,
                led_model: DutyModel) -> ActuatorTimeline:
    """The timeline of a schedule and its _cut_schedule cut under two duty
    models.  An unreachable warming rate raises UnreachableRateError
    naming segment 1; the caller adds the stimulus."""
    cooling_rate = float(schedule.cooling_rate)
    valve_duty = invert_duty(valve_model, cooling_rate)
    led_duty = 0.0  # a schedule without a warm segment never turns it on
    if len(schedule.ends) > 1:
        try:
            led_duty = invert_duty(led_model, float(schedule.warming_rate) - cooling_rate)
        except UnreachableRateError as exc:
            raise exc.located(segment_index=1) from exc
    return ActuatorTimeline(valve_duty, led_duty, *cut)


def _cut_schedule(schedule: RateSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Cut a schedule into the pieces of DT steps that run_span plays.

    The cold channel runs throughout and every warm segment asks for the
    one warming rate, so a piece ends only where the warm channel turns
    on or off.  A segment's end of t ticks is the float t / den (the
    float of its exact Fraction, bit for bit), snapped to the nearest
    step.  A cooling segment that vanishes in the snapping joins the warm
    segments around it into one piece; a warm segment that would vanish
    raises ValidationError naming it, and so does the first segment of a
    schedule shorter than half a step.  Returns each piece's warm flag
    and step count.
    """
    den, ends = schedule.den, schedule.ends
    n = int(round(float(schedule.duration) / DT))
    led_on, stops = [], [0]  # each piece's warm flag, and the step it ends at
    for index, end in enumerate(ends):
        stop = min(int(round((end / den) / DT)), n)
        warm = index % 2 == 1
        if stop == stops[-1]:
            if warm or n == 0:  # n == 0: the cold channel collapses
                begin = ends[index - 1] if index else 0
                raise ValidationError(
                    f"segment {index} [{begin / den}, {end / den}) s collapses "
                    f"to zero steps of {DT} s")
        elif led_on and led_on[-1] == warm:  # the cooling between vanished
            stops[-1] = stop
        else:
            led_on.append(warm)
            stops.append(stop)
    return np.array(led_on), np.diff(stops)


def run_control(timeline: ActuatorTimeline, plant: SkinPlant) -> Trace:
    """Play a timeline on the plant at DT and log at LOG_RATE.

    The plant runs all of the timeline's pieces in one call that returns
    only the logged samples.  The returned trace covers t = 0 through the
    end of the timeline's steps inclusive: the grid k / LOG_RATE, plus
    the end itself when it is off that grid.
    """
    log_every = int(round(1.0 / (LOG_RATE * DT)))  # steps per logged sample
    start = plant.t_skin
    temps = plant.run_span(timeline.valve_duty, timeline.led_duty, True,
                           timeline.led_on, timeline.n_steps, log_every=log_every)
    n = int(timeline.n_steps.sum())
    time = np.arange(n // log_every + 1) / LOG_RATE
    if n % log_every:
        time = np.append(time, n * DT)
    return Trace(time, np.concatenate(([start], temps)))
