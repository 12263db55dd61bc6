"""Virtual hardware: a lumped-parameter skin node and its sensor.

The plant is a single thermal node driven by two affine actuator
channels (a convective cold-air valve and a radiant LED array), a weak
relaxation pull toward the ambient-equilibrium temperature, and optional
process noise on the rate:

    dT/dt = valve_on * (valve_gain * duty_v + valve_bias)
          + led_on   * (led_gain   * duty_l + led_bias)
          + relax_coeff * (t_neutral - T) + noise

Integration is explicit first-order with a fixed step; determinism
matters more here than integration order, and the dynamics are a
stiffness-free scalar ODE.  The default channel coefficients are
simulator inventions solved from the usable rate anchors of the real
device (valve duty 49.0-60.1 % spanning roughly -0.05 to -0.30 degC/s,
LED duty 11.8-90.2 % spanning roughly +0.02 to +0.50 degC/s); they are
not physiological constants.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from .errors import ValidationError, check_numbers

# Maximum explicit-Euler step, seconds.
MAX_STEP = 0.01

# Integration step of every simulation and calibration, seconds.
DT = 0.001

DEFAULT_SENSOR_RESOLUTION = 0.025  # degC per quantization step

# Device constants recorded for reference; none of them enter the lumped
# dynamics.
DESCRIPTIVE_CONSTANTS = {
    "air_pressure_mpa": 0.6,
    "cold_air_ratio": 0.75,
    "cold_air_temp_c": 0.0,
    "ambient_c": 24.0,
    "lens_fwhm_deg": 28.0,
    "nozzle_diameter_mm": 6.0,
    "nozzle_distance_mm": 42.0,
}


@dataclass(frozen=True)
class PlantParams:
    """Hidden ground-truth plant response plus environment constants.

    interaction_bias is an extra rate present only while both channels
    run together (airflow altering radiant absorption); it is invisible
    to single-channel calibration and exists to exercise the
    drift-correction loop.
    """

    valve_gain: float = -2.252   # degC/s per duty fraction, cold channel
    valve_bias: float = 1.0535   # degC/s
    led_gain: float = 0.6122     # degC/s per duty fraction, warm channel
    led_bias: float = -0.0522    # degC/s
    relax_coeff: float = 0.002   # 1/s pull toward t_neutral
    t_neutral: float = 24.0      # degC
    t_init: float = 33.0         # degC
    noise_sigma: float = 0.0     # degC/s process noise on the rate
    interaction_bias: float = 0.0  # degC/s extra while both channels on

    def __post_init__(self):
        check_numbers(self, self.__dataclass_fields__)
        if not self.valve_gain < 0:
            raise ValidationError("valve_gain must be negative")
        if not self.led_gain > 0:
            raise ValidationError("led_gain must be positive")
        if self.relax_coeff < 0:
            raise ValidationError("relax_coeff must be non-negative")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be non-negative")


@dataclass
class PlantState:
    t_skin: float
    time: float
    rng: np.random.Generator


@dataclass(frozen=True)
class SensorReading:
    """A temperature reading quantized to the sensor resolution."""

    value: float
    resolution: float


def _drive_rate(params: PlantParams, duty_valve, duty_led, valve_on, led_on):
    """Actuator rate for scalar inputs, or per step for array inputs.

    The on flags are bools (or bool arrays).  An off channel contributes
    an exact zero, so a step's rate is the same whether its inputs are
    given as scalars or as elements of arrays.
    """
    return (valve_on * (params.valve_gain * duty_valve + params.valve_bias)
            + led_on * (params.led_gain * duty_led + params.led_bias)
            + (valve_on & led_on) * params.interaction_bias)


def _check_step_inputs(duty_valve, duty_led, dt):
    if not 0.0 < dt <= MAX_STEP:
        raise ValidationError(f"dt must lie in (0, {MAX_STEP}] s, got {dt}")
    for duty in (duty_valve, duty_led):
        if not np.all((0.0 <= duty) & (duty <= 1.0)):
            raise ValidationError("duty fractions must lie in [0, 1]")


def step(state: PlantState, params: PlantParams, duty_valve=0.0, duty_led=0.0,
         valve_on=False, led_on=False, dt=DT) -> PlantState:
    """Advance the skin node by one explicit first-order step."""
    _check_step_inputs(duty_valve, duty_led, dt)
    rate = _drive_rate(params, duty_valve, duty_led, valve_on, led_on)
    rate += params.relax_coeff * (params.t_neutral - state.t_skin)
    if params.noise_sigma > 0.0:
        rate += state.rng.normal(0.0, params.noise_sigma)
    return PlantState(state.t_skin + dt * rate, state.time + dt, state.rng)


class SkinPlant:
    """A single-owner plant instance stepped sequentially."""

    def __init__(self, params: Optional[PlantParams] = None, seed=None):
        self.params = params if params is not None else PlantParams()
        self.state = PlantState(self.params.t_init, 0.0, np.random.default_rng(seed))

    @property
    def t_skin(self) -> float:
        return self.state.t_skin

    @property
    def time(self) -> float:
        return self.state.time

    def reset(self, t_skin: Optional[float] = None) -> None:
        """Instantaneous re-initialization (the hot-plate step); the noise
        stream is deliberately not rewound."""
        self.state = PlantState(
            self.params.t_init if t_skin is None else t_skin, 0.0, self.state.rng)

    def step(self, duty_valve=0.0, duty_led=0.0, valve_on=False, led_on=False,
             dt=DT) -> float:
        self.state = step(self.state, self.params, duty_valve, duty_led,
                          valve_on, led_on, dt)
        return self.state.t_skin

    def run_span(self, duty_valve=0.0, duty_led=0.0, valve_on=False,
                 led_on=False, dt=DT, n_steps=1) -> np.ndarray:
        """Run n_steps and return the temperature after each step.

        Each input is either a constant or an array holding its value
        for every step.  Implements the same recurrence as step() as one
        linear filter, which keeps long simulations fast without
        changing the dynamics.
        """
        _check_step_inputs(duty_valve, duty_led, dt)
        if n_steps <= 0:
            return np.empty(0)
        params = self.params
        rate = _drive_rate(params, duty_valve, duty_led, valve_on, led_on)
        decay = 1.0 - params.relax_coeff * dt
        drive = np.full(n_steps, dt * (rate + params.relax_coeff * params.t_neutral))
        if params.noise_sigma > 0.0:
            drive += dt * self.state.rng.normal(0.0, params.noise_sigma, n_steps)
        temps, _ = lfilter([1.0], [1.0, -decay], drive,
                           zi=[decay * self.state.t_skin])
        self.state = PlantState(float(temps[-1]), self.state.time + n_steps * dt,
                                self.state.rng)
        return temps

    def read_sensor(self, resolution: float = DEFAULT_SENSOR_RESOLUTION) -> SensorReading:
        return read_sensor(self.state, resolution)


def read_sensor(state: PlantState, resolution: float = DEFAULT_SENSOR_RESOLUTION) -> SensorReading:
    """Quantize the skin temperature to the sensor grid.

    The reading is the nearest integer multiple of the resolution, with
    exact halves rounded away from zero.  Quantization happens in exact
    decimal arithmetic so grid and tie behavior do not depend on binary
    float representation.  A resolution of 0 returns the raw value
    (ideal sensor).
    """
    if resolution < 0:
        raise ValidationError("resolution must be non-negative")
    if resolution == 0:
        return SensorReading(state.t_skin, 0.0)
    ratio = Fraction(str(state.t_skin)) / Fraction(str(resolution))
    magnitude = abs(ratio)
    ticks = int(magnitude + Fraction(1, 2))  # int() truncates: half rounds up
    if ratio < 0:
        ticks = -ticks
    value = float(ticks * Fraction(str(resolution)))
    return SensorReading(value, resolution)


@dataclass
class Trace:
    """Logged simulation trace sampled on the logging grid."""

    time: np.ndarray
    temp: np.ndarray
    duty_valve: np.ndarray
    duty_led: np.ndarray
    valve_on: np.ndarray
    led_on: np.ndarray

    @property
    def net_delta_t(self) -> float:
        return float(self.temp[-1] - self.temp[0])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s", "temp_c", "duty_valve", "duty_led",
                             "valve_on", "led_on"])
            for i in range(len(self.time)):
                writer.writerow([
                    float(self.time[i]), float(self.temp[i]),
                    float(self.duty_valve[i]), float(self.duty_led[i]),
                    str(bool(self.valve_on[i])).lower(),
                    str(bool(self.led_on[i])).lower(),
                ])


def save_plant_config(params: PlantParams, path) -> None:
    """Write the plant parameters plus the descriptive device constants."""
    doc = asdict(params)
    doc.update(DESCRIPTIVE_CONSTANTS)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_plant_config(path) -> PlantParams:
    """Read PlantParams from a config document, ignoring descriptive keys.

    A file that is not a JSON object of valid parameters raises
    ValidationError naming it.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValidationError(f"a JSON object is needed, not {type(doc).__name__}")
        fields = PlantParams.__dataclass_fields__
        return PlantParams(**{k: v for k, v in doc.items() if k in fields})
    except (OSError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot read {path} as a plant config: {exc!r}") from exc
