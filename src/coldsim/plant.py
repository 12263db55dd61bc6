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

run_span's logged path filters its blocks with first_order, a
first-order recurrence in numpy ufuncs that the perceiver in experiment
shares, so simulating imports no scipy (scipy.signal takes about 1 s and
70 MB to import).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import ValidationError, check_numbers

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
        check_numbers(self, self.__dataclass_fields__,
                      nonnegative=("relax_coeff", "noise_sigma"))
        if self.relax_coeff > 1.0 / DT:
            # the Euler step's decay 1 - relax_coeff * DT would be negative:
            # the skin would oscillate about t_neutral or diverge
            raise ValidationError(
                f"relax_coeff must be at most 1/DT = {1.0 / DT:g} /s, "
                f"got {self.relax_coeff!r}")
        if not self.valve_gain < 0:
            raise ValidationError("valve_gain must be negative")
        if not self.led_gain > 0:
            raise ValidationError("led_gain must be positive")


@dataclass(frozen=True)
class SensorReading:
    """A temperature reading quantized to the sensor resolution."""

    value: float
    resolution: float


def _drive_rate(params: PlantParams, duty_valve, duty_led, valve_on, led_on):
    """Actuator rate, one per piece for an array of led_on flags.

    An off channel contributes an exact zero, so a piece's rate is the
    same whether its warm flag is given alone or in an array.
    """
    return (valve_on * (params.valve_gain * duty_valve + params.valve_bias)
            + led_on * (params.led_gain * duty_led + params.led_bias)
            + (valve_on & led_on) * params.interaction_bias)


def _step_counts(n_steps) -> tuple:
    """The per-piece step counts of run_span's n_steps and their total.

    Each count must be a non-negative integer.  A plain int is one piece
    and makes no array.
    """
    if type(n_steps) is int and n_steps >= 0:
        return (n_steps,), n_steps
    counts = np.atleast_1d(n_steps)
    if counts.dtype.kind not in "iu" or (counts < 0).any():
        raise ValidationError(
            f"step counts must be non-negative integers, got {n_steps!r}")
    return counts, int(counts.sum())


def _geometric(ratio: float, n: int) -> tuple[float, float]:
    """ratio**n and the sum of ratio**k over 0 <= k < n, by binary powering.

    Only float multiplications and additions, so the results are the
    same on every IEEE machine; the sum has no 1 - ratio cancellation as
    ratio nears 1, and at ratio == 1 it is n exactly.
    """
    power, total = 1.0, 0.0
    for bit in bin(n)[2:]:
        total += power * total  # S(2m) = (1 + r**m) S(m)
        power *= power
        if bit == "1":
            total = 1.0 + ratio * total  # S(m + 1) = 1 + r S(m)
            power *= ratio
    return power, total


def _block_sums(drive: np.ndarray, length: int, decay: float) -> np.ndarray:
    """sum(decay**(length - 1 - j) * d_j) over each consecutive block of
    length per-step drives d_j: what the step recurrence adds over a
    block, by Horner's rule, s = s * decay + d_j, across the blocks at once.
    """
    blocks = drive.reshape(-1, length)
    sums = blocks[:, 0].copy()
    for j in range(1, length):
        sums *= decay
        sums += blocks[:, j]
    return sums


# The smallest last power of the pole for first_order's single pass;
# below it, x / q could overflow.
_MIN_POWER = 2.0**-600


def first_order(pole: float, x, y0: float = 0.0) -> np.ndarray:
    """y[k] = pole * y[k-1] + x[k] with y[-1] = y0, for 0 <= pole <= 1.

    While the last power q[-1] = pole**n is at least 2**-600, in one pass:
    y[k] = q[k] * (y0 + sum(x[j] / q[j], j <= k)) with q[k] = pole**(k+1),
    by one multiply.accumulate, divide, add.accumulate and multiply, all
    sequential IEEE operations with no libm call and no BLAS, so the bits
    are the same on every CPU.  Below it, the recurrence is stepped on
    Python floats.  At pole 1 the result is the running sum, bit for bit,
    so a split into consecutive calls gives the same bits there.
    """
    x = np.asarray(x, dtype=float)
    q = np.multiply.accumulate(np.full(len(x), pole))
    if len(x) and q[-1] >= _MIN_POWER:
        y = x / q
        y[0] += y0
        np.add.accumulate(y, out=y)
        y *= q
        return y
    steps = accumulate(x.tolist(), lambda prev, value: pole * prev + value, initial=y0)
    return np.array(list(steps)[1:], dtype=float)


class SkinPlant:
    """A single-owner plant instance stepped sequentially: t_skin is the
    skin temperature and rng the process-noise stream."""

    def __init__(self, params: Optional[PlantParams] = None, seed=None):
        self.params = params if params is not None else PlantParams()
        self.t_skin = self.params.t_init
        self.rng = np.random.default_rng(seed)

    def reset(self) -> None:
        """Instantaneous re-initialization to t_init (the hot-plate step);
        the noise stream is deliberately not rewound."""
        self.t_skin = self.params.t_init

    def run_span(self, duty_valve=0.0, duty_led=0.0, valve_on=False,
                 led_on=False, n_steps=1, log_every=1) -> np.ndarray:
        """Run consecutive pieces of DT steps and return the temperature
        after every log_every steps, plus the end when the steps are not
        a whole number of log intervals.

        As in a presentation, where only the warm channel switches, the
        duties and valve_on are one value per call; led_on is one flag or
        one per piece, and n_steps one step count or one per piece.  The
        actuator rate is evaluated once per piece.  The dynamics are the
        module equation's Euler recurrence T <- decay * T + d_j, with
        decay = 1 - relax_coeff * DT and d_j = DT * (rate_j + relax_coeff
        * t_neutral).  Over a block of L steps between samples it is
        applied as one update, T <- decay**L * T + sum(decay**(L-1-j) * d_j)
        by Horner's rule, and first_order runs over the blocks.
        Process noise is one normal draw per sample, with the exact law of
        the per-step noise summed over its block.

        A call that returns one sample (log_every at least the total
        step count, as every calibration reading and verification asks)
        computes only the end, on Python floats: each piece of c steps
        is one update S <- S * decay**c + d * sum(decay**i, i < c), and
        the end is decay**N * T + S plus one noise draw for all N steps.
        """
        # NaN fails the comparisons; a multi-element array raises ValueError.
        if not (0.0 <= duty_valve <= 1.0 and 0.0 <= duty_led <= 1.0):
            raise ValidationError("duty fractions must lie in [0, 1]")
        counts, total = _step_counts(n_steps)
        if not (isinstance(log_every, (int, np.integer)) and log_every >= 1):
            raise ValidationError(
                f"log_every must be a positive integer, got {log_every!r}")
        if total == 0:
            return np.empty(0)
        params = self.params
        rate = _drive_rate(params, duty_valve, duty_led, valve_on, led_on)
        per_piece = isinstance(rate, np.ndarray)  # led_on is an array
        if per_piece and rate.shape != np.shape(counts):
            raise ValidationError(f"led_on gives {rate.size} pieces but "
                                  f"n_steps gives {np.size(counts)}")
        decay = 1.0 - params.relax_coeff * DT
        drive = DT * (rate + params.relax_coeff * params.t_neutral)
        if total <= log_every:
            return np.array([self._run_to_end(drive, counts, total, decay)])
        blocks, rem = divmod(total, log_every)
        power, tail_power = _geometric(decay, log_every)[0], _geometric(decay, rem)[0]
        steps = np.repeat(drive, counts if per_piece else total)
        cut = blocks * log_every
        sums = _block_sums(steps[:cut], log_every, decay)
        tail = _block_sums(steps[cut:], rem, decay)[0] if rem else 0.0
        if params.noise_sigma > 0.0:
            # Over L steps the rate noise adds DT * sum(decay**(L-1-j) * n_j)
            # with independent n_j ~ N(0, sigma**2): a normal of variance
            # (sigma * DT)**2 * sum(decay**(2 i), i < L), independent between
            # blocks.  One draw per sample gives each sample that law.
            draws = self.rng.normal(0.0, params.noise_sigma * DT,
                                    blocks + (rem > 0))
            squared = decay * decay
            sums = sums + draws[:blocks] * math.sqrt(_geometric(squared, log_every)[1])
            if rem:
                tail += draws[-1] * math.sqrt(_geometric(squared, rem)[1])
        temps = first_order(power, sums, self.t_skin)
        self.t_skin = float(temps[-1])
        if rem:
            self.t_skin = float(tail_power * self.t_skin + tail)
            temps = np.append(temps, self.t_skin)
        return temps

    def _run_to_end(self, drive, counts, total: int, decay: float) -> float:
        """Advance the skin by run_span's total steps and return only the
        end temperature.  A scalar drive is one piece of all the steps,
        with the arithmetic, so the bits, of a one-piece drive array."""
        params = self.params
        if not isinstance(drive, np.ndarray):
            pieces = ((drive, total),)
        else:
            pieces = zip(drive.tolist(), np.asarray(counts).tolist())
        geometric = {}  # piece length -> (decay**c, sum(decay**i, i < c))
        added = 0.0
        for piece_drive, count in pieces:
            if count not in geometric:
                geometric[count] = _geometric(decay, count)
            power, gain = geometric[count]
            added = added * power + piece_drive * gain
        if params.noise_sigma > 0.0:  # the law of the noise summed over all steps
            draw = self.rng.normal(0.0, params.noise_sigma * DT)
            added += draw * math.sqrt(_geometric(decay * decay, total)[1])
        power = geometric[total][0] if total in geometric else _geometric(decay, total)[0]
        self.t_skin = float(power * self.t_skin + added)
        return self.t_skin

    def read_sensor(self, resolution: float = DEFAULT_SENSOR_RESOLUTION) -> SensorReading:
        """Quantize the skin temperature to the sensor grid.

        The reading is the nearest integer multiple of the resolution,
        with exact halves rounded away from zero.  Quantization happens in
        exact integer arithmetic on the decimal strings of both values, so
        grid and tie behavior do not depend on binary float
        representation; the final int / int division is correctly
        rounded.  A resolution of 0 returns the raw value (ideal sensor).
        """
        if not 0 <= resolution < math.inf:
            raise ValidationError(
                f"resolution must be finite and non-negative, got {resolution!r}")
        if resolution == 0:
            return SensorReading(self.t_skin, 0.0)
        t_num, t_q = _decimal(self.t_skin)
        r_num, r_q = _decimal(resolution)
        num, den = t_num * 10**r_q, r_num * 10**t_q  # t_skin / resolution
        ticks = (2 * abs(num) + den) // (2 * den)  # floor(|ratio| + 1/2)
        if num < 0:
            ticks = -ticks
        return SensorReading(ticks * r_num / 10**r_q, resolution)


def _decimal(x) -> tuple[int, int]:
    """The decimal string of x as the exact fraction num / 10**q, q >= 0."""
    mantissa, _, exponent = str(x).partition("e")
    whole, _, digits = mantissa.partition(".")
    num, q = int(whole + digits), len(digits) - int(exponent or 0)
    return (num, q) if q >= 0 else (num * 10**-q, 0)


@dataclass
class Trace:
    """Skin temperature sampled on the logging grid."""

    time: np.ndarray
    temp: np.ndarray

    @property
    def net_delta_t(self) -> float:
        return float(self.temp[-1] - self.temp[0])

    def to_csv(self, path) -> None:
        write_trace_csvs([self], [path])


def write_trace_csvs(traces, paths) -> None:
    """Write each trace to its path as a `time_s,temp_c` CSV.

    Each value is its shortest round-trip `repr` and each line ends in
    `\\r\\n`, the bytes `csv.writer` gives.  The time column's strings are
    reused while consecutive traces hold bit-identical time arrays
    (compared as bytes, since `repr` tells -0.0 from 0.0).
    """
    time_key = time_strs = None
    for trace, path in zip(traces, paths, strict=True):
        key = trace.time.tobytes()
        if key != time_key:
            time_key, time_strs = key, list(map(repr, trace.time.tolist()))
        rows = map(",".join, zip(time_strs, map(repr, trace.temp.tolist())))
        with open(path, "wb") as fh:
            fh.write("\r\n".join(["time_s,temp_c", *rows, ""]).encode())


def load_plant_config(path) -> PlantParams:
    """Read PlantParams from a config document, ignoring descriptive keys.

    A file that is not a JSON object of valid parameters, or that holds
    a key that is neither a parameter nor a descriptive constant, raises
    ValidationError naming it.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValidationError(f"a JSON object is needed, not {type(doc).__name__}")
        fields = PlantParams.__dataclass_fields__
        unknown = sorted(k for k in doc if k not in fields
                         and k not in DESCRIPTIVE_CONSTANTS)
        if unknown:
            raise ValidationError(f"unknown keys {unknown}")
        return PlantParams(**{k: v for k, v in doc.items() if k in fields})
    except (OSError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot read {path} as a plant config: {exc!r}") from exc
