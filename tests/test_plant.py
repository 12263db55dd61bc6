"""Skin-node plant: stepping, sensor quantization, configs."""

import csv
import itertools
import json
import math
import os
import struct
import tempfile
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.signal import lfilter
from scipy.stats import chi2

from coldsim import PlantParams, SkinPlant, ValidationError, load_plant_config
from coldsim.plant import (DESCRIPTIVE_CONSTANTS, DT, Trace, first_order,
                           write_trace_csvs)


def plant_at(temp):
    plant = SkinPlant(PlantParams())
    plant.t_skin = temp
    return plant


def step(plant, duty_valve=0.0, duty_led=0.0, valve_on=False, led_on=False):
    """One explicit Euler step of DT of the module equation in plant.py,
    written out term by term and sharing no code with run_span: the
    per-step reference that run_span's block updates reorder."""
    p = plant.params
    rate = (valve_on * (p.valve_gain * duty_valve + p.valve_bias)
            + led_on * (p.led_gain * duty_led + p.led_bias)
            + (valve_on and led_on) * p.interaction_bias)
    rate += p.relax_coeff * (p.t_neutral - plant.t_skin)
    if p.noise_sigma > 0.0:
        rate += plant.rng.normal(0.0, p.noise_sigma)
    plant.t_skin += DT * rate
    return plant.t_skin


def test_equilibrium_fixed_point():
    plant = SkinPlant(PlantParams(t_init=24.0))
    assert plant.run_span(n_steps=1).tolist() == [24.0]


def test_valve_rate_and_six_second_drop():
    # closed form for a constant-rate channel: dT = rate * t
    rate = -2.252 * 0.49 + 1.0535
    assert rate == pytest.approx(-0.04998, abs=1e-9)
    params = PlantParams(relax_coeff=0.0)
    plant = SkinPlant(params)
    plant.run_span(duty_valve=0.49, valve_on=True, n_steps=6000)
    assert plant.t_skin - 33.0 == pytest.approx(rate * 6.0, abs=1e-9)
    assert plant.t_skin - 33.0 == pytest.approx(-0.2999, abs=2e-4)


def test_led_rate_affine_map():
    plant = SkinPlant(PlantParams(relax_coeff=0.0))
    [t_skin] = plant.run_span(duty_led=0.902, led_on=True, n_steps=1)
    assert (t_skin - 33.0) / DT == pytest.approx(0.5000044, abs=1e-9)


@pytest.mark.parametrize("log_every", [1, 10**6])
def test_run_span_rejects_out_of_range_duties(log_every):
    # a duty outside [0, 1] or NaN raises before any step, on the logged
    # path and the one-sample path
    plant = SkinPlant(PlantParams())
    for duty in (1.5, -0.1, math.nan):
        for duties in (dict(duty_valve=duty), dict(duty_valve=0.5, duty_led=duty)):
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                plant.run_span(**duties, valve_on=True, led_on=True, n_steps=5,
                               log_every=log_every)
    assert plant.t_skin == 33.0


@pytest.mark.parametrize("temp,expected", [
    (24.000, 24.000),
    (32.910, 32.900),   # 0.010 below the next multiple, 0.015 above
    (30.0125, 30.025),  # exact tie rounds away from zero
])
def test_sensor_examples(temp, expected):
    assert plant_at(temp).read_sensor(0.025).value == expected


def test_sensor_quantization_property():
    rng = np.random.default_rng(5)
    for _ in range(500):
        temp = float(rng.uniform(-50, 50))
        reading = plant_at(temp).read_sensor(0.025)
        assert abs(reading.value - temp) <= 0.0125 + 1e-12
        ticks = reading.value / 0.025
        assert abs(ticks - round(ticks)) < 1e-9


def test_sensor_negative_tie_rounds_away():
    assert plant_at(-30.0125).read_sensor(0.025).value == -30.025


@pytest.mark.parametrize("resolution", [-0.025, float("nan"), float("inf"),
                                        float("-inf")])
def test_sensor_rejects_bad_resolution(resolution):
    with pytest.raises(ValidationError, match=f"got {resolution!r}"):
        plant_at(30.0).read_sensor(resolution)


def fraction_read(temp, resolution):
    """The exact-Fraction quantizer that read_sensor's integer arithmetic
    replaced, kept as its oracle."""
    ratio = Fraction(str(temp)) / Fraction(str(resolution))
    ticks = int(abs(ratio) + Fraction(1, 2))  # int() truncates: half rounds up
    if ratio < 0:
        ticks = -ticks
    return float(ticks * Fraction(str(resolution)))


@given(data=st.data(),
       resolution=st.sampled_from([0.025, 0.01, 0.1, 0.0625, 0.3, 1.0, 2.5e-7]))
def test_property_sensor_matches_fraction_oracle(data, resolution):
    half_tick = st.integers(-10**7, 10**7).map(  # e.g. +-30.0125 at 0.025
        lambda k: float((k + Fraction(1, 2)) * Fraction(str(resolution))))
    temp = data.draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.floats(-100.0, 100.0),
        half_tick, st.sampled_from([30.0125, -30.0125, -0.0, 5e-324, -1e-300])))
    try:
        expected = fraction_read(temp, resolution)
    except OverflowError:  # the nearest multiple is beyond the float range
        with pytest.raises(OverflowError):
            plant_at(temp).read_sensor(resolution)
        return
    value = plant_at(temp).read_sensor(resolution).value
    assert struct.pack("<d", value) == struct.pack("<d", expected)


def test_step_noise_draws_from_plant_stream():
    # the step oracle adds one normal draw of the plant's stream to the
    # rate, in this order of float operations, and the next step takes the
    # next draw.
    params = PlantParams(noise_sigma=0.05, interaction_bias=0.013)
    plant = SkinPlant(params, seed=7)
    twin = np.random.default_rng(7)
    drive = ((params.valve_gain * 0.55 + params.valve_bias)
             + (params.led_gain * 0.3 + params.led_bias) + params.interaction_bias)
    temp = params.t_init
    for _ in range(2):
        temp = temp + DT * (drive + params.relax_coeff * (params.t_neutral - temp)
                            + twin.normal(0.0, params.noise_sigma))
        assert step(plant, 0.55, 0.3, True, True) == temp == plant.t_skin


def test_deterministic_with_equal_seeds():
    params = PlantParams(noise_sigma=0.05)
    a = SkinPlant(params, seed=42)
    b = SkinPlant(params, seed=42)
    ta = a.run_span(duty_valve=0.55, valve_on=True, n_steps=2000)
    tb = b.run_span(duty_valve=0.55, valve_on=True, n_steps=2000)
    assert np.array_equal(ta, tb)


def test_relaxation_monotone_convergence():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t0 = float(rng.uniform(10, 45))
        params = PlantParams(relax_coeff=float(rng.uniform(0.001, 5.0)),
                             t_init=t0)
        temps = SkinPlant(params).run_span(n_steps=2000, log_every=1)
        gaps = np.abs(np.concatenate(([t0], temps)) - 24.0)
        assert (np.diff(gaps) <= 1e-15).all()


def test_step_refinement_endpoint():
    """The 15 s endpoint at DT is far less than 1e-4 degC from the exact
    solution of the ODE, the limit of halving the step forever."""
    params = PlantParams()
    k = params.relax_coeff
    for duty_valve, duty_led in ((0.49, 0.0), (0.601, 0.902), (0.55, 0.5)):
        plant = SkinPlant(params)
        plant.run_span(duty_valve=duty_valve, duty_led=duty_led, valve_on=True,
                       led_on=duty_led > 0, n_steps=15000, log_every=15000)
        rate = (params.valve_gain * duty_valve + params.valve_bias
                + (duty_led > 0) * (params.led_gain * duty_led + params.led_bias))
        t_eq = params.t_neutral + rate / k
        exact = t_eq + (params.t_init - t_eq) * math.exp(-k * 15.0)
        assert abs(plant.t_skin - exact) < 1e-4


def test_run_span_matches_scalar_loop():
    # samples after every log_every steps, plus the end off that grid
    params = PlantParams()  # relaxation on, noise off
    slow = SkinPlant(params)
    steps = [step(slow, duty_valve=0.55, duty_led=0.3, valve_on=True,
                  led_on=True) for _ in range(400)]
    for log_every in (1, 7, 10, 400, 1000):
        fast = SkinPlant(params)
        temps = fast.run_span(duty_valve=0.55, duty_led=0.3, valve_on=True,
                              led_on=True, n_steps=400, log_every=log_every)
        expected = steps[log_every - 1::log_every]
        if 400 % log_every:
            expected.append(steps[-1])
        assert len(temps) == len(expected)
        assert np.max(np.abs(temps - expected)) <= 1e-9
        assert fast.t_skin == temps[-1]


def test_run_span_pieces_match_consecutive_spans():
    # One call over three pieces steps like three one-piece calls.  Without
    # relaxation first_order is a running sum, so the bits match; with it, a
    # split restarts first_order's powers of the pole, so they match to
    # rounding.
    inputs = dict(duty_valve=0.55, duty_led=0.3, valve_on=True)
    for relax_coeff in (0.0, 0.002, 50.0):
        params = PlantParams(relax_coeff=relax_coeff, interaction_bias=0.013)  # noise off
        pieces = SkinPlant(params)
        temps = pieces.run_span(**inputs, led_on=np.array([False, True, True]),
                                n_steps=np.array([7, 0, 12]))
        spans = SkinPlant(params)
        expected = np.concatenate([
            spans.run_span(**inputs, n_steps=7),
            spans.run_span(**inputs, led_on=True, n_steps=0),
            spans.run_span(**inputs, led_on=True, n_steps=12)])
        if relax_coeff == 0.0:
            assert temps.tobytes() == expected.tobytes()
            assert pieces.t_skin == spans.t_skin
        else:
            assert np.max(np.abs(temps - expected)) <= 1e-12, relax_coeff
            assert abs(pieces.t_skin - spans.t_skin) <= 1e-12, relax_coeff
    end = pieces.t_skin
    with pytest.raises(ValidationError, match="non-negative"):
        pieces.run_span(led_on=np.array([True, True]), n_steps=np.array([3, -1]))
    with pytest.raises(ValidationError, match="3 pieces but n_steps gives 1"):
        pieces.run_span(**inputs, led_on=np.array([True, False, True]), n_steps=3)
    assert pieces.t_skin == end  # untouched


def sequential_first_order(pole, x, y0):
    """first_order's recurrence one sample at a time on Python floats: its
    oracle, which does scipy.signal.lfilter's float operations."""
    out, y = [], y0
    for value in x:
        y = pole * y + value
        out.append(y)
    return np.array(out)


# first_order takes one pass while the last power pole**n is at least
# 2**-600 and steps the recurrence below it: poles at and around 2**-600
# step from n = 2 on (from n = 1 below it), 0.3 from n = 346 on and 0.5
# from n = 601 on.  With them, the plant's and the perceiver's poles at
# their defaults, and the ends.
SMALLEST_ONE_PASS = 2.0**-600
POLES = [0.0, 1e-300, math.nextafter(SMALLEST_ONE_PASS, 0.0), SMALLEST_ONE_PASS,
         math.nextafter(SMALLEST_ONE_PASS, 1.0), 0.3, 0.5, 0.95, 0.99005, 0.99998, 1.0]


@pytest.mark.parametrize("pole", POLES)
@settings(max_examples=30)
@given(st.integers(0, 2000), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]),
       st.sampled_from([0.0, 1.0, -5.0]), st.floats(-100.0, 100.0))
def test_property_first_order_matches_sequential(pole, n, seed, scale, offset, y0):
    # Drives of one sign (an offset) and of both, at three scales.
    x = np.random.default_rng(seed).normal(offset, 1.0, n) * scale
    want = sequential_first_order(pole, x.tolist(), y0)
    assert lfilter([1.0], [1.0, -pole], x, zi=[pole * y0])[0].tobytes() == want.tobytes()
    got = first_order(pole, x, y0)
    assert got.dtype == float and got.shape == (n,)
    assert np.isfinite(got).all()
    if math.prod([pole] * n) < SMALLEST_ONE_PASS:  # the stepped recurrence
        assert got.tobytes() == want.tobytes()
    if pole == 1.0:  # the running sum, bit for bit
        running = list(itertools.accumulate(x.tolist(), initial=y0))[1:]
        assert got.tobytes() == np.array(running).tobytes()
    # Each output sums pole**(k-j) * x[j] through the powers q, whose
    # relative error grows by one rounding per sample, so the error is at
    # most (2 n + 4) roundings of the same sum of magnitudes.
    envelope = sequential_first_order(pole, np.abs(x).tolist(), abs(y0))
    assert (np.abs(got - want) <= (2 * n + 4) * 2.0**-53 * envelope).all()


@pytest.mark.parametrize("log_every", [1, 10**6])
def test_run_span_rejects_duty_arrays(log_every):
    # duties are one value per call: an array of several raises ValueError
    # before any step, on the logged path and the one-sample path
    plant = SkinPlant(PlantParams())
    for duties in (dict(duty_valve=np.array([0.5, 0.55])),
                   dict(duty_valve=0.5, duty_led=np.array([0.3, 0.3]))):
        with pytest.raises(ValueError):
            plant.run_span(**duties, valve_on=True, led_on=np.array([True, False]),
                           n_steps=np.array([5, 5]), log_every=log_every)
    assert plant.t_skin == 33.0


@pytest.mark.parametrize("log_every", [1, 10**6])
@pytest.mark.parametrize("n_steps", [2.5, np.array([1.5, 2.5]), math.nan])
def test_run_span_rejects_non_integer_step_counts(n_steps, log_every):
    # neither the logged path nor the one-sample path truncates or trips
    # over a step count that is not an integer
    plant = SkinPlant(PlantParams())
    led_on = np.full(np.shape(n_steps), True) if np.ndim(n_steps) else True
    with pytest.raises(ValidationError, match="non-negative integers"):
        plant.run_span(duty_valve=0.5, duty_led=0.3, valve_on=True, led_on=led_on,
                       n_steps=n_steps, log_every=log_every)
    assert plant.t_skin == 33.0


def test_interaction_bias_only_when_both_on():
    params = PlantParams(relax_coeff=0.0, interaction_bias=0.013)
    [single] = SkinPlant(params).run_span(duty_led=0.5, led_on=True, n_steps=1)
    [both] = SkinPlant(params).run_span(duty_valve=0.55, duty_led=0.5,
                                        valve_on=True, led_on=True, n_steps=1)
    led_only_rate = (single - 33.0) / DT
    both_rate = (both - 33.0) / DT
    valve_rate = -2.252 * 0.55 + 1.0535
    assert both_rate - (led_only_rate + valve_rate) == pytest.approx(0.013, abs=1e-9)


def test_params_validation():
    with pytest.raises(ValidationError):
        PlantParams(valve_gain=1.0)
    with pytest.raises(ValidationError):
        PlantParams(led_gain=-1.0)
    with pytest.raises(ValidationError):
        PlantParams(noise_sigma=-0.1)
    # Above 1/DT the Euler decay 1 - relax_coeff * DT is negative; at 1/DT
    # it is 0, and the skin follows the drive each step.
    with pytest.raises(ValidationError, match="relax_coeff"):
        PlantParams(relax_coeff=math.nextafter(1.0 / DT, math.inf))
    assert PlantParams(relax_coeff=1.0 / DT).relax_coeff == 1000.0
    for t_init in ("33", float("nan"), True):
        with pytest.raises(ValidationError):
            PlantParams(t_init=t_init)
    # JSON's true loads as a bool, an int subclass: it is not 1.
    with pytest.raises(ValidationError, match="relax_coeff must be a finite number"):
        PlantParams(relax_coeff=True)


def test_config_round_trip(tmp_path):
    # A config document may carry the descriptive device constants beside
    # the parameters; loading ignores them.
    params = PlantParams(valve_gain=-2.0, noise_sigma=0.01)
    path = tmp_path / "plant.json"
    path.write_text(json.dumps({**asdict(params), **DESCRIPTIVE_CONSTANTS}))
    loaded = load_plant_config(path)
    assert loaded == params
    text = path.read_text()
    for key in ("air_pressure_mpa", "cold_air_ratio", "cold_air_temp_c",
                "ambient_c"):
        assert key in text


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"valve_gian": -3.0, "ambient_c": 24.0}))
    with pytest.raises(ValidationError, match=r"typo\.json.*'valve_gian'"):
        load_plant_config(path)


def test_trace_csv_schema(tmp_path):
    n = 3
    trace = Trace(np.arange(n) * 0.01, np.full(n, 33.0))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time_s,temp_c"
    assert lines[1:] == ["0.0,33.0", "0.01,33.0", "0.02,33.0"]


def oracle_trace_csv(trace, path):
    """The csv.writer export that write_trace_csvs must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "temp_c"])
        writer.writerows(zip(trace.time.tolist(), trace.temp.tolist()))


# Values whose repr is easy to get wrong: signed zeros, non-finite values,
# subnormals and the switch points to exponent notation.
EDGE_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e-05, 0.0001, 1e16, 1e15, 0.01)


def float_arrays(n):
    sample = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(EDGE_FLOATS))
    return st.lists(sample, min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=np.float64))


@st.composite
def trace_runs(draw):
    """Traces whose time array is the previous one, a copy of it, a new
    array, or the previous one with its zeros' signs flipped (equal under
    == but not bit for bit)."""
    n = draw(st.integers(0, 6))
    time = draw(float_arrays(n))
    traces = []
    for _ in range(draw(st.integers(1, 5))):
        how = draw(st.sampled_from(["shared", "copy", "new", "zero_sign"]))
        if how == "copy":
            time = time.copy()
        elif how == "new":
            n = draw(st.integers(0, 6))
            time = draw(float_arrays(n))
        elif how == "zero_sign":
            time = np.where(time == 0.0, -time, time)
        traces.append(Trace(time, draw(float_arrays(n))))
    return traces


@given(trace_runs())
@example([Trace(np.array([0.0, 0.01]), np.array([33.0, -0.0])),
          Trace(np.array([-0.0, 0.01]), np.array([33.0, -0.0]))])
def test_property_trace_csvs_match_csv_writer(traces):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{k}.csv") for k in range(len(traces))]
        write_trace_csvs(traces, paths)
        for trace, path in zip(traces, paths):
            oracle_trace_csv(trace, path + ".oracle")
            with open(path, "rb") as got, open(path + ".oracle", "rb") as want:
                assert got.read() == want.read()


@st.composite
def piece_runs(draw, max_pieces=5):
    """run_span's inputs, as its callers give them: one valve duty, LED
    duty and valve flag, and for each of 1 to max_pieces pieces a warm
    flag and a step count.  Each of led_on and n_steps is passed as one
    value when that says the same (led_on's flags all equal, n_steps of
    one piece), or else as an array.  Returns the inputs and the
    (led_on, count) of each piece."""
    duty = st.floats(0.0, 1.0)
    inputs = dict(duty_valve=draw(duty), duty_led=draw(duty),
                  valve_on=draw(st.booleans()))
    pieces = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 300)),
                           min_size=1, max_size=max_pieces))
    led_on, counts = (np.array(column) for column in zip(*pieces))
    one_flag = led_on.all() or not led_on.any()
    inputs["led_on"] = (bool(led_on[0]) if one_flag and draw(st.booleans())
                        else led_on)
    inputs["n_steps"] = (int(counts[0]) if len(pieces) == 1 and draw(st.booleans())
                         else counts)
    return inputs, pieces


def stepped(params, inputs, pieces):
    """A plant after a loop of step oracle calls over the pieces, and the
    temperature after each step."""
    plant = SkinPlant(params)
    steps = [step(plant, inputs["duty_valve"], inputs["duty_led"],
                  inputs["valve_on"], bool(led_on))
             for led_on, count in pieces for _ in range(count)]
    return plant, steps


@settings(max_examples=60)
@given(piece_runs(), st.integers(1, 400), st.sampled_from([0.0, 0.002, 50.0]))
def test_property_run_span_matches_scalar_steps(case, log_every, relax):
    # logged samples of any interval, over one piece or several, match a
    # loop of step oracle calls to rounding
    inputs, pieces = case
    params = PlantParams(relax_coeff=relax, interaction_bias=0.013)
    fast = SkinPlant(params)
    temps = fast.run_span(**inputs, log_every=log_every)
    _, steps = stepped(params, inputs, pieces)
    expected = steps[log_every - 1::log_every]
    if len(steps) % log_every:
        expected.append(steps[-1])
    assert len(temps) == len(expected)
    if expected:
        assert np.max(np.abs(temps - expected)) <= 1e-9
    assert fast.t_skin == (temps[-1] if expected else params.t_init)


@settings(max_examples=60)
@given(piece_runs(max_pieces=6), st.integers(0, 50), st.sampled_from([0.0, 0.002, 50.0]))
def test_property_run_span_end_matches_logged_and_steps(case, extra, relax):
    # a call that returns one sample computes only the end, one update per
    # piece; it matches the last sample of the same pieces logged every 10
    # steps and a loop of step oracle calls
    inputs, pieces = case
    params = PlantParams(relax_coeff=relax, interaction_bias=0.013)
    total = sum(count for _, count in pieces)
    assume(total > 0)
    end, logged = SkinPlant(params), SkinPlant(params)
    temps = end.run_span(**inputs, log_every=total + extra)
    samples = logged.run_span(**inputs, log_every=10)
    slow, _ = stepped(params, inputs, pieces)
    assert len(temps) == 1 and end.t_skin == temps[0]
    assert abs(temps[0] - samples[-1]) <= 1e-9
    assert abs(temps[0] - slow.t_skin) <= 1e-9


@pytest.mark.parametrize("relax", [0.0, 0.002, 50.0])
def test_run_span_noise_per_logged_sample(relax):
    """Each logged sample takes one normal draw with the law of the
    per-step noise summed over its block of L steps: against a noiseless
    twin, the residual r_k = decay**L * r_(k-1) + e_k has independent
    innovations e_k ~ N(0, (sigma * DT)**2 * sum(decay**(2 i), i < L)).
    Over 200 seeds, the sum of e_k**2 / var_k is chi-square with one
    degree of freedom per sample; it must lie between the 1e-6 and
    1 - 1e-6 quantiles, for presentation-like pieces logged every 10 steps
    (with a 5-step tail), for whole 6 s calibration readings, and for
    several pieces read as one sample at their end, as calibration
    verifies a pattern."""
    sigma = 0.05
    quiet = PlantParams(relax_coeff=relax, interaction_bias=0.013)
    noisy = replace(quiet, noise_sigma=sigma)
    decay = 1.0 - relax * DT
    cases = (
        (dict(duty_valve=0.55, duty_led=0.3, valve_on=True,
              led_on=np.array([False, True]), n_steps=np.array([400, 605]),
              log_every=10), [10] * 100 + [5]),
        (dict(duty_valve=0.5, valve_on=True, n_steps=6000, log_every=6000), [6000]),
        (dict(duty_valve=0.55, duty_led=0.3, valve_on=True,
              led_on=np.array([False, True, True]), n_steps=np.array([400, 605, 995]),
              log_every=2000), [2000]),
    )
    for inputs, lengths in cases:
        powers = [decay ** n for n in lengths]
        variances = [(sigma * DT) ** 2 * sum(decay ** (2 * i) for i in range(n))
                     for n in lengths]
        expected = SkinPlant(quiet).run_span(**inputs)
        stat = 0.0
        for seed in range(200):
            plant = SkinPlant(noisy, seed=seed)
            residual = plant.run_span(**inputs) - expected
            shadow = np.random.default_rng(seed)
            shadow.standard_normal(len(lengths))  # one draw per sample
            assert plant.rng.random() == shadow.random()
            prev = 0.0
            for r, power, var in zip(residual.tolist(), powers, variances):
                stat += (r - power * prev) ** 2 / var
                prev = r
        df = 200 * len(lengths)
        assert chi2.ppf(1e-6, df) < stat < chi2.ppf(1 - 1e-6, df)
