"""Duty models, calibration loop, timelines, and the control runner."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import lfilter

from coldsim import (CalibrationError, CalibrationProtocol,
                     DegenerateDesignError, DutyModel, PlantParams, SkinPlant,
                     StimulusSpec, UnreachableRateError, ValidationError,
                     calibrate, compile_schedule, exact_models, fit_duty_model,
                     invert_duty, load_models, run_control, schedule_to_timeline)
from coldsim.control import (DRIFT_THRESHOLD, LED_GRID, MEASURE_TIME, VALVE_GRID,
                             ActuatorTimeline, ChannelSpan, _SPAN, _timeline_pieces,
                             _verification_inputs)
from coldsim.experiment import EXP2_RATES, EXP2_RATIOS, perturb_params
from coldsim.pattern import RateSchedule, stimulus_id
from coldsim.plant import DT, Trace


def normal_equations_oracle(duties, rates):
    """Brute-force (a, b) from the normal equations via numpy lstsq."""
    design = np.column_stack([duties, np.ones(len(duties))])
    (slope, intercept), *_ = np.linalg.lstsq(design, np.asarray(rates), rcond=None)
    return float(slope), float(intercept)


def test_fit_recovers_generating_line():
    slope, intercept = -2.252, 1.0535
    duties = (0.490, 0.550, 0.601)
    model = fit_duty_model(duties, [slope * d + intercept for d in duties], "valve")
    assert model.slope == pytest.approx(slope, abs=1e-6)
    assert model.intercept == pytest.approx(intercept, abs=1e-6)
    assert model.r_squared == pytest.approx(1.0, abs=1e-6)


def test_fit_two_points_interpolates():
    model = fit_duty_model((0.2, 0.8), (0.1, 0.4), "led")
    assert model.predicted_rate(0.2) == pytest.approx(0.1, abs=1e-12)
    assert model.predicted_rate(0.8) == pytest.approx(0.4, abs=1e-12)
    assert model.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_noisy_slope_and_oracle_equivalence():
    rng = np.random.default_rng(12)
    slope, intercept = 0.6122, -0.0522
    duties = list(np.linspace(0.1, 0.9, 10))
    rates = [slope * d + intercept + rng.normal(0, 0.01) for d in duties]
    model = fit_duty_model(duties, rates, "led")
    oracle = normal_equations_oracle(duties, rates)
    assert model.slope == pytest.approx(oracle[0], abs=1e-9)
    assert model.intercept == pytest.approx(oracle[1], abs=1e-9)
    assert abs(model.slope - slope) / abs(slope) < 0.05


def test_fit_oracle_equivalence_random():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        duties = rng.uniform(0, 1, size=n)
        if len(set(np.round(duties, 12))) < 2:
            continue
        rates = rng.normal(size=n)
        model = fit_duty_model(duties.tolist(), rates.tolist(), "led")
        slope, intercept = normal_equations_oracle(duties, rates)
        assert model.slope == pytest.approx(slope, abs=1e-9)
        assert model.intercept == pytest.approx(intercept, abs=1e-9)


def test_fit_degenerate_design():
    with pytest.raises(DegenerateDesignError):
        fit_duty_model((0.5, 0.5), (1.0, 2.0), "valve")


def test_fit_rejects_bad_designs():
    with pytest.raises(ValidationError, match="one rate per duty"):
        fit_duty_model((0.2, 0.5, 0.8), (0.1, 0.2), "led")
    with pytest.raises(ValidationError, match="at least 2 points"):
        fit_duty_model((0.5,), (0.1,), "led")
    with pytest.raises(ValidationError, match="unknown channel 'fan'"):
        fit_duty_model((0.2, 0.8), (0.1, 0.4), "fan")


def test_invert_examples():
    model = DutyModel("valve", -2.252, 1.0535, 0.490, 0.601)
    duty = invert_duty(model, -0.2)
    assert duty == pytest.approx((-0.2 - 1.0535) / -2.252, abs=1e-12)
    assert duty == pytest.approx(0.5566, abs=1e-4)
    assert model.predicted_rate(duty) == pytest.approx(-0.2, abs=1e-12)
    # boundary target comes back as the boundary duty
    boundary = model.predicted_rate(model.duty_max)
    assert invert_duty(model, boundary) == model.duty_max
    with pytest.raises(UnreachableRateError) as info:
        invert_duty(model, -0.5)
    assert info.value.rate_min == pytest.approx(model.predicted_rate(0.601))
    assert info.value.rate_max == pytest.approx(model.predicted_rate(0.490))
    # a NaN rate is unreachable too, also as a schedule's cooling rate
    with pytest.raises(UnreachableRateError):
        invert_duty(model, math.nan)
    schedule = replace(compile_schedule(StimulusSpec("S3", -0.16)),
                       base_cooling_rate=math.nan)
    with pytest.raises(UnreachableRateError):
        schedule_to_timeline(schedule, model, exact_models(PlantParams())[1])


def test_invert_round_trip_property():
    rng = np.random.default_rng(8)
    model = DutyModel("led", 0.6122, -0.0522, 0.118, 0.902)
    lo, hi = model.rate_range()
    for _ in range(200):
        rate = float(rng.uniform(lo, hi))
        assert model.predicted_rate(invert_duty(model, rate)) == pytest.approx(
            rate, abs=1e-12)


def ideal_protocol(**kw):
    kw.setdefault("sensor_resolution", 0.0)
    return CalibrationProtocol(**kw)


def test_calibrate_noiseless_exact_recovery():
    plant = SkinPlant(PlantParams(relax_coeff=0.0))
    result = calibrate(plant, ideal_protocol())
    assert result.iterations == 1
    assert result.valve.r_squared == pytest.approx(1.0, abs=1e-9)
    assert result.led.r_squared == pytest.approx(1.0, abs=1e-9)
    assert result.valve.slope == pytest.approx(-2.252, abs=1e-6)
    assert result.valve.intercept == pytest.approx(1.0535, abs=1e-6)
    assert result.led.slope == pytest.approx(0.6122, abs=1e-6)
    assert result.led.intercept == pytest.approx(-0.0522, abs=1e-6)


def test_calibrate_injected_warm_bias_converges():
    plant = SkinPlant(PlantParams(relax_coeff=0.0, interaction_bias=0.013))
    result = calibrate(plant, ideal_protocol())
    assert result.iterations <= 3
    assert all(abs(c.net_delta_t) <= 0.1 for c in result.verification[-1])


def test_calibrate_default_plant_exercises_drift_loop():
    # The ambient pull absorbed by each single-channel fit double-counts
    # when both channels run, so at least one correction round happens.
    plant = SkinPlant(PlantParams())
    result = calibrate(plant)
    assert 1 < result.iterations <= 10
    assert all(abs(c.net_delta_t) <= 0.1 for c in result.verification[-1])


def test_calibrate_unreachable_led_range():
    weak = PlantParams(relax_coeff=0.0, led_gain=0.2, led_bias=-0.05)
    plant = SkinPlant(weak)
    # the first verification pattern asks the warm channel for 0.32 degC/s
    with pytest.raises(UnreachableRateError) as info:
        calibrate(plant, ideal_protocol())
    assert info.value.channel == "led"
    assert info.value.target_rate == pytest.approx(0.32)
    assert info.value.rate_max < 0.48
    assert info.value.segment_index == 1
    assert info.value.stimulus_id == "S1_vc-0.16_r0.5"
    assert "for stimulus S1_vc-0.16_r0.5 (segment 1)" in str(info.value)


def test_calibrate_nonconvergence_reports():
    # A huge uncorrectable asymmetry: correction is warm-only but the gate
    # cannot be met because the verification keeps drifting beyond reach.
    plant = SkinPlant(PlantParams(relax_coeff=0.0, interaction_bias=0.2))
    with pytest.raises(CalibrationError) as info:
        calibrate(plant, ideal_protocol(max_iters=2))
    assert len(info.value.report) == 2


def test_calibrate_golden_models():
    # Pinned bit for bit: three rounds exercise the averaging of repeated
    # endpoint readings, the fit, and two warm-channel drift corrections.
    plant = SkinPlant(PlantParams(noise_sigma=0.01), seed=0)
    result = calibrate(plant, CalibrationProtocol(measurement_noise=0.002,
                                                  noise_seed=0))
    assert result.iterations == 3
    assert [(m.slope.hex(), m.intercept.hex()) for m in (result.valve, result.led)] == [
        ("-0x1.1fa6146a6a3ccp+1", "0x1.08de545a149d8p+0"),
        ("0x1.3a27b80081142p-1", "-0x1.eac4b7499a2b8p-5")]
    assert [[c.net_delta_t.hex() for c in round_]
            for round_ in result.verification] == [
        ["0x1.0000000000000p-3", "0x1.0000000000000p-3", "0x1.9999999999a00p-3"],
        ["0x1.9999999999800p-5", "0x1.9999999999800p-5", "0x1.9999999999a00p-4"],
        ["0x1.9999999999800p-6", "0x1.9999999999800p-6", "0x1.9999999999800p-5"]]


def test_models_json_round_trip(tmp_path):
    plant = SkinPlant(PlantParams(relax_coeff=0.0))
    result = calibrate(plant, ideal_protocol())
    path = tmp_path / "models.json"
    result.to_json(path)
    valve, led = load_models(path)
    assert valve == result.valve
    assert led == result.led
    meta = json.loads(path.read_text())["meta"]
    assert meta["valve_grid"] == list(VALVE_GRID) == [
        0.490, 0.514, 0.538, 0.561, 0.584, 0.601]
    assert meta["led_grid"] == list(LED_GRID) == [
        0.118, 0.275, 0.431, 0.588, 0.745, 0.902]
    assert meta["measure_time_s"] == MEASURE_TIME == 6.0
    assert meta["drift_threshold_c"] == DRIFT_THRESHOLD == 0.1


def test_timeline_worked_example():
    params = PlantParams(relax_coeff=0.0)
    valve_model, led_model = exact_models(params)
    schedule = compile_schedule(StimulusSpec("S1", -0.1, 0.5, 0.06, duration=15.0))
    timeline = schedule_to_timeline(schedule, valve_model, led_model)
    assert len(timeline.valve) == 1
    assert timeline.valve[0].duty == pytest.approx(
        invert_duty(valve_model, -0.1), abs=1e-12)
    led_on = timeline.led
    assert all(s.duty == pytest.approx(invert_duty(led_model, 0.2), abs=1e-9)
               for s in led_on)
    # cadence: warm stretches of 0.6 s, one per 1.2 s cycle
    assert led_on[0].start == pytest.approx(0.6, abs=1e-12)
    assert led_on[0].end == pytest.approx(1.2, abs=1e-12)
    assert led_on[1].start == pytest.approx(1.8, abs=1e-12)
    assert len(led_on) == 12


def test_timeline_s3_led_inactive():
    valve_model, led_model = exact_models(PlantParams())
    schedule = compile_schedule(StimulusSpec("S3", -0.16))
    timeline = schedule_to_timeline(schedule, valve_model, led_model)
    assert timeline.led == ()


def test_timeline_strong_warm_duty_inversion():
    valve_model, led_model = exact_models(PlantParams())
    schedule = compile_schedule(StimulusSpec("S1", -0.24, 0.5, 0.06))
    timeline = schedule_to_timeline(schedule, valve_model, led_model)
    led_on = timeline.led
    assert led_on[0].duty == pytest.approx((0.48 + 0.0522) / 0.6122, abs=1e-9)
    assert led_on[0].duty == pytest.approx(0.869, abs=1e-3)


def test_timeline_s2_hold_balances_cooling():
    valve_model, led_model = exact_models(PlantParams())
    schedule = compile_schedule(StimulusSpec("S2", -0.16))
    timeline = schedule_to_timeline(schedule, valve_model, led_model)
    (hold,) = timeline.led
    assert (hold.start, hold.end) == (5.0, 15.0)
    assert hold.duty == pytest.approx(invert_duty(led_model, 0.16), abs=1e-12)


def test_timeline_unreachable_carries_segment_index():
    valve_model, led_model = exact_models(PlantParams())
    squeezed = DutyModel("led", led_model.slope, led_model.intercept, 0.118, 0.5)
    schedule = compile_schedule(StimulusSpec("S1", -0.24, 0.5, 0.06))
    with pytest.raises(UnreachableRateError) as info:
        schedule_to_timeline(schedule, valve_model, squeezed)
    assert info.value.segment_index == 1


MULTI_RATES = [Fraction(r, 100) for r in (-10, 10, -10, 5, -10, 10, -10, 30)]


def multi_rate_schedule():
    """Warm rates 0.2, 0.15, 0.2 on top of -0.1 cooling, then 0.4."""
    ticks = tuple((k, k + 1, rate, rate > 0) for k, rate in enumerate(MULTI_RATES))
    return RateSchedule("S1", 1, ticks, Fraction(len(MULTI_RATES)), -0.1)


def test_timeline_duty_per_distinct_warm_rate():
    valve_model, led_model = exact_models(PlantParams())
    schedule = multi_rate_schedule()
    timeline = schedule_to_timeline(schedule, valve_model, led_model)
    assert [(s.start, s.duty) for s in timeline.led] == [
        (k, invert_duty(led_model, float(rate) + 0.1))
        for k, rate in enumerate(MULTI_RATES) if rate > 0]
    squeezed = DutyModel("led", led_model.slope, led_model.intercept, 0.118, 0.5)
    with pytest.raises(UnreachableRateError) as info:
        schedule_to_timeline(schedule, valve_model, squeezed)
    assert info.value.segment_index == 7


@st.composite
def verification_cases(draw):
    """A verification pattern (an S1 spec over the exp2 grid with either
    swing, or an S2 or S3 spec), a jittered plant with or without process
    noise, and the warm models of one to three rounds, each with a
    shifted intercept."""
    kind = draw(st.sampled_from(["S1", "S2", "S3"]))
    rate = draw(st.sampled_from(EXP2_RATES))
    if kind == "S1":
        spec = StimulusSpec("S1", rate, draw(st.sampled_from(EXP2_RATIOS)),
                            draw(st.sampled_from([0.03, 0.06])))
    else:
        spec = StimulusSpec(kind, rate)
    params = perturb_params(PlantParams(), np.random.default_rng(
        draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        params = replace(params, noise_sigma=0.01)
    led = exact_models(params)[1]
    leds = [replace(led, intercept=led.intercept + shift)
            for shift in draw(st.lists(st.floats(-0.08, 0.08), min_size=1, max_size=3))]
    return spec, params, leds, draw(st.integers(0, 2**32 - 1))


EXACT_LED = exact_models(PlantParams())[1]


@settings(max_examples=80, deadline=None)
@given(verification_cases())
@example((StimulusSpec("S1", -0.24, 0.5), PlantParams(),  # warm rate 0.48 unreachable
          [EXACT_LED, replace(EXACT_LED, intercept=-0.2)], 0))  # in round 2
def test_property_verification_inputs_match_timeline_pieces(case):
    # Calibration cuts a pattern once, from its integer ticks, and
    # re-inverts only the warm duty per round; each round's end state must
    # be bit for bit the one-sample run_span of the pieces run_control
    # would play from the compiled schedule, with the same draws.
    spec, params, leds, seed = case
    schedule = compile_schedule(spec)
    valve = exact_models(params)[0]
    stimulus = stimulus_id(spec)
    try:
        timelines = [schedule_to_timeline(schedule, valve, led) for led in leds]
    except UnreachableRateError as exc:
        with pytest.raises(UnreachableRateError) as info:
            inputs = _verification_inputs(spec, stimulus)(valve)
            for led in leds:
                inputs(led)
        assert (info.value.channel, info.value.target_rate, info.value.segment_index) \
            == (exc.channel, exc.target_rate, exc.segment_index)
        assert info.value.stimulus_id == stimulus
        return
    inputs = _verification_inputs(spec, stimulus)(valve)
    plant, reference = SkinPlant(params, seed=seed), SkinPlant(params, seed=seed)
    for led, timeline in zip(leds, timelines):
        plant.reset()
        reference.reset()
        pieces, n = _timeline_pieces(timeline.duration, map(_SPAN, timeline.valve),
                                     map(_SPAN, timeline.led))
        expected = reference.run_span(*pieces, log_every=max(n, 1))
        assert plant.run_span(**inputs(led)).tobytes() == expected.tobytes()
        assert plant.rng.bit_generator.state == reference.rng.bit_generator.state


def test_run_control_s3_matches_analytic_integral():
    params = PlantParams(relax_coeff=0.0)
    plant = SkinPlant(params)
    models = exact_models(params)
    timeline = schedule_to_timeline(
        compile_schedule(StimulusSpec("S3", -0.16)), *models)
    trace = run_control(timeline, plant)
    assert trace.net_delta_t == pytest.approx(-2.40, abs=0.01)
    assert len(trace.time) == 1501
    assert trace.time[-1] == 15.0


def test_run_control_s1_whole_cycles_balance():
    params = PlantParams(relax_coeff=0.0)
    plant = SkinPlant(params)
    models = exact_models(params)
    timeline = schedule_to_timeline(
        compile_schedule(StimulusSpec("S1", -0.1, 0.5, 0.06, duration=14.4)),
        *models)
    trace = run_control(timeline, plant)
    assert abs(trace.net_delta_t) <= 0.02


def test_run_control_empty_timeline_constant():
    plant = SkinPlant(PlantParams(relax_coeff=0.0))
    timeline = ActuatorTimeline((), (), 2.0)
    trace = run_control(timeline, plant)
    assert len(trace.time) == 201
    assert np.all(trace.temp == 33.0)


def test_run_control_snaps_off_grid_boundary():
    # an off-grid boundary lands on the nearest step without distortion
    params = PlantParams(relax_coeff=0.0)
    plant = SkinPlant(params)
    spans = (ChannelSpan(0.0, 1.0049, 0.55), ChannelSpan(1.0049, 2.0, 0.49))
    timeline = ActuatorTimeline(spans, (), 2.0)
    trace = run_control(timeline, plant)
    rate_a = -2.252 * 0.55 + 1.0535
    rate_b = -2.252 * 0.49 + 1.0535
    assert trace.net_delta_t == pytest.approx(rate_a * 1.005 + rate_b * 0.995,
                                              abs=1e-9)


def test_run_control_vanishing_active_span_rejected():
    plant = SkinPlant(PlantParams())
    spans = (ChannelSpan(0.0, 0.0004, 0.55),)
    timeline = ActuatorTimeline(spans, (), 2.0)
    with pytest.raises(ValidationError, match="collapses to zero steps"):
        run_control(timeline, plant)


@pytest.mark.parametrize("spans", [
    (ChannelSpan(0.0, 1.0, 0.55), ChannelSpan(0.5, 2.0, 0.49)),
    (ChannelSpan(1.0, 2.0, 0.49), ChannelSpan(0.0, 1.0, 0.55)),
    (ChannelSpan(1.0, 0.5, 0.55),),
    (ChannelSpan(-0.5, 1.0, 0.55),),
])
def test_run_control_rejects_unordered_spans(spans):
    # overlapping, out-of-order, reversed or negative-time spans have no
    # single actuator state per step
    for timeline in (ActuatorTimeline(spans, (), 2.0),
                     ActuatorTimeline((), spans, 2.0)):
        with pytest.raises(ValidationError, match="ordered and disjoint"):
            run_control(timeline, SkinPlant(PlantParams()))


@pytest.mark.parametrize("valve,duration,bad", [
    ((ChannelSpan(0.0, math.nan, 0.55),), 2.0, "nan"),
    ((ChannelSpan(math.nan, 1.0, 0.55),), 2.0, "nan"),
    ((ChannelSpan(0.0, math.inf, 0.55),), 2.0, "inf"),
    ((), math.nan, "nan"),
    ((), math.inf, "inf"),
    ((), -1.0, "-1.0"),
])
def test_run_control_rejects_non_finite_or_negative_timeline(valve, duration, bad):
    for timeline in (ActuatorTimeline(valve, (), duration),
                     ActuatorTimeline((), valve, duration)):
        with pytest.raises(ValidationError, match=bad):
            run_control(timeline, SkinPlant(PlantParams()))


@st.composite
def random_timelines(draw):
    """A timeline with off-grid boundaries and gaps, plus its step count.

    Every boundary sits within 0.4 of a step from its grid tick, so it
    snaps to that tick and the span holding a step's midpoint is the one
    that covers the step.
    """
    n = draw(st.integers(1, int(round(2.0 / DT))))
    off = st.floats(-0.4, 0.4)
    duration = (n + draw(off)) * DT

    channels = []
    for _ in range(2):
        ticks = sorted(draw(st.sets(st.integers(0, n), max_size=12)))
        at = {t: 0.0 if t == 0 else duration if t == n else (t + draw(off)) * DT
              for t in ticks}
        spans = []
        for t0, t1 in zip(ticks, ticks[1:]):
            if draw(st.booleans()):  # else a gap: the channel is off
                spans.append(ChannelSpan(at[t0], at[t1], draw(st.floats(0.0, 1.0))))
        channels.append(tuple(spans))
    return ActuatorTimeline(channels[0], channels[1], duration), n


def scalar_reference(timeline, params, n):
    """Temperatures from a loop of scalar steps."""
    plant = SkinPlant(params)
    temps = [plant.t_skin]
    for k in range(n):
        mid = (k + 0.5) * DT
        state = []
        for spans in (timeline.valve, timeline.led):
            span = next((s for s in spans if s.start <= mid < s.end), None)
            state.append((0.0, False) if span is None else (span.duty, True))
        (duty_valve, valve_on), (duty_led, led_on) = state
        temps.append(plant.step(duty_valve, duty_led, valve_on, led_on))
    return np.array(temps)


@settings(max_examples=60)
@given(random_timelines())
def test_property_run_control_matches_scalar_steps(case):
    timeline, n = case
    params = PlantParams(interaction_bias=0.013)  # relaxation on, noise off
    trace = run_control(timeline, SkinPlant(params))
    temps = scalar_reference(timeline, params, n)
    idx = list(range(0, n + 1, 10))
    times = [k / 100.0 for k in range(len(idx))]
    if idx[-1] != n:
        idx.append(n)
        times.append(n * DT)
    assert trace.time.tolist() == times
    assert np.max(np.abs(trace.temp - temps[idx])) <= 1e-9


def per_step_run_span(plant, duty_valve, duty_led, valve_on, led_on, n_steps):
    """A noiseless SkinPlant.run_span on per-step input arrays: the drive
    rate of every step from that step's inputs, then one linear filter
    over all of them, returning every step's temperature."""
    if n_steps <= 0:
        return np.empty(0)
    p = plant.params
    rate = (valve_on * (p.valve_gain * duty_valve + p.valve_bias)
            + led_on * (p.led_gain * duty_led + p.led_bias)
            + (valve_on & led_on) * p.interaction_bias)
    decay = 1.0 - p.relax_coeff * DT
    drive = np.full(n_steps, DT * (rate + p.relax_coeff * p.t_neutral))
    temps, _ = lfilter([1.0], [1.0, -decay], drive, zi=[decay * plant.t_skin])
    plant.t_skin = float(temps[-1])
    return temps


def per_step_run_control(timeline, plant):
    """run_control with each channel's spans written into per-step duty
    and on-flag arrays, later spans over earlier ones."""
    n = int(round(timeline.duration / DT))
    duty_valve, duty_led = np.zeros(n), np.zeros(n)
    valve_on, led_on = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    for spans, duty, on in ((timeline.valve, duty_valve, valve_on),
                            (timeline.led, duty_led, led_on)):
        for span in spans:
            t0, t1 = (min(int(round(t / DT)), n) for t in (span.start, span.end))
            duty[t0:t1] = span.duty
            on[t0:t1] = True
    temp = np.empty(n + 1)
    temp[0] = plant.t_skin
    temp[1:] = per_step_run_span(plant, duty_valve, duty_led, valve_on, led_on, n)
    idx = np.arange(0, n + 1, 10)
    time = np.arange(len(idx)) / 100.0
    if n % 10:
        idx, time = np.append(idx, n), np.append(time, n * DT)
    return Trace(time, temp[idx])


@settings(max_examples=60)
@given(random_timelines(), st.sampled_from([0.0, 0.002]))
@example((ActuatorTimeline(  # zero-length spans: between spans, before one, alone
    (ChannelSpan(0.0, 1.0, 0.5), ChannelSpan(1.0, 1.0, 0.7),
     ChannelSpan(1.0, 1.5, 0.6), ChannelSpan(1.8, 1.8, 0.4)),
    (ChannelSpan(0.5, 0.5, 0.9), ChannelSpan(0.5, 1.5, 0.3)), 2.0), 2000), 0.002)
def test_property_run_control_matches_per_step_arrays(case, relax):
    # The block update reorders the float operations of the per-step
    # filter, so noiseless temperatures agree to rounding.
    timeline, _ = case
    params = PlantParams(relax_coeff=relax, interaction_bias=0.013)
    plant, oracle = SkinPlant(params), SkinPlant(params)
    trace = run_control(timeline, plant)
    expected = per_step_run_control(timeline, oracle)
    assert trace.time.tobytes() == expected.time.tobytes()
    assert np.max(np.abs(trace.temp - expected.temp)) <= 1e-9
    assert abs(plant.t_skin - oracle.t_skin) <= 1e-9
