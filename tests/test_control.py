"""Duty models, calibration loop, timelines, and the control runner."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from scipy.signal import lfilter

from coldsim import (CalibrationError, CalibrationProtocol,
                     DegenerateDesignError, DutyModel, PlantParams, SkinPlant,
                     StimulusSpec, UnreachableRateError, ValidationError,
                     calibrate, compile_schedule, exact_models, fit_duty_model,
                     invert_duty, load_models, run_control, schedule_to_timeline)
from coldsim.control import DRIFT_THRESHOLD, LED_GRID, MEASURE_TIME, VALVE_GRID
from coldsim.experiment import EXP2_RATES, EXP2_RATIOS, perturb_params
from coldsim.plant import DT, Trace
from test_pattern import segment_steps
from test_plant import step


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
                       cooling_rate=math.nan)
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


def test_calibrate_unreachable_in_second_round_names_pattern():
    # Both channels together cool harder than the single-channel fits say,
    # so the first round's patterns end far colder, and the correction
    # lowers the warm model until the second pattern's warm rate is out of
    # reach: round 2 inverts the warm rates again from the pattern's cut.
    params = PlantParams(relax_coeff=0.0, interaction_bias=-0.15)
    with pytest.raises(UnreachableRateError) as info:
        calibrate(SkinPlant(params), ideal_protocol())
    assert (info.value.channel, info.value.target_rate) == ("led", pytest.approx(0.4))
    # the first round's warm model is the exact one, which reaches 0.4
    assert info.value.rate_max < 0.4 < exact_models(params)[1].rate_range()[1]
    assert (info.value.stimulus_id, info.value.segment_index) == ("S1_vc-0.2_r0.5", 1)
    assert "for stimulus S1_vc-0.2_r0.5 (segment 1)" in str(info.value)


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
    assert timeline.valve_duty == pytest.approx(
        invert_duty(valve_model, -0.1), abs=1e-12)
    # cadence: 0.6 s cooling, then 0.6 s warming, for 12 whole cycles of
    # 1.2 s and a final cooling stretch
    assert timeline.n_steps.tolist() == [600] * 25
    assert timeline.led_on.tolist() == [False, True] * 12 + [False]
    assert timeline.led_duty == pytest.approx(invert_duty(led_model, 0.2), abs=1e-9)


def test_timeline_s3_led_inactive():
    valve_model, led_model = exact_models(PlantParams())
    schedule = compile_schedule(StimulusSpec("S3", -0.16))
    timeline = schedule_to_timeline(schedule, valve_model, led_model)
    assert timeline.n_steps.tolist() == [15000]
    assert timeline.led_on.tolist() == [False]
    assert timeline.led_duty == 0.0


def test_timeline_strong_warm_duty_inversion():
    valve_model, led_model = exact_models(PlantParams())
    schedule = compile_schedule(StimulusSpec("S1", -0.24, 0.5, 0.06))
    timeline = schedule_to_timeline(schedule, valve_model, led_model)
    duty = timeline.led_duty
    assert duty == pytest.approx((0.48 + 0.0522) / 0.6122, abs=1e-9)
    assert duty == pytest.approx(0.869, abs=1e-3)


def test_timeline_s2_hold_balances_cooling():
    valve_model, led_model = exact_models(PlantParams())
    schedule = compile_schedule(StimulusSpec("S2", -0.16))
    timeline = schedule_to_timeline(schedule, valve_model, led_model)
    assert timeline.n_steps.tolist() == [5000, 10000]
    assert timeline.led_on.tolist() == [False, True]
    assert timeline.led_duty == pytest.approx(invert_duty(led_model, 0.16), abs=1e-12)


def test_timeline_unreachable_carries_segment_index():
    valve_model, led_model = exact_models(PlantParams())
    squeezed = DutyModel("led", led_model.slope, led_model.intercept, 0.118, 0.5)
    schedule = compile_schedule(StimulusSpec("S1", -0.24, 0.5, 0.06))
    with pytest.raises(UnreachableRateError) as info:
        schedule_to_timeline(schedule, valve_model, squeezed)
    assert info.value.segment_index == 1


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


@pytest.mark.parametrize("swing", [0.06, 0.03])
def test_exact_models_carry_rest_pull(swing):
    # The valve model's intercept carries the rest pull at t_init, so on
    # the default plant, relaxation on, every exp2 S1 cell ends within
    # 0.01 degC of its start; the pull left uncompensated moves each by
    # -0.265 degC.
    params = PlantParams()
    models = exact_models(params)
    for vc in EXP2_RATES:
        for ratio in EXP2_RATIOS:
            timeline = schedule_to_timeline(
                compile_schedule(StimulusSpec("S1", vc, ratio, swing)), *models)
            trace = run_control(timeline, SkinPlant(params))
            assert abs(trace.net_delta_t) <= 0.01, (vc, ratio)


def test_run_control_snaps_off_grid_boundary():
    # an off-grid boundary lands on the nearest step without distortion:
    # the hold starts at step 1005, not at 1.0049 s
    params = PlantParams(relax_coeff=0.0)
    plant = SkinPlant(params)
    valve_model, led_model = exact_models(params)
    spec = StimulusSpec("S2", -0.16, duration=2.0, drop_duration=1.0049)
    timeline = schedule_to_timeline(compile_schedule(spec), valve_model, led_model)
    assert timeline.n_steps.tolist() == [1005, 995]
    trace = run_control(timeline, plant)
    rate_valve = valve_model.predicted_rate(timeline.valve_duty)
    rate_led = led_model.predicted_rate(timeline.led_duty)
    assert trace.net_delta_t == pytest.approx(rate_valve * 2.0 + rate_led * 0.995,
                                              abs=1e-9)


def test_run_control_vanishing_active_span_rejected():
    # A warm segment that snaps to zero steps, or a presentation shorter
    # than half a step, cannot be played: the error names the segment.
    models = exact_models(PlantParams())
    for spec, segment in (
            (StimulusSpec("S1", -0.24, 0.5, 0.0001),
             "segment 5 [0.0020833333333333333, 0.0025) s"),
            (StimulusSpec("S3", -0.16, duration=0.0004), "segment 0 [0.0, 0.0004) s")):
        with pytest.raises(ValidationError, match=re.escape(
                f"{segment} collapses to zero steps of {DT} s")):
            run_control(schedule_to_timeline(compile_schedule(spec), *models),
                        SkinPlant(PlantParams()))


def presentation(spec, valve_model, led_model):
    """A spec's schedule, the duty models and the timeline they give."""
    schedule = compile_schedule(spec)
    return schedule, valve_model, led_model, schedule_to_timeline(
        schedule, valve_model, led_model)


@st.composite
def presentations(draw):
    """An S1, S2 or S3 presentation of an off-grid duration up to 2 s
    (S2 with an off-grid drop), under the duty models of a jittered plant
    with a shifted warm model.  Drawn until it has a timeline: every rate
    reachable and no warm segment vanishing in the snap to steps."""
    kind = draw(st.sampled_from(["S1", "S2", "S3"]))
    rate = draw(st.sampled_from(EXP2_RATES))
    duration = draw(st.floats(0.0005, 2.0))
    if kind == "S1":
        spec = StimulusSpec("S1", rate, draw(st.sampled_from(EXP2_RATIOS)),
                            draw(st.floats(0.002, 0.08)), duration)
    else:
        spec = StimulusSpec(kind, rate, duration=duration,
                            drop_duration=duration * draw(st.floats(0.01, 0.99)))
    valve, led = exact_models(perturb_params(PlantParams(), np.random.default_rng(
        draw(st.integers(0, 2**32 - 1)))))
    led = replace(led, intercept=led.intercept + draw(st.floats(-0.05, 0.05)))
    try:
        return presentation(spec, valve, led)
    except (ValidationError, UnreachableRateError):
        reject()


def logged(temps):
    """The samples of per-step temperatures (from t = 0) that run_control
    logs, and their times."""
    n = len(temps) - 1
    idx = np.arange(0, n + 1, 10)
    time = np.arange(len(idx)) / 100.0
    if n % 10:
        idx, time = np.append(idx, n), np.append(time, n * DT)
    return Trace(time, np.asarray(temps)[idx])


@settings(max_examples=60)
@given(presentations(), st.sampled_from([0.0, 0.002]), st.floats(-0.05, 0.05))
def test_property_run_control_matches_scalar_steps(case, relax, bias):
    schedule, valve, led, timeline = case
    params = PlantParams(relax_coeff=relax, interaction_bias=bias)  # noise off
    trace = run_control(timeline, SkinPlant(params))
    plant = SkinPlant(params)
    temps = [plant.t_skin]
    valve_duty, duty, on = segment_steps(schedule, valve, led)
    for duty_led, led_on in zip(duty.tolist(), on.tolist()):
        temps.append(step(plant, valve_duty, duty_led, True, led_on))
    expected = logged(temps)
    assert trace.time.tolist() == expected.time.tolist()
    assert np.max(np.abs(trace.temp - expected.temp)) <= 1e-9


def per_step_run_span(plant, duty_valve, duty_led, valve_on, led_on):
    """A noiseless SkinPlant.run_span on per-step input arrays: the drive
    rate of every step from that step's inputs, then one linear filter
    over all of them, returning every step's temperature."""
    p = plant.params
    rate = (valve_on * (p.valve_gain * duty_valve + p.valve_bias)
            + led_on * (p.led_gain * duty_led + p.led_bias)
            + (valve_on & led_on) * p.interaction_bias)
    decay = 1.0 - p.relax_coeff * DT
    drive = DT * (rate + p.relax_coeff * p.t_neutral)
    temps, _ = lfilter([1.0], [1.0, -decay], drive, zi=[decay * plant.t_skin])
    plant.t_skin = float(temps[-1])
    return temps


@settings(max_examples=60)
@given(presentations(), st.sampled_from([0.0, 0.002]), st.floats(-0.05, 0.05))
@example(presentation(  # cooling segments that vanish between warm ones
    StimulusSpec("S1", -0.08, 0.3, 5e-05, duration=0.05), *exact_models(PlantParams())),
    0.002, 0.013)
def test_property_run_control_matches_per_step_arrays(case, relax, bias):
    # The block update reorders the float operations of the per-step
    # filter, so noiseless temperatures agree to rounding.
    schedule, valve, led, timeline = case
    params = PlantParams(relax_coeff=relax, interaction_bias=bias)
    plant, oracle = SkinPlant(params), SkinPlant(params)
    trace = run_control(timeline, plant)
    start = oracle.t_skin
    valve_duty, duty, on = segment_steps(schedule, valve, led)
    temps = per_step_run_span(oracle, np.full(len(duty), valve_duty), duty,
                              np.ones(len(duty), dtype=bool), on)
    expected = logged(np.concatenate(([start], temps)))
    assert trace.time.tobytes() == expected.time.tobytes()
    assert np.max(np.abs(trace.temp - expected.temp)) <= 1e-9
    assert abs(plant.t_skin - oracle.t_skin) <= 1e-9
