"""Duty models, calibration loop, timelines, and the control runner."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coldsim import (CalibrationError, CalibrationPoint, CalibrationProtocol,
                     DegenerateDesignError, DutyModel, PlantParams, SkinPlant,
                     StimulusSpec, UnreachableRateError, ValidationError,
                     apply_drift_correction, calibrate, compile_schedule,
                     exact_models, fit_duty_model, invert_duty, load_models,
                     mean_rate, run_control, schedule_to_timeline)
from coldsim.control import (DRIFT_THRESHOLD, LED_GRID, MEASURE_TIME, VALVE_GRID,
                             ActuatorTimeline, ChannelSpan)


def normal_equations_oracle(duties, rates):
    """Brute-force (a, b) from the normal equations via numpy lstsq."""
    design = np.column_stack([duties, np.ones(len(duties))])
    (slope, intercept), *_ = np.linalg.lstsq(design, np.asarray(rates), rcond=None)
    return float(slope), float(intercept)


def test_mean_rate_examples():
    assert mean_rate([CalibrationPoint(0.55, -1.2, 6.0)]) == pytest.approx(-0.2)
    pre_divided = [CalibrationPoint(0.55, r, 1.0) for r in (-0.18, -0.20, -0.22)]
    assert mean_rate(pre_divided) == pytest.approx(-0.20)
    assert mean_rate([CalibrationPoint(0.3, 0.9, 6.0)]) == pytest.approx(0.15)
    with pytest.raises(ValidationError):
        mean_rate([])
    with pytest.raises(ValidationError):
        mean_rate([CalibrationPoint(0.5, 1.0), CalibrationPoint(0.6, 1.0)])


def test_fit_recovers_generating_line():
    slope, intercept = -2.252, 1.0535
    points = [CalibrationPoint(d, (slope * d + intercept) * 6.0, 6.0)
              for d in (0.490, 0.550, 0.601)]
    model = fit_duty_model(points, "valve")
    assert model.slope == pytest.approx(slope, abs=1e-6)
    assert model.intercept == pytest.approx(intercept, abs=1e-6)
    assert model.r_squared == pytest.approx(1.0, abs=1e-6)


def test_fit_two_points_interpolates():
    points = [CalibrationPoint(0.2, 0.1 * 6, 6.0), CalibrationPoint(0.8, 0.4 * 6, 6.0)]
    model = fit_duty_model(points, "led")
    assert model.predicted_rate(0.2) == pytest.approx(0.1, abs=1e-12)
    assert model.predicted_rate(0.8) == pytest.approx(0.4, abs=1e-12)
    assert model.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_noisy_slope_and_oracle_equivalence():
    rng = np.random.default_rng(12)
    slope, intercept = 0.6122, -0.0522
    duties = list(np.linspace(0.1, 0.9, 10))
    rates = [slope * d + intercept + rng.normal(0, 0.01) for d in duties]
    points = [CalibrationPoint(d, r * 6.0, 6.0) for d, r in zip(duties, rates)]
    model = fit_duty_model(points, "led")
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
        points = [CalibrationPoint(float(d), float(r), 1.0)
                  for d, r in zip(duties, rates)]
        model = fit_duty_model(points, "led")
        slope, intercept = normal_equations_oracle(duties, rates)
        assert model.slope == pytest.approx(slope, abs=1e-9)
        assert model.intercept == pytest.approx(intercept, abs=1e-9)


def test_fit_degenerate_design():
    points = [CalibrationPoint(0.5, 1.0), CalibrationPoint(0.5, 2.0)]
    with pytest.raises(DegenerateDesignError):
        fit_duty_model(points, "valve")


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


def test_invert_round_trip_property():
    rng = np.random.default_rng(8)
    model = DutyModel("led", 0.6122, -0.0522, 0.118, 0.902)
    lo, hi = model.rate_range()
    for _ in range(200):
        rate = float(rng.uniform(lo, hi))
        assert model.predicted_rate(invert_duty(model, rate)) == pytest.approx(
            rate, abs=1e-12)


def test_drift_correction_examples():
    points = [CalibrationPoint(d, r * 6.0, 6.0)
              for d, r in ((0.2, 0.1), (0.5, 0.3), (0.9, 0.5))]
    shifted = apply_drift_correction(points, 0.2, 15.0)
    for old, new in zip(points, shifted):
        assert new.rate - old.rate == pytest.approx(0.2 / 15.0, abs=1e-12)
        assert new.rate - old.rate == pytest.approx(0.013333, abs=1e-6)
    assert apply_drift_correction(points, 0.0, 15.0) == points
    down = apply_drift_correction(points, -0.15, 15.0)
    for old, new in zip(points, down):
        assert new.rate - old.rate == pytest.approx(-0.010, abs=1e-12)


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
    protocol = ideal_protocol(verify_specs=(
        StimulusSpec("S1", cooling_rate=-0.24, cooling_ratio=0.5),))
    with pytest.raises(UnreachableRateError) as info:
        calibrate(plant, protocol)
    assert info.value.channel == "led"
    assert info.value.rate_max < 0.48


def test_calibrate_nonconvergence_reports():
    # A huge uncorrectable asymmetry: correction is warm-only but the gate
    # cannot be met because the verification keeps drifting beyond reach.
    plant = SkinPlant(PlantParams(relax_coeff=0.0, interaction_bias=0.2))
    with pytest.raises(CalibrationError) as info:
        calibrate(plant, ideal_protocol(max_iters=2))
    assert len(info.value.report) == 2


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
    led_on = [s for s in timeline.led if s.active]
    led_off = [s for s in timeline.led if not s.active]
    assert all(s.duty == pytest.approx(invert_duty(led_model, 0.2), abs=1e-9)
               for s in led_on)
    assert all(s.duty == 0.0 for s in led_off)
    # cadence: warm stretches of 0.6 s, one per 1.2 s cycle
    assert led_on[0].start == pytest.approx(0.6, abs=1e-12)
    assert led_on[0].end == pytest.approx(1.2, abs=1e-12)
    assert led_on[1].start == pytest.approx(1.8, abs=1e-12)
    assert len(led_on) == 12


def test_timeline_s3_led_inactive():
    valve_model, led_model = exact_models(PlantParams())
    schedule = compile_schedule(StimulusSpec("S3", -0.16))
    timeline = schedule_to_timeline(schedule, valve_model, led_model)
    assert all(not s.active for s in timeline.led)


def test_timeline_strong_warm_duty_inversion():
    valve_model, led_model = exact_models(PlantParams())
    schedule = compile_schedule(StimulusSpec("S1", -0.24, 0.5, 0.06))
    timeline = schedule_to_timeline(schedule, valve_model, led_model)
    led_on = [s for s in timeline.led if s.active]
    assert led_on[0].duty == pytest.approx((0.48 + 0.0522) / 0.6122, abs=1e-9)
    assert led_on[0].duty == pytest.approx(0.869, abs=1e-3)


def test_timeline_s2_hold_balances_cooling():
    valve_model, led_model = exact_models(PlantParams())
    schedule = compile_schedule(StimulusSpec("S2", -0.16))
    timeline = schedule_to_timeline(schedule, valve_model, led_model)
    hold = timeline.led[-1]
    assert hold.active
    assert hold.duty == pytest.approx(invert_duty(led_model, 0.16), abs=1e-12)


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


def test_run_control_empty_timeline_constant():
    plant = SkinPlant(PlantParams(relax_coeff=0.0))
    timeline = ActuatorTimeline((), (), 2.0)
    trace = run_control(timeline, plant)
    assert len(trace.time) == 201
    assert np.all(trace.temp == 33.0)
    assert not trace.valve_on.any() and not trace.led_on.any()


def test_run_control_snaps_off_grid_boundary():
    # an off-grid boundary lands on the nearest step without distortion
    params = PlantParams(relax_coeff=0.0)
    plant = SkinPlant(params)
    spans = (ChannelSpan(0.0, 1.0049, 0.55, True),
             ChannelSpan(1.0049, 2.0, 0.49, True))
    timeline = ActuatorTimeline(spans, (), 2.0)
    trace = run_control(timeline, plant, dt=0.01)
    rate_a = -2.252 * 0.55 + 1.0535
    rate_b = -2.252 * 0.49 + 1.0535
    assert trace.net_delta_t == pytest.approx(rate_a * 1.0 + rate_b * 1.0, abs=1e-9)


def test_run_control_vanishing_active_span_rejected():
    plant = SkinPlant(PlantParams())
    spans = (ChannelSpan(0.0, 0.003, 0.55, True),)
    timeline = ActuatorTimeline(spans, (), 2.0)
    with pytest.raises(ValidationError):
        run_control(timeline, plant, dt=0.01)


@pytest.mark.parametrize("spans", [
    (ChannelSpan(0.0, 1.0, 0.55, True), ChannelSpan(0.5, 2.0, 0.49, True)),
    (ChannelSpan(1.0, 2.0, 0.49, True), ChannelSpan(0.0, 1.0, 0.55, True)),
    (ChannelSpan(1.0, 0.5, 0.55, True),),
    (ChannelSpan(-0.5, 1.0, 0.55, True),),
])
def test_run_control_rejects_unordered_spans(spans):
    # overlapping, out-of-order, reversed or negative-time spans have no
    # single actuator state per step
    for timeline in (ActuatorTimeline(spans, (), 2.0),
                     ActuatorTimeline((), spans, 2.0)):
        with pytest.raises(ValidationError, match="ordered and disjoint"):
            run_control(timeline, SkinPlant(PlantParams()), dt=0.01)


@st.composite
def random_timelines(draw):
    """A timeline with off-grid boundaries and gaps, plus its step size.

    Every boundary sits within 0.4 of a step from its grid tick, so it
    snaps to that tick and the span holding a step's midpoint is the one
    that covers the step.
    """
    dt = draw(st.sampled_from((0.001, 0.005, 0.01)))
    n = draw(st.integers(1, int(round(2.0 / dt))))
    off = st.floats(-0.4, 0.4)
    duration = (n + draw(off)) * dt

    channels = []
    for _ in range(2):
        ticks = sorted(draw(st.sets(st.integers(0, n), max_size=12)))
        at = {t: 0.0 if t == 0 else duration if t == n else (t + draw(off)) * dt
              for t in ticks}
        spans = []
        for t0, t1 in zip(ticks, ticks[1:]):
            state = draw(st.sampled_from(("gap", "off", "on")))
            if state != "gap":
                duty = draw(st.floats(0.0, 1.0)) if state == "on" else 0.0
                spans.append(ChannelSpan(at[t0], at[t1], duty, state == "on"))
        channels.append(tuple(spans))
    return ActuatorTimeline(channels[0], channels[1], duration), dt, n


def scalar_reference(timeline, params, dt, n):
    """Temperatures and actuator states from a loop of scalar steps."""
    plant = SkinPlant(params)
    temps = [plant.t_skin]
    states = []
    for k in range(n):
        mid = (k + 0.5) * dt
        state = []
        for spans in (timeline.valve, timeline.led):
            span = next((s for s in spans if s.start <= mid < s.end), None)
            active = span is not None and span.active
            state.append((span.duty if active else 0.0, active))
        (duty_valve, valve_on), (duty_led, led_on) = state
        temps.append(plant.step(duty_valve, duty_led, valve_on, led_on, dt))
        states.append((duty_valve, duty_led, valve_on, led_on))
    states.append(states[-1])  # the last state holds on the final sample
    return np.array(temps), states


@settings(max_examples=60)
@given(random_timelines())
def test_property_run_control_matches_scalar_steps(case):
    timeline, dt, n = case
    params = PlantParams(interaction_bias=0.013)  # relaxation on, noise off
    trace = run_control(timeline, SkinPlant(params), dt=dt)
    temps, states = scalar_reference(timeline, params, dt, n)
    every = int(round(0.01 / dt))
    idx = list(range(0, n + 1, every))
    times = [k / 100.0 for k in range(len(idx))]
    if idx[-1] != n:
        idx.append(n)
        times.append(n * dt)
    assert trace.time.tolist() == times
    assert np.max(np.abs(trace.temp - temps[idx])) <= 1e-9
    logged = list(zip(trace.duty_valve.tolist(), trace.duty_led.tolist(),
                      trace.valve_on.tolist(), trace.led_on.tolist()))
    assert logged == [states[i] for i in idx]


def test_timeline_csv_export(tmp_path):
    valve_model, led_model = exact_models(PlantParams())
    timeline = schedule_to_timeline(
        compile_schedule(StimulusSpec("S2", -0.16)), valve_model, led_model)
    path = tmp_path / "timeline.csv"
    timeline.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "channel,start_s,end_s,duty,active"
    assert len(lines) == 1 + len(timeline.valve) + len(timeline.led)
