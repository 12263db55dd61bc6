"""Plans, the synthetic participant, the runner, and the analyses."""

import concurrent.futures
import csv
import gc
import importlib.util
import itertools
import math
import multiprocessing
import pickle
import re
import tempfile
import weakref
from collections import Counter
from dataclasses import asdict, astuple, replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coldsim.experiment
from coldsim import (CalibrationError, CalibrationProtocol, CalibrationResult,
                     DutyModel, ParticipantModel,
                     PlantParams,
                     SkinPlant, SliderTrace, UnreachableRateError,
                     ValidationError, analyze_exp2, analyze_exp3,
                     benjamini_hochberg, build_exp2_plan, build_exp3_plan,
                     compile_schedule, default_participants, exact_models,
                     invert_duty, run_experiment, simulate_participant,
                     wilcoxon_rank_sum)
from coldsim.control import run_control, schedule_to_timeline
from coldsim.experiment import (EXP2_RATES, EXP2_RATIOS, EXP3_BASE_RATE,
                                EXP3_RATES, PERSISTENCE_WINDOW, ExperimentPlan,
                                TrialRecord, peak_cooling_rate, perceived_rate,
                                perturb_params, read_records, run_participants,
                                run_pipeline, summarize_sliders,
                                write_records)
from coldsim.pattern import StimulusSpec, stimulus_id
from coldsim.plant import Trace
from test_plant import oracle_trace_csv


def flat_trace(rate=0.0, duration=15.0, start=33.0):
    t = np.round(np.arange(0.0, duration + 0.005, 0.01), 10)
    return Trace(t, start + rate * t)


def test_exp2_plan_shape():
    plan = build_exp2_plan()
    assert len(plan.stimuli) == 35
    assert plan.trials_per_participant == 105
    kinds = [s.kind for s in plan.stimuli]
    assert kinds.count("S1") == 25 and kinds.count("S2") == 5 and kinds.count("S3") == 5
    s1_rates = sorted({s.cooling_rate for s in plan.stimuli
                       if s.kind == "S1"})
    assert s1_rates == [-0.24, -0.2, -0.16, -0.12, -0.08]
    assert len(s1_rates) - 1 == 4  # five levels, df = 4 in the rate test
    assert sorted({s.cooling_ratio for s in plan.stimuli
                   if s.kind == "S1"}) == list(EXP2_RATIOS)
    assert all(s.swing == 0.06 and s.duration == 15.0
               for s in plan.stimuli)
    assert all(s.drop_duration == 5.0 for s in plan.stimuli
               if s.kind == "S2")


def test_exp3_plan_shape():
    plan = build_exp3_plan()
    assert len(plan.stimuli) == 5
    assert plan.trials_per_participant == 15
    s1 = [s for s in plan.stimuli if s.kind == "S1"]
    assert all(spec.cooling_ratio == 0.5 for spec in s1)
    assert [spec.cooling_rate for spec in s1] == list(EXP3_RATES) == [
        -0.08, -0.16, -0.24]
    assert [s.cooling_rate for s in plan.stimuli
            if s.kind in ("S2", "S3")] == [EXP3_BASE_RATE] * 2 == [-0.16] * 2


@pytest.mark.parametrize("make, named", [
    (lambda: build_exp2_plan(participants=0), "participants"),
    (lambda: build_exp3_plan(repetitions=-1), "repetitions"),
    (lambda: build_exp2_plan(seed=-1), "seed"),
    (lambda: build_exp3_plan(repetitions=1.5), "repetitions must be an integer"),
    (lambda: build_exp2_plan(participants=1.5), "participants must be an integer"),
    (lambda: build_exp2_plan(seed=1.5), "seed must be an integer"),
    (lambda: CalibrationProtocol(max_iters=2.5), "max_iters must be an integer"),
    # bool is an int subclass, and JSON's true and false load as bools.
    (lambda: CalibrationProtocol(max_iters=True), "max_iters must be an integer, got True"),
    (lambda: build_exp3_plan(repetitions=True), "repetitions must be an integer, got True"),
    (lambda: build_exp2_plan(seed=False), "seed must be an integer, got False"),
    (lambda: CalibrationProtocol(sensor_resolution=True), "sensor_resolution must be"),
    (lambda: ParticipantModel(gain=True), "gain must be a finite number, got True"),
    (lambda: run_pipeline(build_exp3_plan(participants=1), jitter=-0.5), "jitter"),
    (lambda: run_pipeline(build_exp3_plan(participants=1), jitter=math.nan), "jitter"),
    (lambda: run_pipeline(build_exp3_plan(participants=1), jitter=1.0), "jitter"),
    # Checked on the call, before any participant is calibrated.
    (lambda: run_participants(build_exp3_plan(participants=1), jitter=1.0), "jitter"),
    (lambda: CalibrationProtocol(max_iters=0), "max_iters"),
    (lambda: CalibrationProtocol(sensor_resolution=math.nan), "sensor_resolution"),
    (lambda: CalibrationProtocol(sensor_resolution=-0.01), "sensor_resolution"),
    (lambda: CalibrationProtocol(measurement_noise=-1.0), "measurement_noise"),
    (lambda: CalibrationProtocol(measurement_noise=math.nan), "measurement_noise"),
    (lambda: ParticipantModel(gain=-1.0), "gain"),
    (lambda: ParticipantModel(gain=math.nan), "gain"),
    (lambda: ParticipantModel(hold_time=math.inf), "hold_time"),
    (lambda: ParticipantModel(detect_threshold=-math.inf), "detect_threshold"),
    (lambda: ParticipantModel(slider_lag=math.nan), "slider_lag"),
    (lambda: ParticipantModel(time_constant=0.0), "time_constant"),
    (lambda: ParticipantModel(time_constant=math.nan), "time_constant"),
    (lambda: ParticipantModel(time_constant=math.inf), "time_constant"),
    (lambda: DutyModel("led", 0.5, 0.0, 0.6, 0.6), "duty range"),
    (lambda: invert_duty(DutyModel("led", 0.0, 0.1, 0.0, 1.0), 0.1), "zero-slope"),
    (lambda: analyze_exp2([]), "no records"),
    (lambda: analyze_exp3([TrialRecord(0, 0, "S3_vc-0.16", "S3", -0.16, None)]),
     "every record needs"),
    (lambda: run_experiment(build_exp3_plan(participants=2), lambda i: SkinPlant(),
                            default_participants(2), [exact_models(PlantParams())]),
     "need one participant model"),
    (lambda: compile_schedule(StimulusSpec("S4", -0.16)), "kind must be one of"),
    (lambda: compile_schedule(StimulusSpec("S2", -0.16, drop_duration=0)),
     "drop_duration must be positive"),
    (lambda: SkinPlant().run_span(log_every=0), "log_every"),
    # Explicit ids, the ones these cases were first collected under: an id
    # made from the match string would rename a case whenever a new case
    # repeats its string.
], ids=[f"<lambda>-{name}" for name in (
    "participants", "repetitions", "seed", "repetitions must be an integer",
    "participants must be an integer", "seed must be an integer",
    "max_iters must be an integer", "max_iters must be an integer, got True",
    "repetitions must be an integer, got True", "seed must be an integer, got False",
    "sensor_resolution must be", "gain must be a finite number, got True", "jitter0",
    "jitter1", "jitter2", "jitter3", "max_iters", "sensor_resolution0",
    "sensor_resolution1", "measurement_noise0", "measurement_noise1", "gain0", "gain1",
    "hold_time", "detect_threshold", "slider_lag", "time_constant0", "time_constant1",
    "time_constant2", "duty range", "zero-slope", "no records", "every record needs",
    "need one participant model", "kind must be one of",
    "drop_duration must be positive", "log_every",
    )])
def test_out_of_range_settings_rejected(make, named):
    with pytest.raises(ValidationError, match=named):
        make()


def test_plan_of_more_than_1000_trials_runs_on_distinct_noise():
    # No cap on a participant's trials: 2 x 1,015 presentations of one
    # stimulus on one plant differ only by their response noise, and no
    # two draw the same.
    spec = StimulusSpec("S3", -0.16, duration=1.0)
    plan = ExperimentPlan("exp2", (spec,), repetitions=1015, participants=2, seed=1)
    records = run_experiment(plan, lambda i: SkinPlant(), default_participants(2),
                             [exact_models(PlantParams())] * 2)
    assert [(rec.participant, rec.trial) for rec in records] == [
        (p, t) for p in range(2) for t in range(1015)]
    assert len({rec.slider.values.tobytes() for rec in records}) == 2030


def test_plan_ids_unique():
    plan = build_exp2_plan()
    ids = [stimulus_id(s) for s in plan.stimuli]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("stimuli, named", [
    # Two swings of one S1 share an id: read back, their trials would
    # form one analysis group.
    ((StimulusSpec("S1", -0.16, 0.5, 0.06), StimulusSpec("S1", -0.16, 0.5, 0.03)),
     "stimulus 'S1_vc-0.16_r0.5' is planned 2 times"),
    # A lambda on S2 or S3: read_records would refuse the manifest.
    ((StimulusSpec("S3", -0.08), StimulusSpec("S2", -0.16, 0.5)),
     "stimulus 'S2_vc-0.16' has kind 'S2' and lambda 0.5"),
    ((StimulusSpec("S3", -0.16, 0.5),),
     "stimulus 'S3_vc-0.16' has kind 'S3' and lambda 0.5"),
], ids=["one_id_twice", "s2_lambda", "s3_lambda"])
def test_plan_rejects_specs_it_cannot_read_back(stimuli, named):
    with pytest.raises(ValidationError, match=re.escape(named)):
        ExperimentPlan("exp2", stimuli, repetitions=2, participants=2, seed=0)


def test_participant_settles_cold():
    model = ParticipantModel()
    slider = simulate_participant(flat_trace(-0.24), model,
                                  np.random.default_rng(0))
    settle = 3 * model.time_constant + model.slider_lag
    assert np.all(slider.values[slider.time >= settle] > 0.9)


def test_participant_settles_warm():
    model = ParticipantModel()
    slider = simulate_participant(flat_trace(0.24), model,
                                  np.random.default_rng(0))
    settle = 3 * model.time_constant + model.slider_lag
    assert np.all(slider.values[slider.time >= settle] < 0.1)


def test_participant_neutral_hovers_at_half():
    model = ParticipantModel()
    slider = simulate_participant(flat_trace(0.0), model,
                                  np.random.default_rng(0))
    tail = slider.values[slider.time >= 1.0]
    assert abs(float(tail.mean()) - 0.5) < 0.01
    assert np.all(np.abs(tail - 0.5) < 5 * model.response_noise)


def test_perceiver_refuses_uneven_trace():
    # run_control ends a 15.004 s presentation with a 4 ms step after the
    # 10 ms grid; the perceiver differentiates with one step, so it refuses
    # that trace, and one with a gap inside, naming the span.
    spec = StimulusSpec("S3", -0.2, duration=15.004)
    plant = SkinPlant(PlantParams())
    trace = run_control(schedule_to_timeline(
        compile_schedule(spec), *exact_models(plant.params)), plant)
    assert trace.time[-2:].tolist() == [15.0, 15.004]
    gap = flat_trace(-0.1)
    gap = Trace(np.delete(gap.time, 700), np.delete(gap.temp, 700))
    for uneven, span in ((trace, "15.004 s, not 1501 steps"), (gap, "15.0 s, not 1499 steps")):
        with pytest.raises(ValidationError, match=f"the trace spans {span} of 0.01 s"):
            perceived_rate(uneven, ParticipantModel())
        with pytest.raises(ValidationError, match="evenly spaced"):
            simulate_participant(uneven, ParticipantModel(), np.random.default_rng(0))
    assert len(perceived_rate(flat_trace(-0.1), ParticipantModel())) == 1501


def test_participant_sample_count_and_range():
    slider = simulate_participant(flat_trace(-0.1), ParticipantModel(),
                                  np.random.default_rng(1))
    assert abs(len(slider.values) - 15 * 100) <= 1
    assert np.all((slider.values >= 0.0) & (slider.values <= 1.0))


def test_zero_poles_give_finite_output():
    # At relax_coeff = 1/DT the plant's Euler decay is 0, and at a 1 us
    # time constant the perceiver's pole exp(-0.01 / 1e-6) is 0: both run
    # first_order at pole 0.
    plant = SkinPlant(PlantParams(relax_coeff=1000.0, noise_sigma=0.01), seed=0)
    temps = plant.run_span(duty_valve=0.55, duty_led=0.3, valve_on=True,
                           led_on=np.array([False, True]),
                           n_steps=np.array([7500, 7500]), log_every=10)
    assert len(temps) == 1500
    assert np.all(np.abs(temps - 24.0) < 0.01)  # pinned at t_neutral
    model = ParticipantModel(time_constant=1e-6)
    trace = Trace(np.arange(1501) * 0.01, np.concatenate([[33.0], temps]))
    rate = np.diff(trace.temp) / 0.01
    assert perceived_rate(trace, model).tolist() == [rate[0], *rate]
    slider = simulate_participant(trace, model, np.random.default_rng(0))
    assert np.isfinite(slider.values).all()


def test_participant_rejects_slow_sampling():
    for t in (np.arange(0.0, 15.1, 0.1),   # 10 Hz
              np.array([0.0]),             # one sample
              np.zeros(1501)):             # time does not increase
        trace = Trace(t, np.full_like(t, 33.0))
        with pytest.raises(ValidationError):
            simulate_participant(trace, ParticipantModel(), np.random.default_rng(0))


def loop_perceived_rate(trace, model):
    """The scalar low-pass that perceived_rate's lfilter replaced, kept as
    its oracle."""
    sample_dt = float(trace.time[1] - trace.time[0])
    temp = np.asarray(trace.temp, dtype=float)
    rate = np.empty_like(temp)
    rate[1:] = np.diff(temp) / sample_dt
    rate[0] = rate[1]
    alpha = 1.0 - math.exp(-sample_dt / model.time_constant)
    smoothed = np.empty_like(rate)
    level = 0.0
    for i in range(len(rate)):
        level += alpha * (rate[i] - level)
        smoothed[i] = level
    return smoothed


def loop_slider(trace, model):
    """The noise-free slider with the scalar hold-and-release loop that
    simulate_participant's running maximum replaced, kept as its oracle."""
    sample_dt = float(trace.time[1] - trace.time[0])
    p = loop_perceived_rate(trace, model)
    felt = np.where(p > 0.0, p * model.warm_attenuation, p)
    felt = np.where(np.abs(felt) >= model.detect_threshold, felt, 0.0)
    raw = 0.5 - 0.5 * np.tanh(model.gain * felt)
    release = math.exp(-sample_dt / model.hold_time) if model.hold_time > 0 else 0.0
    held = np.empty_like(raw)
    prev = 0.5
    for i in range(len(raw)):
        decayed = 0.5 + (prev - 0.5) * release
        prev = raw[i] if abs(raw[i] - 0.5) >= abs(decayed - 0.5) else decayed
        held[i] = prev
    lag_samples = int(round(model.slider_lag / sample_dt))
    lagged = np.full_like(held, 0.5)
    if lag_samples < len(held):
        lagged[lag_samples:] = held[:len(held) - lag_samples]
    return np.clip(lagged, 0.0, 1.0)


# One trace segment: (rate in degC/s, samples, noise in degC/s, noise seed).
# Rate 0 without noise is a flat run, which leaves the perceived rate
# decaying toward 0 and, once in the dead zone, a neutral raw percept;
# equal and opposite rates give raws of equal size and opposite sign
# (exactly 0 and 1 once the gain saturates tanh).
SEGMENT = st.tuples(st.sampled_from([0.0, 0.0, -0.24, 0.24, -0.08, 0.08, -1.0, 1.0])
                    | st.floats(-1.0, 1.0),
                    st.integers(1, 400), st.sampled_from([0.0, 0.0, 0.05, 1.0]),
                    st.integers(0, 2**32 - 1))


def decades(default):
    return st.sampled_from([default / 10, default, 10 * default]) | st.floats(
        default / 10, 10 * default)


# hold_time is bounded above: with a real decay, a later percept of the
# held size wins by k * |log r| after k samples, far above rounding.  Once
# sample_dt / hold_time is below about 1e-16, exp rounds r to 1.0 and
# nothing decays, so a later percept of about the held size and opposite
# sign is decided by rounding alone (rounded held values in the loop,
# logs in the vectorized keys), and the two forms may hold opposite signs.
# 1e-6 s makes r underflow to 0, which must behave as hold_time = 0.
@settings(max_examples=150, deadline=None)
@given(segments=st.lists(SEGMENT, min_size=1, max_size=8),
       hold_time=st.sampled_from([0.0, 1e-6, 0.01, 3.0, 30.0]) | st.floats(0.01, 30.0),
       time_constant=st.sampled_from([0.05, 1.0, 10.0]) | st.floats(0.05, 10.0),
       gain=decades(60.0), warm_attenuation=decades(0.3),
       detect_threshold=decades(0.02), slider_lag=st.sampled_from([0.0, 0.5]))
def test_property_participant_matches_scalar_loops(segments, hold_time, time_constant,
                                                   gain, warm_attenuation,
                                                   detect_threshold, slider_lag):
    steps = [np.full(n, rate * 0.01)
             + noise * 0.01 * np.random.default_rng(seed).standard_normal(n)
             for rate, n, noise, seed in segments]
    temp = 33.0 + np.cumsum(np.concatenate([[0.0], *steps]))
    t = np.arange(len(temp)) * 0.01
    trace = Trace(t, temp)
    model = ParticipantModel(detect_threshold=detect_threshold,
                             time_constant=time_constant, slider_lag=slider_lag,
                             response_noise=0.0, warm_attenuation=warm_attenuation,
                             gain=gain, hold_time=hold_time)
    oracle_rate = loop_perceived_rate(trace, model)
    assert np.max(np.abs(perceived_rate(trace, model) - oracle_rate)) <= 1e-12
    assert peak_cooling_rate(trace, model) == pytest.approx(
        max(0.0, -np.min(oracle_rate)), rel=0, abs=1e-12)
    slider = simulate_participant(trace, model, np.random.default_rng(0))
    assert np.array_equal(slider.time, t)
    assert np.max(np.abs(slider.values - loop_slider(trace, model))) <= 1e-12


def test_participant_zero_hold_time_holds_nothing():
    trace = flat_trace(-0.24, duration=4.0)
    trace.temp[200:] = trace.temp[199] + 0.0024 * np.arange(1, len(trace.temp) - 199)
    model = ParticipantModel(hold_time=0.0, slider_lag=0.0, response_noise=0.0)
    p = perceived_rate(trace, model)
    felt = np.where(p > 0.0, p * model.warm_attenuation, p)
    felt = np.where(np.abs(felt) >= model.detect_threshold, felt, 0.0)
    raw = 0.5 - 0.5 * np.tanh(model.gain * felt)
    assert np.array_equal(
        simulate_participant(trace, model, np.random.default_rng(0)).values, raw)
    assert np.any(raw == 0.5)  # the dead zone while the rate turns over


def test_persistence_window():
    t = np.round(np.arange(0.0, 15.005, 0.01), 10)
    steady = SliderTrace(t, np.full_like(t, 0.8))
    assert summarize_sliders([steady])[0][0]
    dip_mid = np.full_like(t, 0.8)
    dip_mid[np.abs(t - 10.0) < 0.05] = 0.4
    assert not summarize_sliders([SliderTrace(t, dip_mid)])[0][0]
    dip_early = np.full_like(t, 0.8)
    dip_early[np.abs(t - 3.0) < 0.05] = 0.3
    assert summarize_sliders([SliderTrace(t, dip_early)])[0][0]
    short = SliderTrace(t[:500], np.full(500, 0.9))
    empty = SliderTrace(t[:0], np.empty(0))
    for slider in (short, empty):
        with pytest.raises(ValidationError):
            summarize_sliders([slider])


def summarize_one_by_one(sliders):
    """The per-slider summary that summarize_sliders batches: a window
    mask per slider, then np.all and np.mean on its own values."""
    lo, hi = PERSISTENCE_WINDOW
    flags, confidence = [], []
    for slider in sliders:
        mask = (slider.time >= lo) & (slider.time <= hi)
        flags.append(bool(np.all(slider.values[mask] > 0.5)))
        confidence.append(float(np.mean(slider.values)) * 100.0)
    return flags, confidence


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(
           st.tuples(st.integers(1501, 3001), st.integers(1, 6),
                     st.sampled_from(("copies", "views", "read-only views"))),
           min_size=1, max_size=4),
       solos=st.lists(st.integers(1501, 3001), max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_property_summarize_sliders_matches_one_by_one(blocks, solos, seed):
    # blocks: (samples, rows, layout) sharing one time array, whose rows
    # are copies or views of one 2-D array, writeable or not; solos:
    # sliders with a time array of their own.  Every slider covers the
    # 15 s end of the persistence window.
    rng = np.random.default_rng(seed)

    def rows(n, k):
        values = rng.random((k, n))
        above = rng.random(k) < 0.5  # rows that mostly stay above one half
        values[above] = 0.5 + 0.5 * values[above]
        # Exact one-halves, which do not count as above, in some rows.
        values[rng.random((k, n)) < rng.choice([0.0, 0.001, 0.01], (k, 1))] = 0.5
        return values

    sliders = []
    for n, k, layout in blocks:
        time = np.arange(n) / 100
        values = rows(n, k)
        if layout == "read-only views":
            values.flags.writeable = False
        sliders += [SliderTrace(time, row.copy() if layout == "copies" else row)
                    for row in values]
    sliders += [SliderTrace(np.arange(n) / 100, rows(n, 1)[0]) for n in solos]
    sliders = [sliders[i] for i in rng.permutation(len(sliders))]

    flags, confidence = summarize_sliders(sliders)
    want_flags, want_confidence = summarize_one_by_one(sliders)
    assert flags.tolist() == want_flags
    # Bit for bit: every value is finite and non-negative, so == is exact.
    assert confidence.tolist() == want_confidence
    assert [bool(summarize_sliders([s])[0][0])
            for s in sliders[:3]] == want_flags[:3]


def test_summarize_sliders_rejects_ragged_block():
    # Sliders on one time array form one block, so values of another
    # length cannot be a row of it.
    time = np.arange(1501) / 100.0
    with pytest.raises(ValueError):
        summarize_sliders([SliderTrace(time, np.full(1501, 0.7)),
                           SliderTrace(time, np.full(1500, 0.7))])


def test_summarize_read_records_sliders(tmp_path):
    # read_records gives each participant's sliders as the rows, in order,
    # of one array.  Their summary matches the one-by-one summary, in
    # that order and in three others.
    plan, result = small_pipeline(2)
    write_records(pairs(result), plan, tmp_path / "run")
    sliders = [rec.slider for rec in read_records(tmp_path / "run")[0]]
    want = summarize_one_by_one(sliders)
    flags, confidence = summarize_sliders(sliders)
    assert (flags.tolist(), confidence.tolist()) == want
    order = np.random.default_rng(7).permutation(len(sliders))
    for permuted in (order, order[::-1], np.arange(len(sliders))[::-1]):
        flags, confidence = summarize_sliders([sliders[i] for i in permuted])
        assert (flags.tolist(), confidence.tolist()) == (
            [want[0][i] for i in permuted], [want[1][i] for i in permuted])


def small_pipeline(exp, participants=2, seed=3):
    if exp == 2:
        plan = build_exp2_plan(participants=participants, seed=seed)
    else:
        plan = build_exp3_plan(participants=participants, seed=seed)
    return plan, run_pipeline(plan)


def pairs(result):
    """run_pipeline's result as the (calibration, records) pairs, one per
    participant, that write_records takes."""
    return [(calibration, [rec for rec in result.records if rec.participant == pidx])
            for pidx, calibration in enumerate(result.calibrations)]


def exact_calibration():
    """A calibration to pair with records built by hand."""
    return CalibrationResult(*exact_models(PlantParams()), 1, [])


def test_run_experiment_counts_and_fields():
    plan, result = small_pipeline(3)
    assert len(result.records) == 2 * 15
    planned = {stimulus_id(spec): spec for spec in plan.stimuli}
    for rec in result.records:
        assert rec.likert is not None and 1 <= rec.likert <= 7
        assert rec.slider is None
        spec = planned[rec.stimulus_id]
        assert (rec.kind, rec.cooling_rate, rec.cooling_ratio) == (
            spec.kind, spec.cooling_rate, spec.cooling_ratio)


def test_run_experiment_replay_bit_identical():
    _, first = small_pipeline(3)
    _, second = small_pipeline(3)
    for a, b in zip(first.records, second.records):
        assert a.stimulus_id == b.stimulus_id
        assert a.likert == b.likert
        assert np.array_equal(a.trace.temp, b.trace.temp)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_response_noise_is_one_block_per_participant(seed):
    # Each participant's noise is one stream that the trials draw from
    # in turn, so trial k's slider is the noiseless one plus row k of one
    # (trials, samples) draw from (seed, participant, 0x511DE).
    specs = (StimulusSpec("S1", -0.16, 0.5), StimulusSpec("S2", -0.24),
             StimulusSpec("S3", -0.08))
    plan = ExperimentPlan("exp2", specs, repetitions=2, participants=2, seed=seed)
    persons = default_participants(2)
    models = [exact_models(PlantParams())] * 2
    noisy = run_experiment(plan, lambda i: SkinPlant(), persons, models)
    noiseless = run_experiment(plan, lambda i: SkinPlant(),
                               [replace(p, response_noise=0.0) for p in persons], models)
    trials, samples = plan.trials_per_participant, len(noisy[0].slider.values)
    blocks = [np.random.default_rng((seed, pidx, 0x511DE)).normal(
        0.0, persons[pidx].response_noise, (trials, samples)) for pidx in range(2)]
    for rec, quiet in zip(noisy, noiseless):
        assert (rec.participant, rec.trial) == (quiet.participant, quiet.trial)
        want = np.clip(quiet.slider.values + blocks[rec.participant][rec.trial], 0.0, 1.0)
        assert rec.slider.values.tobytes() == want.tobytes()
    assert not np.array_equal(blocks[0], blocks[1])


def test_run_experiment_shuffle_deterministic_and_per_participant():
    plan, result = small_pipeline(3)
    order0 = [r.stimulus_id for r in result.records if r.participant == 0]
    order1 = [r.stimulus_id for r in result.records if r.participant == 1]
    assert sorted(order0) == sorted(order1)
    assert order0 != order1  # same trials, different presentation order
    # The order is drawn from (seed, participant), so it is pinned.
    assert order0 == [
        "S3_vc-0.16", "S2_vc-0.16", "S2_vc-0.16", "S1_vc-0.16_r0.5",
        "S1_vc-0.08_r0.5", "S1_vc-0.16_r0.5", "S1_vc-0.24_r0.5",
        "S1_vc-0.16_r0.5", "S3_vc-0.16", "S1_vc-0.24_r0.5", "S2_vc-0.16",
        "S1_vc-0.24_r0.5", "S1_vc-0.08_r0.5", "S3_vc-0.16", "S1_vc-0.08_r0.5"]


def test_run_experiment_unreachable_carries_stimulus_id():
    params = PlantParams(relax_coeff=0.0)
    models = exact_models(params)
    squeezed = models[1].__class__("led", models[1].slope, models[1].intercept,
                                   0.118, 0.5)
    plan = build_exp3_plan(participants=1)
    with pytest.raises(UnreachableRateError) as info:
        run_experiment(plan, lambda i: SkinPlant(params),
                       default_participants(1), [(models[0], squeezed)])
    assert info.value.stimulus_id is not None
    assert info.value.participant == 0
    # Only participant 1's warm band is too narrow: the error names it.
    plan = build_exp3_plan(participants=2)
    with pytest.raises(UnreachableRateError) as info:
        run_experiment(plan, lambda i: SkinPlant(params), default_participants(2),
                       [models, (models[0], squeezed)])
    assert info.value.stimulus_id is not None
    assert info.value.participant == 1
    assert f"for participant 1, stimulus {info.value.stimulus_id}" in str(info.value)


def reference_pipeline(plan, jitter=0.1):
    """The study in its earlier order: calibrate every plant first, then
    run every trial in one run_experiment call."""
    plants, calibrations = [], []
    for pidx in range(plan.participants):
        rng = np.random.default_rng((plan.seed, pidx, 0x71A))
        plant = SkinPlant(perturb_params(PlantParams(), rng, rel=jitter),
                          seed=(plan.seed, pidx, 0x5EED))
        calibrations.append(coldsim.experiment.calibrate(plant))
        plants.append(plant)
    records = run_experiment(
        plan, lambda i: plants[i], default_participants(plan.participants, plan.seed),
        [(c.valve, c.led) for c in calibrations])
    return records, calibrations


@pytest.mark.parametrize("build", [build_exp2_plan, build_exp3_plan])
def test_pipeline_matches_calibrate_all_first_order(build, tmp_path):
    plan = build(participants=2, repetitions=1, seed=5)
    want_records, want_calibrations = reference_pipeline(plan)
    got = run_pipeline(plan)
    assert len(got.records) == len(want_records) == 2 * plan.trials_per_participant
    for rec, want in zip(got.records, want_records):
        assert (rec.participant, rec.trial, rec.stimulus_id, rec.likert) == (
            want.participant, want.trial, want.stimulus_id, want.likert)
        assert rec.trace.temp.tobytes() == want.trace.temp.tobytes()
        assert (rec.slider is None) == (want.slider is None) == (plan.experiment == "exp3")
        if rec.slider is not None:
            assert rec.slider.values.tobytes() == want.slider.values.tobytes()
    assert len(got.calibrations) == len(want_calibrations) == 2
    for idx, (calibration, want) in enumerate(zip(got.calibrations, want_calibrations)):
        calibration.to_json(tmp_path / f"got_{idx}.json")
        want.to_json(tmp_path / f"want_{idx}.json")
        assert (tmp_path / f"got_{idx}.json").read_bytes() == \
            (tmp_path / f"want_{idx}.json").read_bytes()
        assert (calibration.valve, calibration.led) == (want.valve, want.led)


def test_perturb_params_keeps_grid_reachable():
    base = PlantParams()
    for i in range(50):
        rng = np.random.default_rng(i)
        params = perturb_params(base, rng)
        assert params.led_gain * 0.902 + params.led_bias >= 0.495
        assert params.valve_gain * 0.490 + params.valve_bias >= -0.08
        assert params.valve_gain * 0.601 + params.valve_bias <= -0.24


def test_perturb_params_rejects_near_impossible_led():
    # The top warm anchor is 0.45 degC/s, and about one draw of the 10 %
    # jitter in 10**8 lifts it to the 0.495 degC/s headroom: fewer than
    # one in 10**6, so perturb_params raises instead of re-drawing.
    weak = PlantParams(led_gain=0.5567627504535375)
    with pytest.raises(UnreachableRateError) as info:
        perturb_params(weak, np.random.default_rng(0))
    assert (info.value.channel, info.value.target_rate) == ("led", 0.495)
    # Without jitter the one value passes or raises.
    with pytest.raises(UnreachableRateError):
        perturb_params(weak, np.random.default_rng(0), rel=0.0)
    params = perturb_params(PlantParams(), np.random.default_rng(0), rel=0.0)
    assert params.led_gain * 0.902 + params.led_bias >= 0.495


def count_stats_calls(monkeypatch) -> Counter:
    """Count calls to the stats functions the analyses look up on
    coldsim.experiment."""
    calls = Counter()
    for name in ("kruskal_wallis", "wilcoxon_rank_sum", "benjamini_hochberg"):
        def counted(*args, _name=name, _fn=getattr(coldsim.experiment, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(coldsim.experiment, name, counted)
    return calls


def test_analyze_exp2_shapes_and_recount(monkeypatch):
    plan, result = small_pipeline(2)
    calls = count_stats_calls(monkeypatch)
    report = analyze_exp2(result.records)
    assert calls == {"kruskal_wallis": 4, "wilcoxon_rank_sum": 15,
                     "benjamini_hochberg": 1}
    assert report.kruskal_wallis["s1_by_ratio"].df == 4
    assert report.kruskal_wallis["s1_by_rate"].df == 4
    assert (report.kruskal_wallis["s2_by_rate"].df == 4
            and report.kruskal_wallis["s3_by_rate"].df == 4)
    assert len(report.pairwise_by_rate) == 15
    assert all(c.p_adjusted >= c.p_value - 1e-15 for c in report.pairwise_by_rate)
    # persistence percentages equal a brute-force recount
    for sid, pct in report.persistence_trial_pct.items():
        flags, _ = summarize_one_by_one(
            [r.slider for r in result.records if r.stimulus_id == sid])
        assert pct == pytest.approx(100.0 * sum(flags) / len(flags))
        assert 0.0 <= pct <= 100.0


def test_analyze_exp2_participant_pooling():
    plan, result = small_pipeline(2)
    report = analyze_exp2(result.records, pooling="participants")
    assert report.kruskal_wallis["s1_by_rate"].df == 4
    with pytest.raises(ValidationError):
        analyze_exp2(result.records, pooling="bananas")


def test_analyze_exp2_identical_traces_degenerate():
    plan, result = small_pipeline(2)
    t = result.records[0].slider.time
    for rec in result.records:
        rec.slider = SliderTrace(t, np.full_like(t, 0.75))
    report = analyze_exp2(result.records)
    assert report.kruskal_wallis["s1_by_ratio"].statistic == 0.0
    assert report.kruskal_wallis["s1_by_rate"].statistic == 0.0
    assert report.kruskal_wallis["s1_by_rate"].p_value == 1.0


def test_analyze_exp3_shapes(monkeypatch):
    plan, result = small_pipeline(3)
    calls = count_stats_calls(monkeypatch)
    report = analyze_exp3(result.records)
    assert calls == {"kruskal_wallis": 1, "wilcoxon_rank_sum": 10,
                     "benjamini_hochberg": 1}
    assert report.kruskal_wallis.df == 4
    assert len(report.pairwise) == 10
    assert all(c.p_adjusted >= c.p_value - 1e-15 for c in report.pairwise)


@pytest.mark.parametrize("pooling", ["trials", "participants"])
def test_pairwise_rows_equal_direct_rank_sums(pooling):
    # Each analysis reports one row per documented pair, in pair order:
    # the rank-sum p-value of the two groups, and the family's p-values
    # adjusted in one Benjamini-Hochberg call.  exp2 pairs the kinds at
    # each rate, rates ascending, named kind@rate; exp3 pairs the sorted
    # stimulus ids a < b, named by id.
    def grouped(records, values, key):
        by_participant = {}
        for rec, value in zip(records, values):
            by_participant.setdefault(key(rec), {}).setdefault(
                rec.participant, []).append(value)
        if pooling == "trials":
            return {k: sum(by_p.values(), []) for k, by_p in by_participant.items()}
        return {k: [sum(vs) / len(vs) for _, vs in sorted(by_p.items())]
                for k, by_p in by_participant.items()}

    def rows(groups, pairs, labels):
        raw = [wilcoxon_rank_sum(groups[a], groups[b]).p_value for a, b in pairs]
        return [(*names, p, q)
                for names, p, q in zip(labels, raw, benjamini_hochberg(raw))]

    _, result = small_pipeline(2)
    _, confidence = summarize_one_by_one([rec.slider for rec in result.records])
    by_rate = grouped(result.records, confidence, attrgetter("kind", "cooling_rate"))
    pairs = [((a, rate), (b, rate)) for rate in sorted(EXP2_RATES)
             for a, b in (("S1", "S2"), ("S1", "S3"), ("S2", "S3"))]
    want = rows(by_rate, pairs,
                [(f"{a}@{rate}", f"{b}@{rate}") for (a, rate), (b, _) in pairs])
    assert want[0][:2] == ("S1@-0.24", "S2@-0.24") and len(want) == 15
    report = analyze_exp2(result.records, pooling)
    assert [astuple(c) for c in report.pairwise_by_rate] == want

    _, result = small_pipeline(3)
    groups = grouped(result.records, [float(rec.likert) for rec in result.records],
                     attrgetter("stimulus_id"))
    pairs = list(itertools.combinations(sorted(groups), 2))
    want = rows(groups, pairs, pairs)
    assert len(want) == 10
    assert [astuple(c) for c in analyze_exp3(result.records, pooling).pairwise] == want


def test_benchmark_patch_targets_exist():
    path = Path(__file__).resolve().parents[1] / "coldbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("coldbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.PATCHED.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_analyze_exp3_identical_ratings():
    plan, result = small_pipeline(3)
    for rec in result.records:
        rec.likert = 4
    report = analyze_exp3(result.records)
    assert report.kruskal_wallis.p_value == 1.0
    assert len(report.pairwise) == 10
    assert all(c.p_value == 1.0 for c in report.pairwise)


def test_record_round_trip(tmp_path):
    # The tables hold each trial's id and likert; the plan in the manifest
    # gives back every other field, and the slider arrays every bit.
    fields = attrgetter("participant", "trial", "stimulus_id", "kind", "cooling_rate",
                        "cooling_ratio", "likert")
    for exp, analyze in ((2, analyze_exp2), (3, analyze_exp3)):
        plan, result = small_pipeline(exp)
        out = tmp_path / f"exp{exp}"
        write_records(pairs(result), plan, out)
        loaded, manifest = read_records(out)
        assert (manifest["experiment"], manifest["format_version"]) == (f"exp{exp}", 5)
        assert ([repr(fields(rec)) for rec in loaded]
                == [repr(fields(rec)) for rec in result.records])
        assert any(rec.cooling_ratio is None for rec in loaded)
        for rec, twin in zip(result.records, loaded):
            assert (rec.slider is None) == (twin.slider is None) == (exp == 3)
            if exp == 2:
                assert twin.slider.time.tobytes() == rec.slider.time.tobytes()
                assert twin.slider.values.tobytes() == rec.slider.values.tobytes()
        # Analysis of the reloaded records, whose sliders share one time
        # array per participant, matches the in-memory one, where each has
        # its own.
        if exp == 2:
            assert len({id(r.slider.time) for r in loaded}) == 2
        for pooling in ("trials", "participants"):
            assert (asdict(analyze(loaded, pooling))
                    == asdict(analyze(result.records, pooling)))


def test_read_records_sliders_copy_on_write(tmp_path):
    # read_records maps the run's slider array: its rows are views of the
    # file's pages, and writing to one changes that record only, not the file.
    plan, result = small_pipeline(2)
    write_records(pairs(result), plan, tmp_path / "run")
    path = tmp_path / "run" / "sliders.npy"
    saved = path.read_bytes()
    loaded, _ = read_records(tmp_path / "run")
    assert loaded[0].slider.values.base is loaded[1].slider.values.base
    loaded[0].slider.values[:] = 0.25
    assert path.read_bytes() == saved
    again, _ = read_records(tmp_path / "run")
    assert again[0].slider.values.tobytes() == result.records[0].slider.values.tobytes()


def test_temperature_csvs_round_trip(tmp_path):
    # Nothing in coldsim reads these files back; check the contract here:
    # csv.writer's bytes, and fields that parse back to the same floats.
    plan, result = small_pipeline(2)
    out = tmp_path / "run"
    write_records(pairs(result), plan, out)
    for rec in result.records:
        path = out / "traces" / f"p{rec.participant:02d}_t{rec.trial:03d}_temp.csv"
        oracle_trace_csv(rec.trace, tmp_path / "oracle.csv")
        data = path.read_bytes()
        assert data == (tmp_path / "oracle.csv").read_bytes()
        header, *rows = data.decode().split("\r\n")[:-1]
        assert header == "time_s,temp_c"
        time, temp = np.array([[float(f) for f in row.split(",")] for row in rows]).T
        assert time.tobytes() == rec.trace.time.tobytes()
        assert temp.tobytes() == rec.trace.temp.tobytes()


@pytest.fixture
def two_cpus(monkeypatch):
    # Two trace workers for a two-participant plan on any host.
    monkeypatch.setattr(coldsim.experiment, "_usable_cpus", lambda: 2)


@pytest.fixture
def no_pool(monkeypatch, two_cpus):
    def refuse(*args, **kwargs):
        raise AssertionError("a trace worker pool was started")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


def test_write_records_worker_error_reaches_caller(tmp_path, two_cpus):
    # A worker cannot write a trace over a directory; its OSError names
    # the file, and write_records raises it only once every worker is done.
    plan, result = small_pipeline(2)
    out = tmp_path / "run"
    (out / "traces" / "p00_t000_temp.csv").mkdir(parents=True)
    with pytest.raises(OSError, match="p00_t000_temp.csv"):
        write_records(pairs(result), plan, out)
    assert not (out / "manifest.json").exists()
    assert multiprocessing.active_children() == []


def test_write_records_caller_error_waits_for_workers(tmp_path, two_cpus):
    # The records stop with a calibration failure while participant 0's
    # traces are being written: the same error arrives, after the workers
    # have finished participant 0 and exited.
    plan, result = small_pipeline(2)
    trials = plan.trials_per_participant
    failure = CalibrationError("participant 1: verification drift")

    def participants():
        yield pairs(result)[0]
        # Participant 0's traces were handed over before the next pair
        # was asked for.
        assert multiprocessing.active_children(), "no worker writes participant 0"
        raise failure

    out = tmp_path / "run"
    with pytest.raises(CalibrationError) as info:
        write_records(participants(), plan, out)
    assert info.value is failure
    assert multiprocessing.active_children() == []
    assert len(list((out / "traces").glob("p00_t*_temp.csv"))) == trials
    assert not (out / "manifest.json").exists()


def test_write_records_slider_only_starts_no_worker(tmp_path, no_pool):
    plan, result = small_pipeline(2)
    for rec in result.records:
        rec.trace = None
    write_records(pairs(result), plan, tmp_path / "run")
    assert not list((tmp_path / "run" / "traces").glob("*_temp.csv"))


def test_typed_errors_survive_pickle():
    # Errors must cross a process boundary whole: type, message and fields.
    unreachable = UnreachableRateError("led", 0.495, 0.4, 0.49).located(
        segment_index=3, stimulus_id="S1_vc-0.08_r0.1", participant=2)
    calibration = CalibrationError("verification drift", report=[{"round": 1}])
    for exc in (UnreachableRateError("led", 0.495, 0.4, 0.49), unreachable,
                calibration, ValidationError("jitter must lie in [0, 1)")):
        again = pickle.loads(pickle.dumps(exc))
        assert type(again) is type(exc) and str(again) == str(exc)
        assert vars(again) == vars(exc)
    assert pickle.loads(pickle.dumps(calibration)).report == [{"round": 1}]


def test_write_records_rejects_partial_sliders(tmp_path):
    # read_records rebuilds a run's sliders from one array with a row per
    # trial, so a trial without a slider among ones with a slider cannot
    # be stored, whichever participant holds it.
    specs = [StimulusSpec("S3", rate) for rate in (-0.08, -0.16)]
    plan = ExperimentPlan("exp2", tuple(specs), repetitions=1, participants=2,
                          seed=0)
    result = run_pipeline(plan)
    # (participant, its trials without a slider, the error)
    cases = [(0, [0], "participant 0 trial 0: no slider"),
             (1, [0, 1], "participant 1 trial 0: no slider"),  # participant 0 has sliders
             (0, [0, 1], "participant 1 trial 0: a slider")]  # participant 0 has none
    for k, (pidx, trials, named) in enumerate(cases):
        given = pairs(result)
        records = given[pidx][1]
        for tidx in trials:
            records[tidx] = replace(records[tidx], slider=None)
        with pytest.raises(ValidationError, match=named):
            write_records(given, plan, tmp_path / f"run{k}")


def test_write_records_checks_each_record_against_the_plan(tmp_path):
    # A table keeps only each trial's stimulus id and likert, so a record
    # whose stimulus, kind, rate or ratio the plan does not give
    # would read back as another record: write_records refuses it, naming
    # the participant and trial, and writes neither its table nor the
    # manifest.  It refuses in the same way, naming the participant, a table
    # read_records would refuse: a trial twice and one missing, or a likert
    # that is not an integer from 1 to 7.
    plan, result = small_pipeline(3)
    for field, value in (("stimulus_id", "S1_vc-0.5_r0.5"), ("kind", "S3"),
                         ("cooling_rate", -0.5), ("cooling_ratio", 0.3),
                         ("trial", 0), ("likert", 9), ("likert", 0),
                         ("likert", 4.0), ("likert", True)):
        given = pairs(result)
        records = given[1][1]
        k = next(k for k, rec in enumerate(records) if rec.kind == "S1" and rec.trial)
        trial = records[k].trial
        records[k] = replace(records[k], **{field: value})
        out = tmp_path / f"{field}_{value}"
        named = {"trial": r"^participant 1: 15 rows, not the manifest's trials 0 to 14",
                 "likert": rf"^participant 1: trial {trial} has likert {value!r}, "
                           rf"not an integer from 1 to 7$"}.get(
            field, rf"^participant 1 trial {trial}: ")
        with pytest.raises(ValidationError, match=named):
            write_records(given, plan, out, traces=False)
        with open(out / "trials.csv", newline="") as fh:
            assert [row[0] for row in csv.reader(fh)][1:] == ["0"] * 15
        assert not (out / "manifest.json").exists()


def test_write_records_takes_numpy_integer_counts(tmp_path):
    # The plan keeps its counts and seed as plain ints, so the manifest
    # of a plan built from numpy integers is JSON.
    plan = build_exp3_plan(participants=1, repetitions=np.int64(1), seed=np.int64(1))
    assert all(type(value) is int
               for value in (plan.participants, plan.repetitions, plan.seed))
    write_records(run_participants(plan), plan, tmp_path / "run", traces=False)
    records, manifest = read_records(tmp_path / "run")
    assert (manifest["participants"], manifest["repetitions"], manifest["seed"]) == (1, 1, 1)
    assert len(records) == plan.trials_per_participant


def test_write_records_rejects_off_grid_slider(tmp_path):
    # A slider that ends off the 100 Hz grid, 5 ms after its last grid
    # sample: read_records could not rebuild its time, so write_records
    # refuses it.
    spec = StimulusSpec("S3", -0.16, duration=2.005)
    plan = ExperimentPlan("exp2", (spec,), repetitions=1, participants=1, seed=0)
    time = np.append(np.arange(201) / 100.0, 2.005)
    record = TrialRecord(participant=0, trial=0, stimulus_id=stimulus_id(spec),
                         kind=spec.kind, cooling_rate=spec.cooling_rate,
                         cooling_ratio=spec.cooling_ratio,
                         slider=SliderTrace(time, np.full(len(time), 0.5)))
    with pytest.raises(ValidationError, match="participant 0 trial 0"):
        write_records([(exact_calibration(), [record])], plan, tmp_path / "run")


def test_write_records_trial_order_and_lazy_pairs(tmp_path):
    # Within a participant, any trial order is written in trial order, and
    # pairs from a generator give the same files as from a list.
    plan, result = small_pipeline(3)
    (cal0, first), (cal1, second) = pairs(result)
    write_records([(cal0, first[::-1]), (cal1, second)], plan, tmp_path / "listed")
    write_records((pair for pair in pairs(result)), plan, tmp_path / "streamed")
    listed = sorted(p.relative_to(tmp_path / "listed")
                    for p in (tmp_path / "listed").rglob("*"))
    assert listed == sorted(p.relative_to(tmp_path / "streamed")
                            for p in (tmp_path / "streamed").rglob("*"))
    for name in listed:
        if (tmp_path / "listed" / name).is_file():
            assert ((tmp_path / "listed" / name).read_bytes()
                    == (tmp_path / "streamed" / name).read_bytes()), name


@pytest.mark.parametrize("given", [1, 3])
def test_write_records_rejects_wrong_participant_count(tmp_path, given):
    # A manifest over fewer participants than the plan names files that
    # are missing, and files past the plan are never read: either way no
    # manifest is written.  The pairs come from a 3-participant run with
    # the plan's seed, so each one passes the per-record checks.
    plan = build_exp3_plan(participants=2, seed=3)
    _, result = small_pipeline(3, participants=3)
    with pytest.raises(ValidationError, match=rf"^{given} \(calibration, records\) "
                       rf"pairs given for a plan of {plan.participants} participants"):
        write_records(pairs(result)[:given], plan, tmp_path / "run")
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_write_records_holds_one_participant_at_a_time(tmp_path):
    # Each pair's records are dropped before the next pair is asked for,
    # so run_participants simulates participant k+1 while nothing holds
    # participant k's records.
    plan = build_exp3_plan(participants=3, repetitions=1, seed=3)
    checked = []

    def one_at_a_time():
        source = run_participants(plan)
        previous = None
        for _ in range(plan.participants):
            if previous is not None:
                gc.collect()
                assert previous() is None, "the previous participant's records live on"
                checked.append(previous)
            calibration, records = next(source)
            previous = weakref.ref(records[0])
            yield calibration, records
            del calibration, records

    write_records(one_at_a_time(), plan, tmp_path / "run")
    assert len(checked) == plan.participants - 1
    assert len(read_records(tmp_path / "run")[0]) == 3 * plan.trials_per_participant


def test_write_records_makes_traces_dir_only_for_files(tmp_path):
    plan, result = small_pipeline(3)  # exp3: ratings, no sliders
    write_records(pairs(result), plan, tmp_path / "bare", traces=False)
    assert sorted(p.name for p in (tmp_path / "bare").iterdir()) == [
        "manifest.json", "models_00.json", "models_01.json", "trials.csv"]
    write_records(pairs(result), plan, tmp_path / "traced")
    assert len(list((tmp_path / "traced" / "traces").iterdir())) == 2 * 15
    # exp2's slider array lies at the run root, not in traces/.
    plan, result = small_pipeline(2)
    write_records(pairs(result), plan, tmp_path / "sliders", traces=False)
    assert sorted(p.name for p in (tmp_path / "sliders").iterdir()) == [
        "manifest.json", "models_00.json", "models_01.json", "sliders.npy",
        "trials.csv"]


# Slider samples at and next to the edges of [0, 1], including subnormals.
EDGE_SAMPLES = (0.0, 5e-324, np.nextafter(5e-324, 1.0), 2.2250738585072014e-308,
                np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
                np.nextafter(1.0, 0.0), 1.0)


@st.composite
def slider_runs(draw):
    """(participants, samples, one slider value array per trial)."""
    participants = draw(st.integers(1, 2))
    samples = draw(st.integers(2, 40))
    trials = draw(st.integers(1, 4))
    sample = st.one_of(st.floats(0.0, 1.0, allow_subnormal=True),
                       st.sampled_from(EDGE_SAMPLES))
    values = [[np.array(draw(st.lists(sample, min_size=samples, max_size=samples)))
               for _ in range(trials)] for _ in range(participants)]
    return participants, samples, values


@settings(max_examples=40)
@given(slider_runs())
def test_property_slider_round_trip_bit_identical(run):
    participants, samples, values = run
    # A plan of as many stimuli as each participant has trials, so each
    # table holds every planned trial, as read_records requires.
    stimuli = build_exp2_plan().stimuli[:len(values[0])]
    plan = ExperimentPlan("exp2", stimuli, repetitions=1, participants=participants,
                          seed=0)
    time = np.arange(samples) / 100.0
    groups = []
    for pidx, trials in enumerate(values):
        groups.append([])
        for tidx, vals in enumerate(trials):
            spec = plan.stimuli[tidx]
            groups[-1].append(TrialRecord(
                participant=pidx, trial=tidx,
                stimulus_id=stimulus_id(spec), kind=spec.kind,
                cooling_rate=spec.cooling_rate, cooling_ratio=spec.cooling_ratio,
                slider=SliderTrace(time, vals)))
    records = [rec for group in groups for rec in group]
    with tempfile.TemporaryDirectory() as tmp:
        write_records([(exact_calibration(), group) for group in groups], plan, tmp)
        loaded, _ = read_records(tmp)
    assert [(r.participant, r.trial) for r in loaded] == [
        (r.participant, r.trial) for r in records]
    for rec, twin in zip(records, loaded):
        assert twin.slider.time.tobytes() == rec.slider.time.tobytes()
        assert twin.slider.values.tobytes() == rec.slider.values.tobytes()
