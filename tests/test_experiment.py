"""Plans, the synthetic participant, the runner, and the analyses."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coldsim import (ParticipantModel, PlantParams, SkinPlant, SliderTrace,
                     UnreachableRateError, ValidationError, analyze_exp2,
                     analyze_exp3, build_exp2_plan, build_exp3_plan,
                     default_participants, exact_models, persistence,
                     run_experiment, simulate_participant)
from coldsim.experiment import (EXP2_RATIOS, EXP3_BASE_RATE, EXP3_RATES,
                                TrialRecord, perturb_params, read_records,
                                run_pipeline, write_records)
from coldsim.pattern import stimulus_id
from coldsim.plant import Trace


def flat_trace(rate=0.0, duration=15.0, start=33.0):
    t = np.round(np.arange(0.0, duration + 0.005, 0.01), 10)
    temp = start + rate * t
    zeros = np.zeros_like(t)
    off = np.zeros_like(t, dtype=bool)
    return Trace(t, temp, zeros, zeros, off, off)


def test_exp2_plan_shape():
    plan = build_exp2_plan()
    assert len(plan.stimuli) == 35
    assert plan.trials_per_participant == 105
    kinds = [s.spec.kind for s in plan.stimuli]
    assert kinds.count("S1") == 25 and kinds.count("S2") == 5 and kinds.count("S3") == 5
    s1_rates = sorted({s.spec.cooling_rate for s in plan.stimuli
                       if s.spec.kind == "S1"})
    assert s1_rates == [-0.24, -0.2, -0.16, -0.12, -0.08]
    assert len(s1_rates) - 1 == 4  # five levels, df = 4 in the rate test
    assert sorted({s.spec.cooling_ratio for s in plan.stimuli
                   if s.spec.kind == "S1"}) == list(EXP2_RATIOS)
    assert all(s.spec.swing == 0.06 and s.spec.duration == 15.0
               for s in plan.stimuli)
    assert all(s.spec.drop_duration == 5.0 for s in plan.stimuli
               if s.spec.kind == "S2")


def test_exp3_plan_shape():
    plan = build_exp3_plan()
    assert len(plan.stimuli) == 5
    assert plan.trials_per_participant == 15
    s1 = [s.spec for s in plan.stimuli if s.spec.kind == "S1"]
    assert all(spec.cooling_ratio == 0.5 for spec in s1)
    assert [spec.cooling_rate for spec in s1] == list(EXP3_RATES) == [
        -0.08, -0.16, -0.24]
    assert [s.spec.cooling_rate for s in plan.stimuli
            if s.spec.kind in ("S2", "S3")] == [EXP3_BASE_RATE] * 2 == [-0.16] * 2


def test_plan_ids_unique():
    plan = build_exp2_plan()
    ids = [s.stimulus_id for s in plan.stimuli]
    assert len(set(ids)) == len(ids)


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


def test_participant_sample_count_and_range():
    slider = simulate_participant(flat_trace(-0.1), ParticipantModel(),
                                  np.random.default_rng(1))
    assert abs(len(slider.values) - 15 * 100) <= 1
    assert np.all((slider.values >= 0.0) & (slider.values <= 1.0))


def test_participant_rejects_slow_sampling():
    for t in (np.arange(0.0, 15.1, 0.1),   # 10 Hz
              np.array([0.0]),             # one sample
              np.zeros(1501)):             # time does not increase
        trace = Trace(t, np.full_like(t, 33.0), t * 0, t * 0,
                      np.zeros_like(t, dtype=bool), np.zeros_like(t, dtype=bool))
        with pytest.raises(ValidationError):
            simulate_participant(trace, ParticipantModel())


def test_persistence_window():
    t = np.round(np.arange(0.0, 15.005, 0.01), 10)
    steady = SliderTrace(t, np.full_like(t, 0.8))
    assert persistence(steady)
    dip_mid = np.full_like(t, 0.8)
    dip_mid[np.abs(t - 10.0) < 0.05] = 0.4
    assert not persistence(SliderTrace(t, dip_mid))
    dip_early = np.full_like(t, 0.8)
    dip_early[np.abs(t - 3.0) < 0.05] = 0.3
    assert persistence(SliderTrace(t, dip_early))
    short = SliderTrace(t[:500], np.full(500, 0.9))
    with pytest.raises(ValidationError):
        persistence(short)


def small_pipeline(exp, participants=2, seed=3):
    if exp == 2:
        plan = build_exp2_plan(participants=participants, seed=seed)
    else:
        plan = build_exp3_plan(participants=participants, seed=seed)
    return plan, run_pipeline(plan)


def test_run_experiment_counts_and_fields():
    plan, result = small_pipeline(3)
    assert len(result.records) == 2 * 15
    for rec in result.records:
        assert rec.likert is not None and 1 <= rec.likert <= 7
        assert rec.slider is None
        assert rec.stimulus_id == stimulus_id(
            next(s.spec for s in plan.stimuli if s.stimulus_id == rec.stimulus_id))


def test_run_experiment_replay_bit_identical():
    _, first = small_pipeline(3)
    _, second = small_pipeline(3)
    for a, b in zip(first.records, second.records):
        assert a.stimulus_id == b.stimulus_id and a.seed == b.seed
        assert a.likert == b.likert
        assert np.array_equal(a.trace.temp, b.trace.temp)


def test_run_experiment_shuffle_deterministic_and_per_participant():
    plan, result = small_pipeline(3)
    order0 = [r.stimulus_id for r in result.records if r.participant == 0]
    order1 = [r.stimulus_id for r in result.records if r.participant == 1]
    assert sorted(order0) == sorted(order1)
    assert order0 != order1  # same trials, different presentation order


def test_run_experiment_unreachable_carries_stimulus_id():
    plan = build_exp3_plan(participants=1)
    params = PlantParams(relax_coeff=0.0)
    models = exact_models(params)
    squeezed = models[1].__class__("led", models[1].slope, models[1].intercept,
                                   0.118, 0.5)
    with pytest.raises(UnreachableRateError) as info:
        run_experiment(plan, lambda i: SkinPlant(params),
                       default_participants(1), [(models[0], squeezed)])
    assert info.value.stimulus_id is not None


def test_perturb_params_keeps_grid_reachable():
    base = PlantParams()
    for i in range(50):
        rng = np.random.default_rng(i)
        params = perturb_params(base, rng)
        assert params.led_gain * 0.902 + params.led_bias >= 0.495
        assert params.valve_gain * 0.490 + params.valve_bias >= -0.08
        assert params.valve_gain * 0.601 + params.valve_bias <= -0.24


def test_analyze_exp2_shapes_and_recount():
    plan, result = small_pipeline(2)
    report = analyze_exp2(result.records)
    assert report.kw_ratio_s1.df == 4
    assert report.kw_rate_s1.df == 4
    assert report.kw_rate_s2.df == 4 and report.kw_rate_s3.df == 4
    assert len(report.pairwise_by_rate) == 15
    assert all(c.p_adjusted >= c.p_value - 1e-15 for c in report.pairwise_by_rate)
    # persistence percentages equal a brute-force recount
    for sid, pct in report.persistence_trial_pct.items():
        flags = [persistence(r.slider) for r in result.records
                 if r.stimulus_id == sid]
        assert pct == pytest.approx(100.0 * sum(flags) / len(flags))
        assert 0.0 <= pct <= 100.0


def test_analyze_exp2_participant_pooling():
    plan, result = small_pipeline(2)
    report = analyze_exp2(result.records, pooling="participants")
    assert report.kw_rate_s1.df == 4
    with pytest.raises(ValidationError):
        analyze_exp2(result.records, pooling="bananas")


def test_analyze_exp2_identical_traces_degenerate():
    plan, result = small_pipeline(2)
    t = result.records[0].slider.time
    for rec in result.records:
        rec.slider = SliderTrace(t, np.full_like(t, 0.75))
    report = analyze_exp2(result.records)
    assert report.kw_ratio_s1.statistic == 0.0
    assert report.kw_rate_s1.statistic == 0.0
    assert report.kw_rate_s1.p_value == 1.0


def test_analyze_exp3_shapes():
    plan, result = small_pipeline(3)
    report = analyze_exp3(result.records)
    assert report.kw_stimulus.df == 4
    ids = sorted(report.mean_rating)
    for a in ids:
        for b in ids:
            if a == b:
                continue
            assert report.pairwise_adjusted[a][b] == report.pairwise_adjusted[b][a]
            assert report.pairwise_adjusted[a][b] >= report.pairwise_raw[a][b] - 1e-15


def test_analyze_exp3_identical_ratings():
    plan, result = small_pipeline(3)
    for rec in result.records:
        rec.likert = 4
    report = analyze_exp3(result.records)
    assert report.kw_stimulus.p_value == 1.0
    for a, row in report.pairwise_raw.items():
        assert all(p == 1.0 for p in row.values())


def test_record_round_trip(tmp_path):
    plan, result = small_pipeline(2)
    out = tmp_path / "run"
    write_records(result.records, plan, out)
    loaded, manifest = read_records(out)
    assert manifest["experiment"] == "exp2"
    assert len(loaded) == len(result.records)
    by_key = {(r.participant, r.trial): r for r in loaded}
    for rec in result.records:
        twin = by_key[(rec.participant, rec.trial)]
        assert twin.stimulus_id == rec.stimulus_id
        assert twin.cooling_rate == rec.cooling_rate
        assert twin.seed == rec.seed
        assert twin.kind == rec.kind
        assert twin.cooling_ratio == rec.cooling_ratio
        assert twin.likert == rec.likert
        assert np.array_equal(twin.slider.time, rec.slider.time)
        assert np.array_equal(twin.slider.values, rec.slider.values)
    assert any(rec.cooling_ratio is None for rec in loaded)
    # analysis on reloaded records matches the in-memory one
    assert (analyze_exp2(loaded).persistence_trial_pct
            == analyze_exp2(result.records).persistence_trial_pct)


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
    plan = build_exp2_plan(participants=participants, repetitions=1)
    time = np.arange(samples) / 100.0
    records = []
    for pidx, trials in enumerate(values):
        for tidx, vals in enumerate(trials):
            spec = plan.stimuli[tidx].spec
            records.append(TrialRecord(
                participant=pidx, trial=tidx,
                stimulus_id=plan.stimuli[tidx].stimulus_id, kind=spec.kind,
                cooling_rate=spec.cooling_rate, cooling_ratio=spec.cooling_ratio,
                seed=tidx, slider=SliderTrace(time, vals)))
    with tempfile.TemporaryDirectory() as tmp:
        write_records(records, plan, tmp)
        loaded, _ = read_records(tmp)
    assert [(r.participant, r.trial) for r in loaded] == [
        (r.participant, r.trial) for r in records]
    for rec, twin in zip(records, loaded):
        assert twin.slider.time.tobytes() == rec.slider.time.tobytes()
        assert twin.slider.values.tobytes() == rec.slider.values.tobytes()
