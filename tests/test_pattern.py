"""Pattern algebra: derivation, compilation, validation, and invariants."""

import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coldsim import (PlantParams, StimulusSpec, UnreachableRateError,
                     ValidationError, WrongKindError, compile_schedule,
                     derive_pattern, exact_models, invert_duty,
                     schedule_to_timeline, validate_spec)
from coldsim.pattern import Segment, _derive_exact, _exact
from coldsim.plant import DT


def substitution_oracle(vc, lam, swing):
    """Direct numeric substitution, independent of the exact-rational path."""
    tc = swing / -vc
    t = tc / lam
    vr = swing / (t - tc)
    return tc, t, vr, vr - vc


def test_derive_worked_example():
    dp = derive_pattern(StimulusSpec("S1", -0.1, 0.5, 0.06))
    assert dp.cooling_time == pytest.approx(0.6, abs=1e-9)
    assert dp.cycle_time == pytest.approx(1.2, abs=1e-9)
    assert dp.warm_rate == pytest.approx(0.2, abs=1e-9)


def test_derive_direct_substitution():
    dp = derive_pattern(StimulusSpec("S1", -0.24, 0.5, 0.06))
    assert (dp.cooling_time, dp.cycle_time) == (0.25, 0.5)
    assert dp.recovery_rate == pytest.approx(0.24, abs=1e-12)
    assert dp.warm_rate == pytest.approx(0.48, abs=1e-12)


def test_derive_against_substitution_oracle():
    expected = substitution_oracle(-0.2, 0.3, 0.06)
    assert expected[0] == pytest.approx(0.3, abs=1e-12)
    assert expected[1] == pytest.approx(1.0, abs=1e-12)
    assert expected[2] == pytest.approx(0.085714285714, abs=1e-9)
    dp = derive_pattern(StimulusSpec("S1", -0.2, 0.3, 0.06))
    got = (dp.cooling_time, dp.cycle_time, dp.recovery_rate, dp.warm_rate)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-12)


def test_derive_rejects_wrong_kind_and_bad_values():
    with pytest.raises(WrongKindError):
        derive_pattern(StimulusSpec("S3", -0.1))
    with pytest.raises(ValidationError):
        derive_pattern(StimulusSpec("S1", 0.1, 0.5, 0.06))
    with pytest.raises(ValidationError):
        derive_pattern(StimulusSpec("S1", -0.1, 1.0, 0.06))
    with pytest.raises(ValidationError):
        derive_pattern(StimulusSpec("S1", -0.1, 0.5, -0.06))


def test_compile_s3_constant_rate_integral():
    schedule = compile_schedule(StimulusSpec("S3", -0.16, duration=15.0))
    assert len(schedule.segments) == 1
    assert float(schedule.segments[0].rate) == -0.16
    assert float(schedule.rate_integral()) == pytest.approx(-2.4, abs=1e-12)


def test_compile_s1_worked_example_truncation():
    schedule = compile_schedule(StimulusSpec("S1", -0.1, 0.5, 0.06, duration=15.0))
    # 12 full cycles of two segments plus one truncated cooling segment.
    assert len(schedule.segments) == 25
    last = schedule.segments[-1]
    assert (float(last.start), float(last.end)) == (14.4, 15.0)
    assert float(last.rate) == -0.1 and not last.warm_active
    assert float(schedule.rate_integral()) == pytest.approx(-0.06, abs=1e-12)


def test_compile_s2_piecewise_integral():
    schedule = compile_schedule(
        StimulusSpec("S2", -0.16, duration=15.0, drop_duration=5.0))
    assert [(float(s.start), float(s.end), float(s.rate))
            for s in schedule.segments] == [(0.0, 5.0, -0.16), (5.0, 15.0, 0.0)]
    assert schedule.segments[1].warm_active and schedule.segments[1].cold_active
    assert float(schedule.rate_integral()) == pytest.approx(-0.8, abs=1e-12)


def test_cold_active_everywhere_warm_only_above_cooling_rate():
    for spec in (StimulusSpec("S1", -0.2, 0.4, 0.06),
                 StimulusSpec("S2", -0.1),
                 StimulusSpec("S3", -0.1)):
        for seg in compile_schedule(spec).segments:
            assert seg.cold_active
            assert seg.warm_active == (seg.rate > _exact(spec.cooling_rate))


def test_validate_messages():
    with pytest.raises(ValidationError, match=re.escape(
            "stimulus 'S1_vc-0.1_r0.5': swing must be positive")):
        StimulusSpec("S1", -0.1, 0.5, -0.01)
    with pytest.raises(ValidationError, match=re.escape(
            "stimulus 'S1_vc-0.1_r0.0': cooling_ratio must lie in the open interval")):
        StimulusSpec("S1", -0.1, 0.0, 0.06)
    for name in ("cooling_rate", "cooling_ratio", "swing", "duration", "drop_duration"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError, match=re.escape(
                    f": {name} must be a finite number, got {value!r}")) as caught:
                replace(StimulusSpec("S1", -0.1, 0.5), **{name: value})
            # the first rule broken, alone, after the stimulus id
            assert str(caught.value).startswith("stimulus 'S1_vc")
            assert str(caught.value).count("must") == 1
    for duration in (0.0, -1.0):
        with pytest.raises(ValidationError, match="duration must be positive"):
            compile_schedule(StimulusSpec("S3", -0.1, duration=duration))


def test_validate_cycle_floor_boundary():
    # t = 0.5 s exactly: clean, no warning
    assert validate_spec(StimulusSpec("S1", -0.24, 0.5, 0.06)) == []
    # slightly faster cycle: a warning, and the spec still compiles
    spec = StimulusSpec("S1", -0.25, 0.5, 0.06)
    assert validate_spec(spec) == [
        "cycle time 0.480 s is below the 0.5 s actuation floor"]
    assert compile_schedule(spec).ends


def test_validate_s2_drop_length():
    with pytest.raises(ValidationError, match=re.escape(
            "stimulus 'S2_vc-0.1': drop_duration must be shorter than duration")):
        StimulusSpec("S2", -0.1, duration=15.0, drop_duration=20.0)


def random_spec(rng):
    vc = -rng.uniform(0.01, 0.5)
    lam = rng.uniform(0.05, 0.95)
    swing = rng.uniform(0.01, 0.2)
    return StimulusSpec("S1", round(vc, 6), round(lam, 6), round(swing, 6))


def test_property_suite_random_specs():
    """Heat balance, round-trip, and monotonicity over random specs."""
    rng = random.Random(20260810)
    for _ in range(2000):
        spec = random_spec(rng)
        tc, t, vr, vh = _derive_exact(spec)
        vc = _exact(spec.cooling_rate)
        # exact per-cycle heat balance
        assert vc * tc + vr * (t - tc) == 0
        # round-trip reproduces the swing exactly
        assert -vc * tc == _exact(spec.swing)
        # t strictly decreasing in |vc| at fixed swing and ratio
        faster = StimulusSpec("S1", spec.cooling_rate * 1.5,
                              spec.cooling_ratio, spec.swing)
        assert _derive_exact(faster)[1] < t
        # warm rate strictly increasing in the cooling ratio
        wider = StimulusSpec("S1", spec.cooling_rate,
                             spec.cooling_ratio + (1 - spec.cooling_ratio) / 2,
                             spec.swing)
        assert _derive_exact(wider)[3] > vh


def test_property_schedule_partition_and_whole_cycles():
    rng = random.Random(99)
    for _ in range(400):
        base = random_spec(rng)
        _, t, _, _ = _derive_exact(base)
        cycles = rng.randint(1, 3)
        # compile something longer, then integrate over exactly whole
        # cycles: the commanded integral is exactly zero
        duration = float((cycles + Fraction(rng.randint(1, 99), 100)) * t)
        spec = StimulusSpec("S1", base.cooling_rate, base.cooling_ratio,
                            base.swing, duration=duration)
        schedule = compile_schedule(spec)
        assert schedule.rate_integral(Fraction(0), cycles * t) == 0
        # truncated anywhere: segments partition [0, duration] exactly
        pos = Fraction(0)
        for seg in schedule.segments:
            assert seg.start == pos and seg.end > seg.start
            pos = seg.end
        assert pos == schedule.duration


def test_partition_s2_s3():
    for spec in (StimulusSpec("S2", -0.2, duration=12.0, drop_duration=3.0),
                 StimulusSpec("S3", -0.2, duration=12.0)):
        schedule = compile_schedule(spec)
        pos = Fraction(0)
        for seg in schedule.segments:
            assert seg.start == pos
            pos = seg.end
        assert pos == schedule.duration


@st.composite
def specs(draw):
    """Any valid spec, with decimal inputs as a user would type them."""
    kind = draw(st.sampled_from(("S1", "S2", "S3")))
    rate = -draw(st.integers(1, 300)) / 1000
    duration = draw(st.integers(1, 2000)) / 100
    if kind == "S1":
        return StimulusSpec("S1", rate, draw(st.integers(1, 99)) / 100,
                            draw(st.integers(10, 200)) / 1000, duration)
    if kind == "S2":
        return StimulusSpec("S2", rate, duration=duration,
                            drop_duration=duration * draw(st.integers(1, 99)) / 100)
    return StimulusSpec("S3", rate, duration=duration)


@given(specs())
def test_property_segments_tile_and_alternate(spec):
    schedule = compile_schedule(spec)
    segments = schedule.segments
    assert segments[0].start == 0 and segments[-1].end == schedule.duration
    for seg in segments:
        assert seg.end > seg.start and seg.cold_active
    for prev, seg in zip(segments, segments[1:]):
        assert seg.start == prev.end
        assert seg.warm_active != prev.warm_active
    assert not segments[0].warm_active
    # one cooling rate, the spec's, and one shared warm rate: S1's
    # recovery rate, S2's hold at 0 (S3 has no warm segment)
    assert {seg.rate for seg in segments if not seg.warm_active} == {
        _exact(spec.cooling_rate)}
    warm_rate = _derive_exact(spec)[2] if spec.kind == "S1" else Fraction(0)
    assert {seg.rate for seg in segments if seg.warm_active} <= {warm_rate}
    if spec.kind == "S1":
        cycle = _derive_exact(spec)[1]
        whole = int(schedule.duration / cycle)
        for k in {min(1, whole), whole} - {0}:
            assert schedule.rate_integral(0, k * cycle) == 0


@given(specs(), st.sampled_from((None, "kind", "cooling_rate", "cooling_ratio",
                                  "swing", "duration", "drop_duration")),
       st.one_of(st.integers(-1000, 1000).map(lambda n: n / 1000),
                 st.sampled_from((None, math.nan, -math.inf, True, "-0.1", "S2", "S4"))))
def test_property_built_spec_compiles(spec, name, value):
    """A spec refuses a bad value with ValidationError alone, and whatever
    it accepts compiles: pattern raises no ValidationError on it."""
    try:
        if name is not None:
            spec = replace(spec, **{name: value})
    except ValidationError as exc:
        assert str(exc).startswith("stimulus '")
        return
    schedule = compile_schedule(spec)
    assert schedule.ends[-1] == schedule.den * schedule.duration
    if spec.kind == "S1":
        derive_pattern(spec)
    warnings = validate_spec(spec)
    assert isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)


def fraction_loop_s1(spec):
    """S1 cycle quantities and segments by Fraction arithmetic: each
    quantity from the previous ones, each boundary a whole-cycle multiple
    of cycle_time, the loop compile_schedule is checked against."""
    rate = _exact(spec.cooling_rate)
    ratio = _exact(spec.cooling_ratio)
    swing = _exact(spec.swing)
    cooling_time = swing / -rate
    cycle_time = cooling_time / ratio
    recovery_rate = swing / (cycle_time - cooling_time)
    warm_rate = recovery_rate - rate
    duration = _exact(spec.duration)
    segments = []
    cycle = 0
    pos = Fraction(0)
    while pos < duration:
        cool_end = min(pos + cooling_time, duration)
        segments.append(Segment(pos, cool_end, rate, True, False))
        if cool_end == duration:
            break
        warm_end = min((cycle + 1) * cycle_time, duration)
        segments.append(Segment(cool_end, warm_end, recovery_rate, True, True))
        cycle += 1
        pos = cycle * cycle_time
    return (cooling_time, cycle_time, recovery_rate, warm_rate), segments


@settings(max_examples=200)
@given(specs().filter(lambda spec: spec.kind == "S1"),
       st.one_of(st.none(), st.floats(0.001, 20.0)))
def test_property_s1_schedule_matches_fraction_loop(spec, off_grid_duration):
    if off_grid_duration is not None:
        spec = replace(spec, duration=off_grid_duration)
    derived, expected = fraction_loop_s1(spec)
    assert _derive_exact(spec) == derived
    segments = compile_schedule(spec).segments
    assert list(segments) == expected
    assert all(type(x) is Fraction
               for seg in segments for x in (seg.start, seg.end, seg.rate))
    # one Fraction per boundary, shared by the segments it separates
    assert all(seg.start is prev.end for prev, seg in zip(segments, segments[1:]))


@settings(max_examples=200)
@given(specs(), st.one_of(st.none(), st.floats(0.001, 20.0)))
def test_property_segment_ticks_match_schedule(spec, off_grid_duration):
    if off_grid_duration is not None:
        spec = replace(spec, duration=off_grid_duration, drop_duration=(
            off_grid_duration * spec.drop_duration / spec.duration))
    schedule = compile_schedule(spec)
    den, ends = schedule.den, schedule.ends
    assert schedule.cooling_rate == _exact(spec.cooling_rate)
    assert len(ends) == len(schedule.segments)
    for start, end, seg in zip((0,) + ends, ends, schedule.segments):
        assert (Fraction(start, den), Fraction(end, den)) == (seg.start, seg.end)
        # integer true division is the float of the Fraction, bit for bit
        assert ((start / den).hex(), (end / den).hex()) == (
            float(seg.start).hex(), float(seg.end).hex())
        assert seg.rate == (schedule.warming_rate if seg.warm_active
                            else schedule.cooling_rate)


def segment_steps(schedule, valve_model, led_model):
    """The valve duty, and the warm channel's duty and on flag on every
    step, built from the schedule's Segments: each boundary is the float
    of its Fraction snapped to the nearest step, and each warm duty is
    inverted from the segment's rate less the cooling rate.  The oracle
    for schedule_to_timeline, which cuts the integer ticks into pieces
    instead, and in test_control for run_control's per-step plant inputs.
    A warm segment that snaps to zero steps, or a schedule shorter than
    half a step, raises ValidationError naming the segment.
    """
    n = int(round(float(schedule.duration) / DT))
    base = float(schedule.cooling_rate)
    warm = []
    for index, seg in enumerate(schedule.segments):
        start, end = float(seg.start), float(seg.end)
        t0, t1 = (min(int(round(t / DT)), n) for t in (start, end))
        if t0 == t1 and (seg.warm_active or n == 0):
            raise ValidationError(f"segment {index} [{start}, {end}) s")
        if seg.warm_active:
            warm.append((t0, t1, float(seg.rate) - base))
    valve_duty = invert_duty(valve_model, base)
    duty, on = np.zeros(n), np.zeros(n, dtype=bool)
    for t0, t1, rate in warm:
        duty[t0:t1] = invert_duty(led_model, rate)
        on[t0:t1] = True
    return valve_duty, duty, on


EXACT_MODELS = exact_models(PlantParams())


@settings(max_examples=200)
@given(specs())
@example(StimulusSpec("S1", -0.24, 0.5, 0.0001))  # segment 5 snaps to zero steps
@example(StimulusSpec("S3", -0.16, duration=0.0004))  # so does the whole schedule
@example(StimulusSpec("S1", -0.24, 0.1, 0.0001))  # cooling segments vanish, the first too
def test_property_timeline_from_ticks_matches_segments(spec):
    # The drawn spec, and the same spec over the study's 15 s.
    for spec in (spec, replace(spec, duration=15.0, drop_duration=(
            15.0 * spec.drop_duration / spec.duration))):
        schedule = compile_schedule(spec)
        try:
            valve_duty, duty, on = segment_steps(schedule, *EXACT_MODELS)
        except (ValidationError, UnreachableRateError) as exc:
            with pytest.raises(type(exc)) as info:
                schedule_to_timeline(schedule, *EXACT_MODELS)
            if isinstance(exc, UnreachableRateError):
                assert (info.value.channel, info.value.target_rate) == (
                    exc.channel, exc.target_rate)
            else:
                assert f"{exc} collapses" in str(info.value)
            continue
        timeline = schedule_to_timeline(schedule, *EXACT_MODELS)
        assert timeline.valve_duty.hex() == valve_duty.hex()
        steps_on = np.repeat(timeline.led_on, timeline.n_steps)
        assert steps_on.tobytes() == on.tobytes()
        assert np.where(steps_on, timeline.led_duty, 0.0).tobytes() == duty.tobytes()
        # a piece ends only where the warm duty or flag changes
        changes = np.flatnonzero((duty[1:] != duty[:-1]) | (on[1:] != on[:-1])) + 1
        assert np.cumsum(timeline.n_steps)[:-1].tolist() == changes.tolist()


def test_schedule_csv_export(tmp_path):
    schedule = compile_schedule(StimulusSpec("S1", -0.1, 0.5, 0.06, duration=2.4))
    path = tmp_path / "sched.csv"
    schedule.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "start_s,end_s,rate_c_per_s,cold_active,warm_active"
    assert lines[1] == "0.0,0.6,-0.1,true,false"
    assert len(lines) == 1 + len(schedule.segments)


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.integers(-10**30, 10**30),
                 st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 1e16, 0.06, -0.16,
                                  1.7976931348623157e308])))
def test_property_exact_is_decimal_reading(x):
    # The oracle reads the same shortest decimal string with Fraction's parser.
    assert _exact(x) == Fraction(str(x))


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_exact_rejects_non_finite(x):
    with pytest.raises(ValueError):
        _exact(x)
