"""Protocol runner and analyses for the perception studies.

Two study protocols run against the simulated plant with synthetic
participants:

- exp2 (persistence study): a grid of alternating patterns plus
  drop-and-hold and continuous-cooling comparisons; participants report
  a continuous cold-confidence slider at 100 Hz.
- exp3 (intensity study): five selected patterns rated on a 7-point
  coldness scale after each presentation.

The synthetic participant is an engineering stand-in, not a model of
human physiology: a low-pass on the skin-temperature rate, a
cold-dominant asymmetry, a detection dead zone, a saturating mapping
onto the slider, a peak-hold with slow release (reported percepts decay,
they do not vanish the instant stimulation pauses), motor lag, and
clipped response noise.

multiprocessing is imported where it is first used (about 10 ms), since
only a trace-writing pool needs it.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import json
import math
import numbers
import os
import signal
import threading
from dataclasses import dataclass, asdict, replace
from itertools import zip_longest
from operator import attrgetter
from time import sleep
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .control import (LED_DUTY_RANGE, LOG_EVERY, LOG_RATE, VALVE_DUTY_RANGE,
                      CalibrationResult, DutyModel, calibrate, run_control,
                      schedule_to_timeline)
from .errors import (CalibrationError, UnreachableRateError, ValidationError,
                     check_counts, check_numbers)
from .pattern import StimulusSpec, compile_schedule, stimulus_id
from .plant import DT, PlantParams, SkinPlant, Trace, first_order, write_trace_csvs
from .stats import (TestResult, benjamini_hochberg, kruskal_wallis,
                    wilcoxon_rank_sum)

EXP2_RATES = (-0.08, -0.12, -0.16, -0.20, -0.24)
EXP2_RATIOS = (0.1, 0.2, 0.3, 0.4, 0.5)
EXP3_RATES = (-0.08, -0.16, -0.24)
EXP3_RATIO = 0.5
EXP3_BASE_RATE = -0.16  # S2 and S3 comparisons in exp3

# Persistence is judged on this window of the 15 s presentation; early
# samples are still transient.
PERSISTENCE_WINDOW = (5.0, 15.0)

# Perceived-peak normalization for ratings, degC/s.
RATING_PEAK_SCALE = 0.3

# Run layout and trials.csv header that write_records writes and read_records reads.
FORMAT_VERSION = 5
TABLE_HEADER = ["participant", "trial", "stimulus_id", "likert"]


@dataclass(frozen=True)
class ParticipantModel:
    """Synthetic perceiver parameters.

    warm_attenuation scales perceived warming relative to cooling
    (people are far more sensitive to cold); hold_time is how slowly a
    reported percept releases back toward neutral when the stimulus
    pauses between cycles.
    """

    detect_threshold: float = 0.02   # degC/s dead zone on the perceived rate
    time_constant: float = 1.0       # s low-pass on the skin-temperature rate
    slider_lag: float = 0.5          # s motor delay
    response_noise: float = 0.02     # slider-units sigma
    warm_attenuation: float = 0.3    # gain on perceived warming rates
    gain: float = 60.0               # slider deflection per degC/s
    hold_time: float = 3.0           # s release time of a held percept

    def __post_init__(self):
        check_numbers(self, ("time_constant",), nonnegative=(
            "detect_threshold", "slider_lag", "response_noise",
            "warm_attenuation", "gain", "hold_time"))
        if not self.time_constant > 0:
            raise ValidationError("time_constant must be positive")


@dataclass(frozen=True)
class SliderTrace:
    """Cold-confidence slider sampled at 100 Hz; 1 = cold end, 0.5 = neutral."""

    time: np.ndarray
    values: np.ndarray


def _sample_dt(trace: Trace) -> float:
    """The trace's sampling step, checked against what the perceiver needs."""
    n = len(trace.time)
    if n < 2:
        raise ValidationError("trace too short to differentiate")
    sample_dt = float(trace.time[1] - trace.time[0])
    if not sample_dt > 0:
        raise ValidationError(f"trace time must increase, got a step of {sample_dt} s")
    if sample_dt > 1.0 / LOG_RATE + 1e-9:
        raise ValidationError("participant model needs a trace sampled at >= 100 Hz")
    span = float(trace.time[-1] - trace.time[0])
    if abs(span - (n - 1) * sample_dt) > 1e-9:
        raise ValidationError(f"participant model needs evenly spaced samples: the trace "
                              f"spans {span!r} s, not {n - 1} steps of {sample_dt!r} s")
    return sample_dt


def perceived_rate(trace: Trace, model: ParticipantModel) -> np.ndarray:
    """Low-passed skin-temperature rate as the participant senses it."""
    sample_dt = _sample_dt(trace)
    temp = np.asarray(trace.temp, dtype=float)
    rate = np.empty_like(temp)
    rate[1:] = np.diff(temp) / sample_dt
    rate[0] = rate[1]
    alpha = 1.0 - math.exp(-sample_dt / model.time_constant)
    return first_order(1.0 - alpha, alpha * rate)


def simulate_participant(trace: Trace, model: ParticipantModel,
                         rng: np.random.Generator) -> SliderTrace:
    """Produce the slider response to a temperature trace.

    Pipeline: low-pass the rate, attenuate warming, apply the detection
    dead zone, map through a saturating gain around the neutral point,
    hold-and-release, delay by the motor lag, add clipped noise: one
    rng.normal draw per sample, none when response_noise is 0.
    """
    t = np.asarray(trace.time, dtype=float)
    sample_dt = _sample_dt(trace)
    p = perceived_rate(trace, model)

    felt = np.where(p > 0.0, p * model.warm_attenuation, p)
    felt = np.where(np.abs(felt) >= model.detect_threshold, felt, 0.0)
    raw = 0.5 - 0.5 * np.tanh(model.gain * felt)

    release = math.exp(-sample_dt / model.hold_time) if model.hold_time > 0 else 0.0
    held = raw
    if release > 0:
        # Sample i holds the j <= i with the largest |raw[j] - 0.5| / release**j
        # (the latest on ties), decayed by release**(i - j).
        log_r, i = math.log(release), np.arange(len(raw))
        with np.errstate(divide="ignore"):  # a neutral sample's key is -inf
            key = np.log(np.abs(raw - 0.5)) - i * log_r
        src = np.maximum.accumulate(np.where(key == np.maximum.accumulate(key), i, 0))
        held = 0.5 + (raw[src] - 0.5) * np.exp(log_r * (i - src))

    lag_samples = int(round(model.slider_lag / sample_dt))
    lagged = np.full_like(held, 0.5)
    if lag_samples < len(held):
        lagged[lag_samples:] = held[:len(held) - lag_samples]

    if model.response_noise > 0.0:
        lagged = lagged + rng.normal(0.0, model.response_noise, len(lagged))
    return SliderTrace(t, np.clip(lagged, 0.0, 1.0))


def summarize_sliders(sliders: Sequence[SliderTrace]) -> tuple[np.ndarray, np.ndarray]:
    """Each slider's persistence flag (confidence above 50 % at every
    sample of PERSISTENCE_WINDOW) and its mean confidence in percent.

    Sliders that share one time array object, as read_records gives each
    participant's, form one block: one coverage check, one window (a
    slice when it is one run of the time grid), and one 2-D np.array
    copy.  That copy is C-contiguous, so its row mean takes the same
    pairwise sum and division as np.mean of that row, bit for bit.
    """
    lo, hi = PERSISTENCE_WINDOW
    flags = np.empty(len(sliders), dtype=bool)
    confidence = np.empty(len(sliders))
    blocks: dict[int, list[int]] = {}
    for i, slider in enumerate(sliders):
        blocks.setdefault(id(slider.time), []).append(i)
    for rows in blocks.values():
        time = sliders[rows[0]].time
        if len(time) == 0:
            raise ValidationError("persistence needs a slider trace with samples")
        if time[-1] < hi - 1e-9:
            raise ValidationError(f"persistence needs a trace covering {hi} s")
        inside = np.flatnonzero((time >= lo) & (time <= hi))
        if len(inside) and inside[-1] - inside[0] == len(inside) - 1:
            inside = slice(inside[0], inside[-1] + 1)
        values = np.array([sliders[i].values for i in rows])
        flags[rows] = (values[:, inside] > 0.5).all(axis=1)
        confidence[rows] = values.mean(axis=1) * 100.0
    return flags, confidence


def peak_cooling_rate(trace: Trace, model: ParticipantModel) -> float:
    """Largest perceived cooling rate over the presentation (>= 0)."""
    return float(max(0.0, -np.min(perceived_rate(trace, model))))


def default_likert_rating(mean_confidence: float, peak_cool_rate: float) -> int:
    """Map trial percepts onto the 1..7 coldness scale.

    Monotone in both the time-averaged confidence (as a fraction) and the
    peak perceived cooling rate; invented plumbing.
    """
    strength = 0.5 * mean_confidence + 0.5 * min(1.0, peak_cool_rate / RATING_PEAK_SCALE)
    return int(min(7, max(1, round(1 + 6 * strength))))


@dataclass(frozen=True)
class ExperimentPlan:
    """Each of `stimuli` shown `repetitions` times, shuffled, to each of
    `participants`; a stimulus's id is stimulus_id(spec), not stored.
    The stimuli share one duration, `samples` - 1 steps of 1 / LOG_RATE."""

    experiment: str  # "exp2" | "exp3"
    stimuli: tuple[StimulusSpec, ...]
    repetitions: int
    participants: int
    seed: int

    def __post_init__(self):
        check_counts(self, {"participants": 1, "repetitions": 1, "seed": 0})
        for name in ("participants", "repetitions", "seed"):  # a plain int, for JSON
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.experiment not in ("exp2", "exp3"):
            raise ValidationError(f"experiment {self.experiment!r} is not exp2 or exp3")
        if not self.stimuli:
            raise ValidationError("a plan needs at least one stimulus")
        ids = [stimulus_id(spec) for spec in self.stimuli]
        counts = collections.Counter(ids)
        for sid, spec in zip(ids, self.stimuli):
            kind, ratio, duration = spec.kind, spec.cooling_ratio, spec.duration
            if counts[sid] > 1:
                raise ValidationError(f"stimulus {sid!r} is planned {counts[sid]} times")
            if kind != "S1" and ratio is not None:
                raise ValidationError(f"stimulus {sid!r} has kind {kind!r} and lambda "
                                      f"{ratio!r}, not S1 with a lambda or S2/S3 without")
            if not (LOG_EVERY <= duration / DT < math.inf  # 1e308 s overflows
                    and round(duration / DT) % LOG_EVERY == 0):
                raise ValidationError(f"stimulus {sid!r} runs {duration!r} s, not a "
                                      f"whole number of {1 / LOG_RATE:g} s samples")
            if duration != self.stimuli[0].duration:
                raise ValidationError(f"stimulus {sid!r} runs {duration!r} s, not the "
                                      f"{self.stimuli[0].duration!r} s of the first")

    @property
    def trials_per_participant(self) -> int:
        return len(self.stimuli) * self.repetitions

    @property
    def samples(self) -> int:
        """Samples per trial: run_control's grid k / LOG_RATE over the duration."""
        return round(self.stimuli[0].duration / DT) // LOG_EVERY + 1


def build_exp2_plan(repetitions=3, participants=15, seed=0) -> ExperimentPlan:
    """Persistence-study plan: the specs of the EXP2_RATES x EXP2_RATIOS
    grid of alternating patterns, then of drop-and-hold and of continuous
    cooling at each rate, all with StimulusSpec's swing, duration and drop."""
    specs = [StimulusSpec("S1", rate, ratio)
             for rate in EXP2_RATES for ratio in EXP2_RATIOS]
    specs += [StimulusSpec("S2", rate) for rate in EXP2_RATES]
    specs += [StimulusSpec("S3", rate) for rate in EXP2_RATES]
    return ExperimentPlan("exp2", tuple(specs), repetitions, participants, seed)


def build_exp3_plan(repetitions=3, participants=15, seed=0) -> ExperimentPlan:
    """Intensity-study plan: the specs of alternating patterns at EXP3_RATES
    and EXP3_RATIO, then of drop-and-hold and continuous cooling at
    EXP3_BASE_RATE, all with StimulusSpec's swing, duration and drop."""
    specs = [StimulusSpec("S1", rate, EXP3_RATIO) for rate in EXP3_RATES]
    specs += [StimulusSpec("S2", EXP3_BASE_RATE), StimulusSpec("S3", EXP3_BASE_RATE)]
    return ExperimentPlan("exp3", tuple(specs), repetitions, participants, seed)


@dataclass
class TrialRecord:
    participant: int
    trial: int            # presentation index within the participant
    stimulus_id: str
    kind: str
    cooling_rate: float
    cooling_ratio: Optional[float]
    slider: Optional[SliderTrace] = None
    likert: Optional[int] = None
    trace: Optional[Trace] = None


def run_experiment(plan: ExperimentPlan,
                   plant_factory: Callable[[int], SkinPlant],
                   participants: Sequence[ParticipantModel],
                   models: Sequence[tuple[DutyModel, DutyModel]],
                   ) -> list[TrialRecord]:
    """Run every trial of a plan and return the records in run order.

    Presentation order is shuffled per participant from the plan seed.
    Each trial re-initializes the skin, drives the compiled pattern
    through the participant's calibrated models, and produces either a
    slider trace (exp2) or a coldness rating (exp3).  An unreachable
    rate raises UnreachableRateError naming the participant and the
    stimulus.
    """
    if len(participants) < plan.participants or len(models) < plan.participants:
        raise ValidationError("need one participant model and one model pair "
                              "per planned participant")
    return [rec for pidx in range(plan.participants)
            for rec in _participant_trials(plan, pidx, plant_factory(pidx),
                                           participants[pidx], models[pidx])]


def _participant_trials(plan: ExperimentPlan, pidx: int, plant: SkinPlant,
                        person: ParticipantModel,
                        models: tuple[DutyModel, DutyModel]) -> list[TrialRecord]:
    """Participant pidx's trials of run_experiment, in run order: trial k
    presents plan.stimuli[order[k] // plan.repetitions], for one order per
    participant drawn from (plan seed, pidx).  The response noise is one
    stream per participant, also drawn from (plan seed, pidx), that the
    trials draw from in turn: trial k's noise is row k of one
    (trials, samples) normal draw.  Each stimulus's id and timeline are
    made once."""
    valve_model, led_model = models
    planned = []  # (id, spec, timeline) per stimulus, in plan order
    for spec in plan.stimuli:
        sid = stimulus_id(spec)
        try:
            planned.append((sid, spec, schedule_to_timeline(
                compile_schedule(spec), valve_model, led_model)))
        except UnreachableRateError as exc:
            raise exc.located(stimulus_id=sid, participant=pidx) from exc
    records = []
    order_rng = np.random.default_rng((plan.seed, pidx, 0xC01D))
    order = order_rng.permutation(plan.trials_per_participant)
    noise_rng = np.random.default_rng((plan.seed, pidx, 0x511DE))
    for tidx, which in enumerate(order):
        sid, spec, timeline = planned[which // plan.repetitions]
        plant.reset()
        trace = run_control(timeline, plant)
        slider = simulate_participant(trace, person, noise_rng)
        record = TrialRecord(
            participant=pidx, trial=tidx, stimulus_id=sid, kind=spec.kind,
            cooling_rate=spec.cooling_rate, cooling_ratio=spec.cooling_ratio,
            trace=trace)
        if plan.experiment == "exp2":
            record.slider = slider
        else:
            record.likert = default_likert_rating(
                float(np.mean(slider.values)),
                peak_cooling_rate(trace, person))
        records.append(record)
    return records


def perturb_params(base: PlantParams, rng: np.random.Generator,
                   rel: float = 0.1) -> PlantParams:
    """Per-participant plant variation.

    The observable response anchors (rates at the band endpoints) are
    jittered and the affine coefficients re-solved, because jittering the
    coefficients directly swings the near-cancelling valve anchors wildly.
    The warm top anchor is re-drawn until the study grid stays reachable,
    mirroring the real protocol where the duty bands were chosen to cover
    every participant.  A base plant whose top anchor fewer than one draw
    in 10**6 can lift to that headroom raises UnreachableRateError on the
    led channel.
    """
    def anchors(gain, bias, lo, hi):
        return gain * lo + bias, gain * hi + bias

    v_min, v_max = VALVE_DUTY_RANGE
    l_min, l_max = LED_DUTY_RANGE
    v_lo, v_hi = anchors(base.valve_gain, base.valve_bias, v_min, v_max)
    l_lo, l_hi = anchors(base.led_gain, base.led_bias, l_min, l_max)
    v_lo *= 1.0 + rng.uniform(-rel, rel)
    v_hi *= 1.0 + rng.uniform(-rel, rel)
    l_lo *= 1.0 + rng.uniform(-rel, rel)
    # The top warm anchor keeps headroom over the grid's strongest warm
    # demand (0.48 degC/s) so the calibrated model, which sits about a
    # hundredth low until drift correction settles, still covers it.
    headroom = 0.495
    l_hi_lo, l_hi_hi = sorted((l_hi * (1.0 - rel), l_hi * (1.0 + rel)))
    # A draw passes in the share of [l_hi_lo, l_hi_hi) at or above the
    # headroom; below one in 10**6 the re-draws would go on for practically
    # ever.  With rel == 0 both sides are 0 when the one value passes.
    if l_hi_hi - max(headroom, l_hi_lo) < 1e-6 * (l_hi_hi - l_hi_lo):
        raise UnreachableRateError("led", headroom, l_hi_lo, l_hi_hi)
    l_hi_j = l_hi * (1.0 + rng.uniform(-rel, rel))
    while l_hi_j < headroom:
        l_hi_j = l_hi * (1.0 + rng.uniform(-rel, rel))
    valve_gain = (v_hi - v_lo) / (v_max - v_min)
    valve_bias = v_lo - valve_gain * v_min
    led_gain = (l_hi_j - l_lo) / (l_max - l_min)
    led_bias = l_lo - led_gain * l_min
    return replace(base, valve_gain=valve_gain, valve_bias=valve_bias,
                   led_gain=led_gain, led_bias=led_bias)


def default_participants(n: int, seed: int = 0) -> list[ParticipantModel]:
    """n copies of the default perceiver.

    Nothing reads seed: simulate_participant draws from the generator its
    caller passes, one stream per participant in a study
    (run_participants, run_experiment).  The parameter stays because
    coldbench's present-stream passes seed=."""
    return [ParticipantModel() for _ in range(n)]


@dataclass
class PipelineResult:
    records: list[TrialRecord]
    calibrations: list[CalibrationResult]


def run_participants(plan: ExperimentPlan, base_params: Optional[PlantParams] = None,
                     jitter: float = 0.1
                     ) -> Iterator[tuple[CalibrationResult, list[TrialRecord]]]:
    """Yield (calibration, records) for each participant in turn: build
    the participant's jittered plant, calibrate it, then run that
    participant's trials.

    Nothing runs until the first item is asked for, and a caller that
    drops each participant's records once used holds one participant at
    a time.  Each plant draws from its own (seed, participant, ...)
    streams, so calibrating participant k just before its own trials
    gives the same models and records as calibrating every plant first.
    A failed calibration (CalibrationError) or an unreachable rate names
    the participant.  A jitter outside [0, 1) raises ValidationError on
    the call, before any participant runs.
    """
    if not 0 <= jitter < 1:
        raise ValidationError(f"jitter must lie in [0, 1), got {jitter}")
    base = base_params if base_params is not None else PlantParams()
    return _participants(plan, base, jitter)


def _participants(plan: ExperimentPlan, base: PlantParams, jitter: float):
    persons = default_participants(plan.participants)
    for pidx in range(plan.participants):
        rng = np.random.default_rng((plan.seed, pidx, 0x71A))
        try:
            params = perturb_params(base, rng, rel=jitter) if jitter > 0 else base
            plant = SkinPlant(params, seed=(plan.seed, pidx, 0x5EED))
            calibration = calibrate(plant)
        except CalibrationError as exc:
            raise CalibrationError(f"participant {pidx}: {exc}",
                                   report=exc.report) from exc
        except UnreachableRateError as exc:
            raise exc.located(participant=pidx) from exc
        yield calibration, _participant_trials(
            plan, pidx, plant, persons[pidx], (calibration.valve, calibration.led))


def run_pipeline(plan: ExperimentPlan, base_params: Optional[PlantParams] = None,
                 jitter: float = 0.1) -> PipelineResult:
    """Plants, calibration, and trials for every participant in one call:
    everything run_participants yields, collected into one list of
    records in participant order and one calibration per participant.
    This holds every participant at once; to write a run, hand
    run_participants to write_records instead."""
    records, calibrations = [], []
    for calibration, participant_records in run_participants(plan, base_params, jitter):
        calibrations.append(calibration)
        records.extend(participant_records)
    return PipelineResult(records, calibrations)


# ---------------------------------------------------------------------------
# Analyses


def _check_input(records: Sequence[TrialRecord], pooling: str, needs: str) -> None:
    """Reject an unknown pooling, no records, or a record without the
    field the analysis reads."""
    if pooling not in ("trials", "participants"):
        raise ValidationError("pooling must be 'trials' or 'participants'")
    if not records:
        raise ValidationError("no records to analyze")
    if any(getattr(rec, needs) is None for rec in records):
        raise ValidationError(f"every record needs a {needs} for this analysis")


def _group(records: Sequence[TrialRecord], values: Sequence, pooling: str,
           *fields: str) -> dict:
    """values[i] grouped by the named fields of records[i] (a tuple key for
    more than one field), in record order; with "participants" pooling
    each group becomes its participants' means, in participant order."""
    key = attrgetter(*fields)
    groups: dict = {}
    for rec, value in zip(records, values):
        groups.setdefault(key(rec), []).append((rec.participant, value))
    out = {}
    for name, pairs in groups.items():
        if pooling == "participants":
            by_p: dict[int, list] = {}
            for pidx, v in pairs:
                by_p.setdefault(pidx, []).append(v)
            out[name] = [sum(vs) / len(vs) for _, vs in sorted(by_p.items())]
        else:
            out[name] = [v for _, v in pairs]
    return out


def _kw_over(groups: dict, kind: str) -> TestResult:
    """Kruskal-Wallis across one pattern kind's (kind, level) groups, in
    level order."""
    levels = sorted(level for k, level in groups if k == kind)
    return kruskal_wallis([groups[kind, level] for level in levels])


@dataclass
class PairwiseComparison:
    group_a: str
    group_b: str
    p_value: float
    p_adjusted: float


def _pairwise(groups: dict, pairs, label=str) -> list[PairwiseComparison]:
    """Each pair's rank-sum p-value, the family Benjamini-Hochberg adjusted
    in one call: a row per pair, in pair order, naming key k label(k)."""
    raw = [wilcoxon_rank_sum(groups[a], groups[b]).p_value for a, b in pairs]
    return [PairwiseComparison(label(a), label(b), p, padj)
            for (a, b), p, padj in zip(pairs, raw, benjamini_hochberg(raw))]


@dataclass
class Exp2Report:
    """Persistence-study report; dataclasses.asdict of it is the report JSON."""

    pooling: str
    persistence_trial_pct: dict
    persistence_participant_pct: dict
    mean_confidence: dict
    kruskal_wallis: dict  # s1_by_ratio, s1_by_rate, s2_by_rate, s3_by_rate
    pairwise_by_rate: list[PairwiseComparison]


def analyze_exp2(records: Sequence[TrialRecord], pooling: str = "trials") -> Exp2Report:
    """Persistence percentages, confidence summaries, and the test battery.

    Group tests run on per-trial mean confidences ("trials" pooling) or
    per-participant means ("participants").  Pairwise pattern-kind
    comparisons at each cooling rate are Benjamini-Hochberg adjusted as
    one family.  Sliders are summarized once per shared time grid
    (summarize_sliders), not once per trial.
    """
    _check_input(records, pooling, "slider")
    # Per-trial persistence flag and mean confidence of cold, percent.
    flags, confidence = summarize_sliders([rec.slider for rec in records])
    flags, confidence = flags.tolist(), confidence.tolist()

    persist_trials = _group(records, flags, "trials", "stimulus_id")
    persistence_trial_pct = {
        sid: 100.0 * sum(trial_flags) / len(trial_flags)
        for sid, trial_flags in sorted(persist_trials.items())}
    # A participant counts as persistent on a pattern when most of their
    # trials of it are persistent: their mean flag is above one half.
    persist_parts = _group(records, flags, "participants", "stimulus_id")
    persistence_participant_pct = {
        sid: 100.0 * sum(1 for share in shares if share > 0.5) / len(shares)
        for sid, shares in sorted(persist_parts.items())}
    conf_trials = _group(records, confidence, "trials", "stimulus_id")
    mean_conf = {sid: float(np.mean(values))
                 for sid, values in sorted(conf_trials.items())}

    by_ratio = _group(records, confidence, pooling, "kind", "cooling_ratio")
    by_rate = _group(records, confidence, pooling, "kind", "cooling_rate")
    kw = {"s1_by_ratio": _kw_over(by_ratio, "S1"),
          "s1_by_rate": _kw_over(by_rate, "S1"),
          "s2_by_rate": _kw_over(by_rate, "S2"),
          "s3_by_rate": _kw_over(by_rate, "S3")}

    pairs = [((kind_a, rate), (kind_b, rate))
             for rate in sorted({rate for _, rate in by_rate})
             for kind_a, kind_b in (("S1", "S2"), ("S1", "S3"), ("S2", "S3"))
             if (kind_a, rate) in by_rate and (kind_b, rate) in by_rate]
    return Exp2Report(pooling, persistence_trial_pct, persistence_participant_pct,
                      mean_conf, kw,
                      _pairwise(by_rate, pairs, lambda key: f"{key[0]}@{key[1]}"))


@dataclass
class Exp3Report:
    """Intensity-study report; dataclasses.asdict of it is the report JSON."""

    pooling: str
    mean_rating: dict
    kruskal_wallis: TestResult
    pairwise: list[PairwiseComparison]  # stimulus ids a < b, in sorted order


def analyze_exp3(records: Sequence[TrialRecord], pooling: str = "trials") -> Exp3Report:
    """Coldness-rating summary, the 5-group test, and the adjusted pairwise rows."""
    _check_input(records, pooling, "likert")
    groups = _group(records, [float(rec.likert) for rec in records], pooling,
                    "stimulus_id")
    mean_rating = {sid: float(np.mean(vals)) for sid, vals in sorted(groups.items())}
    ids = sorted(groups)
    kw = kruskal_wallis([groups[sid] for sid in ids])

    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    return Exp3Report(pooling, mean_rating, kw, _pairwise(groups, pairs))


# ---------------------------------------------------------------------------
# Record export / import


def _check_table(prefix: str, rows: list, stimuli, participants, trials: int) -> None:
    """Raise ValidationError starting with prefix and the participant at
    fault unless the (participant, trial, id, likert) rows hold trials 0
    to trials - 1 of each of participants, in row order, each id in
    stimuli and each likert None or an integer from 1 to 7, as
    read_records needs."""
    got = [row[:2] for row in rows]
    planned = [(pidx, tidx) for pidx in participants for tidx in range(trials)]
    if got != planned:  # the first row at fault, as planned or else as read
        pidx, tidx = next(w or g for g, w in zip_longest(got, planned) if g != w)
        raise ValidationError(
            f"{prefix}participant {pidx}: {sum(p == pidx for p, _ in got)} rows, not the "
            f"manifest's trials 0 to {trials - 1} in row order, from trial {tidx} on")
    for pidx, tidx, sid, likert in rows:
        if sid not in stimuli:
            raise ValidationError(f"{prefix}participant {pidx}: trial {tidx} shows "
                                  f"{sid!r}, not a stimulus of the manifest")
        if likert is not None and (isinstance(likert, bool) or not (
                isinstance(likert, numbers.Integral) and 1 <= likert <= 7)):
            raise ValidationError(f"{prefix}participant {pidx}: trial {tidx} has likert "
                                  f"{likert!r}, not an integer from 1 to 7")


def _check_slider_values(prefix: str, values: np.ndarray, rows: list) -> None:
    """Refuse values outside [0, 1], naming rows[k][:2] for the first row k at fault."""
    if not (values.min() >= 0.0 and values.max() <= 1.0):  # NaN fails both
        pidx, tidx = rows[np.flatnonzero(~((values >= 0) & (values <= 1)).all(1))[0]][:2]
        raise ValidationError(f"{prefix}participant {pidx} trial {tidx} has slider "
                              f"values outside [0, 1] or NaN")


def _write_participant(out_dir, pidx: int, calibration, recs: list[TrialRecord],
                       write_traces, plan: ExperimentPlan, table, sliders) -> None:
    """write_records' files and rows for one participant, once every record
    is checked: its models JSON, its rows to the csv writer table and to
    the open file sliders (None in an exp3 run), and its temperature
    traces to write_traces(traces, paths), or nowhere when it is None."""
    trace_dir = os.path.join(out_dir, "traces")
    recs = sorted(recs, key=attrgetter("trial"))
    planned = {stimulus_id(s): (s.kind, s.cooling_rate, s.cooling_ratio)
               for s in plan.stimuli}
    grid = np.arange(plan.samples) / LOG_RATE
    for rec in recs:
        where = f"participant {pidx} trial {rec.trial}"
        got = rec.kind, rec.cooling_rate, rec.cooling_ratio
        if planned.get(rec.stimulus_id) != got:
            raise ValidationError(f"{where}: {rec.stimulus_id!r} as kind, vc and "
                                  f"lambda {got} is not a planned stimulus")
        slider = rec.slider
        if (slider is None) == (plan.experiment == "exp2") or slider is not None and not (
                np.array_equal(slider.time, grid)
                and np.shape(slider.values) == grid.shape):
            raise ValidationError(
                f"{where}: {'no' if slider is None else 'a'} slider, but an exp2 record "
                f"has one on the grid k / {LOG_RATE:g} s, k < {plan.samples}, exp3 none")
    rows = [(pidx, rec.trial, rec.stimulus_id, rec.likert) for rec in recs]
    _check_table("", rows, planned, [pidx], plan.trials_per_participant)
    if sliders is not None:  # the last check, so nothing is written before it
        values = np.stack([rec.slider.values for rec in recs], dtype="<f8")
        _check_slider_values("", values, rows)
        values.tofile(sliders)
    calibration.to_json(os.path.join(out_dir, f"models_{pidx:02d}.json"))
    table.writerows(rows)  # csv writes a likert of None as an empty field
    kept = [rec for rec in recs if rec.trace is not None] if write_traces else []
    if kept:
        os.makedirs(trace_dir, exist_ok=True)
        write_traces([rec.trace for rec in kept], [
            os.path.join(trace_dir, f"p{pidx:02d}_t{rec.trial:03d}_temp.csv")
            for rec in kept])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _trace_worker_init(parent: int) -> None:
    """Set up a trace-writing worker: Ctrl-C is left to the parent, whose
    cleanup runs, and the worker exits by itself once the parent is gone
    (a killed parent's workers would otherwise live on, re-parented)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch():
        while os.getppid() == parent:
            sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@contextlib.contextmanager
def _trace_writer(participants: int):
    """write_records' trace writer: write_trace_csvs itself, or with more
    than one worker a function of the same arguments that splits the
    traces into one chunk per worker for a pool forked at its first call.
    After a call at most one chunk per worker is pending (the oldest are
    waited for), and on leaving every chunk has finished and the pool is
    shut down.
    """
    workers = min(_usable_cpus(), participants)
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers == 1:
        yield write_trace_csvs
        return
    pending = collections.deque()
    with contextlib.ExitStack() as stack:
        pool = None

        def write(traces, paths):
            nonlocal pool
            if pool is None:
                # fork, so a worker re-imports nothing.  No other thread
                # runs at the fork: the executor forks every worker
                # before it starts its own threads, and OpenBLAS stops
                # numpy's and scipy's BLAS threads around a fork.
                pool = stack.enter_context(ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context("fork"),
                    initializer=_trace_worker_init, initargs=(os.getpid(),)))
            size = -(-len(traces) // workers)
            for start in range(0, len(traces), size):
                pending.append(pool.submit(write_trace_csvs,
                                           traces[start:start + size],
                                           paths[start:start + size]))
            while len(pending) > workers:
                pending.popleft().result()

        yield write
        while pending:
            pending.popleft().result()


def write_records(participants: Iterable[tuple[CalibrationResult, list[TrialRecord]]],
                  plan: ExperimentPlan, out_dir, traces: bool = True) -> None:
    """For each participant a models JSON and a temperature trace CSV per
    trial; for the run one trial table, one slider array and a manifest.

    `participants` holds one (calibration, records) pair per planned
    participant, in participant order, as run_participants yields them.
    The k-th pair's files and rows are for participant k, its records are
    written in trial order, and the pair is dropped before the next one
    is asked for, so a lazy iterable is held one participant at a time.
    A number of pairs other than plan.participants raises
    ValidationError, and no manifest is written.

    `trials.csv` holds each record's `participant`, `trial`,
    `stimulus_id` and `likert`, in participant and then trial order; the
    plan gives its kind, rate and ratio.  For an exp2 plan, row k of
    `sliders.npy` (float64, shape (participants x trials, plan.samples),
    its header written before the first pair is asked for) holds the
    slider of table row k, on the grid k / LOG_RATE, which is not stored.
    A participant's models, rows and files are written only once its
    records pass the checks read_records makes: a record whose stimulus
    the plan does not give, with a slider in an exp3 plan, or without
    one on that grid with values in [0, 1] in an exp2 plan raises
    ValidationError naming its participant and trial; trials other than
    0, 1, ... or a likert that read_records would refuse raise it naming
    the participant.  `traces=False` skips only the temperature trace
    files; `traces/` is made only when a file is written into it.

    The models, table rows and slider rows are written here, in
    participant order.  The temperature traces go to _trace_writer's
    forked workers (one per usable CPU, at most one per participant,
    started at the first trace), which write them while `participants`
    makes the next pair.  Before the manifest is written, and before
    this returns or raises, every chunk has finished and the workers
    have exited; a worker's exception (an OSError naming the file, say)
    is raised here as it was raised there.
    """
    os.makedirs(out_dir, exist_ok=True)
    # A plain counter, not enumerate: enumerate's cached result tuple
    # would keep the previous pair alive while the next one is made.
    pidx, sliders = 0, None
    with contextlib.ExitStack() as files:
        write_traces = files.enter_context(_trace_writer(plan.participants))
        table = csv.writer(files.enter_context(
            open(os.path.join(out_dir, "trials.csv"), "w", newline="")))
        table.writerow(TABLE_HEADER)
        if plan.experiment == "exp2":
            sliders = files.enter_context(
                open(os.path.join(out_dir, "sliders.npy"), "wb"))
            np.lib.format.write_array_header_1_0(sliders, {
                "descr": "<f8", "fortran_order": False, "shape": (
                    plan.participants * plan.trials_per_participant, plan.samples)})
        for calibration, recs in participants:
            _write_participant(out_dir, pidx, calibration, recs,
                               write_traces if traces else None, plan, table, sliders)
            del calibration, recs
            pidx += 1
    if pidx != plan.participants:
        raise ValidationError(
            f"{pidx} (calibration, records) pairs given for a plan of "
            f"{plan.participants} participants; write_records needs one "
            f"pair per planned participant")
    manifest = json.dumps({
        "format_version": FORMAT_VERSION,
        "experiment": plan.experiment,
        "participants": plan.participants,
        "repetitions": plan.repetitions,
        "seed": plan.seed,
        "stimuli": [{"stimulus_id": stimulus_id(s), **asdict(s)}
                    for s in plan.stimuli],
        "traces": traces,
    }, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(manifest + "\n")


def read_records(run_dir) -> tuple[list[TrialRecord], dict]:
    """Load records written by write_records, with sliders for an exp2 run.

    A directory that is not a complete format-5 run raises
    ValidationError naming the file at fault, and the first participant
    (and trial) at fault where the fault is in a row.  The sliders of one
    participant share one time array, the grid k / LOG_RATE, so
    analyze_exp2 summarizes them as one block, one participant at a time.

    The manifest's stimuli must pass StimulusSpec's checks, and its plan
    ExperimentPlan's.  The table has write_records' header, then each
    participant's trials 0, 1, ... in row order, participants 0, 1, ...
    in turn, each with the id of a planned spec, which gives its kind,
    rate and ratio, and a likert that is empty or an integer from 1 to
    7.  An exp2 plan's slider array is float64 of shape
    (rows, plan.samples) with values in [0, 1].

    The slider array is mapped copy-on-write: the slider values are views
    of the mapping, which holds one open file while any of them lives,
    and writing to them leaves the file alone; truncating the file then
    is an error the process cannot catch (SIGBUS).
    """
    manifest_path = os.path.join(run_dir, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        version = manifest["format_version"]
        if version != FORMAT_VERSION:  # an older manifest need not parse as a plan
            raise ValidationError(
                f"format_version {version!r} is not read here; re-run "
                f"experiment-run to write format_version {FORMAT_VERSION}")
        plan = ExperimentPlan(manifest["experiment"], tuple(
            StimulusSpec(**{k: v for k, v in s.items() if k != "stimulus_id"})
            for s in manifest["stimuli"]),
            *(manifest[k] for k in ("repetitions", "participants", "seed")))
    except ValidationError as exc:  # an older format, or a plan ExperimentPlan refuses
        raise ValidationError(f"{manifest_path}: {exc}") from exc
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"cannot read {manifest_path} as a run manifest: {exc!r}") from exc
    stimuli = {stimulus_id(s): (s.kind, s.cooling_rate, s.cooling_ratio)
               for s in plan.stimuli}  # id -> a record's kind, vc, lambda
    path = os.path.join(run_dir, "trials.csv")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if (header := next(reader, [])) != TABLE_HEADER:
                raise ValueError(f"header {header}, not {TABLE_HEADER}")
            rows = [(int(part), int(trial), sid, int(likert) if likert else None)
                    for part, trial, sid, likert in filter(None, reader)]
    except (OSError, ValueError, csv.Error) as exc:
        raise ValidationError(f"cannot read {path}: {exc!r}") from exc
    _check_table(f"{path}: ", rows, stimuli, range(plan.participants),
                 plan.trials_per_participant)
    records = [TrialRecord(pidx, tidx, sid, *stimuli[sid], likert=likert)
               for pidx, tidx, sid, likert in rows]
    path = os.path.join(run_dir, "sliders.npy")
    if plan.experiment == "exp2":  # an exp3 run's trials have no slider
        try:
            sliders = np.lib.format.open_memmap(path, mode="c")
        except (EOFError, OSError, ValueError) as exc:
            raise ValidationError(f"{path} is not a readable .npy file: {exc}") from exc
        if sliders.dtype != np.float64 or sliders.shape != (len(rows), plan.samples):
            raise ValidationError(f"{path} holds {sliders.dtype} of shape {sliders.shape}"
                                  f", not float64 of shape {(len(rows), plan.samples)}")
        sliders = np.asarray(sliders)  # plain ndarray rows of the mapping
        _check_slider_values(f"{path}: ", sliders, rows)
        times = [np.arange(plan.samples) / LOG_RATE for _ in range(plan.participants)]
        for rec, values in zip(records, sliders):  # one time array per participant
            rec.slider = SliderTrace(times[rec.participant], values)
    return records, manifest
