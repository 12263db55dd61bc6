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
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, asdict, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .control import (LED_DUTY_RANGE, VALVE_DUTY_RANGE, CalibrationResult,
                      DutyModel, calibrate, run_control, schedule_to_timeline)
from .errors import UnreachableRateError, ValidationError
from .pattern import StimulusSpec, compile_schedule, stimulus_id
from .plant import PlantParams, SkinPlant, Trace
from .stats import TestResult, benjamini_hochberg, kruskal_wallis, wilcoxon_rank_sum

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

# Run directory layout that write_records writes and read_records reads.
FORMAT_VERSION = 2


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
    seed: int = 0
    warm_attenuation: float = 0.3    # gain on perceived warming rates
    gain: float = 60.0               # slider deflection per degC/s
    hold_time: float = 3.0           # s release time of a held percept

    def __post_init__(self):
        numeric = (self.detect_threshold, self.slider_lag, self.response_noise,
                   self.warm_attenuation, self.gain, self.hold_time)
        if any(v < 0 for v in numeric):
            raise ValidationError("participant parameters must be non-negative")
        if not self.time_constant > 0:
            raise ValidationError("time_constant must be positive")


@dataclass(frozen=True)
class SliderTrace:
    """Cold-confidence slider sampled at 100 Hz; 1 = cold end, 0.5 = neutral."""

    time: np.ndarray
    values: np.ndarray


def _sample_dt(trace: Trace) -> float:
    """The trace's sampling step, checked against what the perceiver needs."""
    if len(trace.time) < 2:
        raise ValidationError("trace too short to differentiate")
    sample_dt = float(trace.time[1] - trace.time[0])
    if not sample_dt > 0:
        raise ValidationError(f"trace time must increase, got a step of {sample_dt} s")
    if sample_dt > 0.01 + 1e-9:
        raise ValidationError("participant model needs a trace sampled at >= 100 Hz")
    return sample_dt


def perceived_rate(trace: Trace, model: ParticipantModel) -> np.ndarray:
    """Low-passed skin-temperature rate as the participant senses it."""
    sample_dt = _sample_dt(trace)
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


def simulate_participant(trace: Trace, model: ParticipantModel,
                         rng: Optional[np.random.Generator] = None) -> SliderTrace:
    """Produce the slider response to a temperature trace.

    Pipeline: low-pass the rate, attenuate warming, apply the detection
    dead zone, map through a saturating gain around the neutral point,
    hold-and-release, delay by the motor lag, add clipped noise.
    """
    if rng is None:
        rng = np.random.default_rng(model.seed)
    t = np.asarray(trace.time, dtype=float)
    sample_dt = _sample_dt(trace)
    p = perceived_rate(trace, model)

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

    if model.response_noise > 0.0:
        lagged = lagged + rng.normal(0.0, model.response_noise, len(lagged))
    return SliderTrace(t, np.clip(lagged, 0.0, 1.0))


def persistence(slider: SliderTrace, window=PERSISTENCE_WINDOW) -> bool:
    """True when confidence stays above 50 % at every sample in the window."""
    lo, hi = window
    if slider.time[-1] < hi - 1e-9:
        raise ValidationError(f"persistence needs a trace covering {hi} s")
    mask = (slider.time >= lo) & (slider.time <= hi)
    return bool(np.all(slider.values[mask] > 0.5))


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
class PlannedStimulus:
    stimulus_id: str
    spec: StimulusSpec


@dataclass(frozen=True)
class ExperimentPlan:
    experiment: str  # "exp2" | "exp3"
    stimuli: tuple[PlannedStimulus, ...]
    repetitions: int
    participants: int
    seed: int

    @property
    def trials_per_participant(self) -> int:
        return len(self.stimuli) * self.repetitions


def build_exp2_plan(repetitions=3, participants=15, seed=0) -> ExperimentPlan:
    """Persistence-study plan: the EXP2_RATES x EXP2_RATIOS grid of
    alternating patterns plus drop-and-hold and continuous-cooling rows at
    each rate, all with StimulusSpec's swing, duration and drop."""
    specs = [StimulusSpec("S1", rate, ratio)
             for rate in EXP2_RATES for ratio in EXP2_RATIOS]
    specs += [StimulusSpec("S2", rate) for rate in EXP2_RATES]
    specs += [StimulusSpec("S3", rate) for rate in EXP2_RATES]
    stimuli = tuple(PlannedStimulus(stimulus_id(spec), spec) for spec in specs)
    return ExperimentPlan("exp2", stimuli, repetitions, participants, seed)


def build_exp3_plan(repetitions=3, participants=15, seed=0) -> ExperimentPlan:
    """Intensity-study plan: alternating patterns at EXP3_RATES and
    EXP3_RATIO plus drop-and-hold and continuous comparisons at
    EXP3_BASE_RATE, all with StimulusSpec's swing, duration and drop."""
    specs = [StimulusSpec("S1", rate, EXP3_RATIO) for rate in EXP3_RATES]
    specs += [StimulusSpec("S2", EXP3_BASE_RATE), StimulusSpec("S3", EXP3_BASE_RATE)]
    stimuli = tuple(PlannedStimulus(stimulus_id(spec), spec) for spec in specs)
    return ExperimentPlan("exp3", stimuli, repetitions, participants, seed)


@dataclass
class TrialRecord:
    participant: int
    trial: int            # presentation index within the participant
    stimulus_id: str
    kind: str
    cooling_rate: float
    cooling_ratio: Optional[float]
    seed: int
    slider: Optional[SliderTrace] = None
    likert: Optional[int] = None
    trace: Optional[Trace] = None


def _trial_seed(plan_seed: int, participant: int, trial: int) -> int:
    return plan_seed * 1_000_000 + participant * 1_000 + trial


def run_experiment(plan: ExperimentPlan,
                   plant_factory: Callable[[int], SkinPlant],
                   participants: Sequence[ParticipantModel],
                   models: Sequence[tuple[DutyModel, DutyModel]],
                   ) -> list[TrialRecord]:
    """Run every trial of a plan and return the records in run order.

    Presentation order is shuffled per participant from the plan seed.
    Each trial re-initializes the skin, drives the compiled pattern
    through the participant's calibrated models, and produces either a
    slider trace (exp2) or a coldness rating (exp3).
    """
    if len(participants) < plan.participants or len(models) < plan.participants:
        raise ValidationError("need one participant model and one model pair "
                              "per planned participant")
    records = []
    trial_list = [s for s in plan.stimuli for _ in range(plan.repetitions)]
    for pidx in range(plan.participants):
        plant = plant_factory(pidx)
        valve_model, led_model = models[pidx]
        timelines = {}
        for planned in plan.stimuli:
            try:
                timelines[planned.stimulus_id] = schedule_to_timeline(
                    compile_schedule(planned.spec), valve_model, led_model)
            except UnreachableRateError as exc:
                raise UnreachableRateError(
                    exc.channel, exc.target_rate, exc.rate_min, exc.rate_max,
                    segment_index=exc.segment_index,
                    stimulus_id=planned.stimulus_id) from exc
        order_rng = np.random.default_rng((plan.seed, pidx, 0xC01D))
        order = order_rng.permutation(len(trial_list))
        for tidx, which in enumerate(order):
            planned = trial_list[which]
            seed = _trial_seed(plan.seed, pidx, tidx)
            plant.reset()
            trace = run_control(timelines[planned.stimulus_id], plant)
            rng = np.random.default_rng(seed)
            slider = simulate_participant(trace, participants[pidx], rng)
            record = TrialRecord(
                participant=pidx, trial=tidx,
                stimulus_id=planned.stimulus_id, kind=planned.spec.kind,
                cooling_rate=planned.spec.cooling_rate,
                cooling_ratio=planned.spec.cooling_ratio,
                seed=seed, trace=trace)
            if plan.experiment == "exp2":
                record.slider = slider
            else:
                record.likert = default_likert_rating(
                    float(np.mean(slider.values)),
                    peak_cooling_rate(trace, participants[pidx]))
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
    every participant.
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
    l_hi_j = l_hi * (1.0 + rng.uniform(-rel, rel))
    while l_hi_j < 0.495:
        l_hi_j = l_hi * (1.0 + rng.uniform(-rel, rel))
    valve_gain = (v_hi - v_lo) / (v_max - v_min)
    valve_bias = v_lo - valve_gain * v_min
    led_gain = (l_hi_j - l_lo) / (l_max - l_min)
    led_bias = l_lo - led_gain * l_min
    return replace(base, valve_gain=valve_gain, valve_bias=valve_bias,
                   led_gain=led_gain, led_bias=led_bias)


def default_participants(n: int, seed: int = 0) -> list[ParticipantModel]:
    """n copies of the default perceiver, distinguished only by noise seed."""
    return [ParticipantModel(seed=seed * 10_000 + i) for i in range(n)]


@dataclass
class PipelineResult:
    plan: ExperimentPlan
    records: list[TrialRecord]
    calibrations: list[CalibrationResult]


def run_pipeline(plan: ExperimentPlan, base_params: Optional[PlantParams] = None,
                 jitter: float = 0.1) -> PipelineResult:
    """Plants, calibration, and trials for every participant in one call."""
    base = base_params if base_params is not None else PlantParams()
    plants = []
    calibrations = []
    for pidx in range(plan.participants):
        rng = np.random.default_rng((plan.seed, pidx, 0x71A))
        params = perturb_params(base, rng, rel=jitter) if jitter > 0 else base
        plant = SkinPlant(params, seed=(plan.seed, pidx, 0x5EED))
        calibrations.append(calibrate(plant))
        plants.append(plant)
    records = run_experiment(
        plan, lambda i: plants[i],
        default_participants(plan.participants, seed=plan.seed),
        [(c.valve, c.led) for c in calibrations])
    return PipelineResult(plan, records, calibrations)


# ---------------------------------------------------------------------------
# Analyses


def _mean_confidence(record: TrialRecord) -> float:
    """Per-trial mean confidence of cold over the presentation, percent."""
    return float(np.mean(record.slider.values)) * 100.0


def _group_values(records, key, value, pooling: str) -> dict:
    """Group per-trial values, optionally collapsing to participant means."""
    groups: dict = {}
    for rec in records:
        groups.setdefault(key(rec), []).append((rec.participant, value(rec)))
    out = {}
    for name, pairs in groups.items():
        if pooling == "participants":
            by_p: dict[int, list[float]] = {}
            for pidx, v in pairs:
                by_p.setdefault(pidx, []).append(v)
            out[name] = [sum(vs) / len(vs) for _, vs in sorted(by_p.items())]
        else:
            out[name] = [v for _, v in pairs]
    return out


def _kw_over(groups: dict) -> TestResult:
    return kruskal_wallis([groups[k] for k in sorted(groups)])


@dataclass
class PairwiseComparison:
    group_a: str
    group_b: str
    p_value: float
    p_adjusted: float = math.nan


@dataclass
class Exp2Report:
    pooling: str
    persistence_trial_pct: dict
    persistence_participant_pct: dict
    mean_confidence: dict
    kw_ratio_s1: TestResult
    kw_rate_s1: TestResult
    kw_rate_s2: TestResult
    kw_rate_s3: TestResult
    pairwise_by_rate: list[PairwiseComparison]

    def to_dict(self) -> dict:
        return {
            "pooling": self.pooling,
            "persistence_trial_pct": self.persistence_trial_pct,
            "persistence_participant_pct": self.persistence_participant_pct,
            "mean_confidence": self.mean_confidence,
            "kruskal_wallis": {
                "s1_by_ratio": asdict(self.kw_ratio_s1),
                "s1_by_rate": asdict(self.kw_rate_s1),
                "s2_by_rate": asdict(self.kw_rate_s2),
                "s3_by_rate": asdict(self.kw_rate_s3),
            },
            "pairwise_by_rate": [asdict(c) for c in self.pairwise_by_rate],
        }


def analyze_exp2(records: Sequence[TrialRecord], pooling: str = "trials") -> Exp2Report:
    """Persistence percentages, confidence summaries, and the test battery.

    Group tests run on per-trial mean confidences ("trials" pooling) or
    per-participant means ("participants").  Pairwise pattern-kind
    comparisons at each cooling rate are Benjamini-Hochberg adjusted as
    one family.
    """
    if pooling not in ("trials", "participants"):
        raise ValidationError("pooling must be 'trials' or 'participants'")
    if not records:
        raise ValidationError("no records to analyze")
    if any(rec.slider is None for rec in records):
        raise ValidationError("analyze_exp2 needs slider traces on every record")

    persist_trials: dict[str, list[bool]] = {}
    persist_parts: dict[str, dict[int, list[bool]]] = {}
    for rec in records:
        flag = persistence(rec.slider)
        persist_trials.setdefault(rec.stimulus_id, []).append(flag)
        persist_parts.setdefault(rec.stimulus_id, {}).setdefault(
            rec.participant, []).append(flag)
    persistence_trial_pct = {
        sid: 100.0 * sum(flags) / len(flags)
        for sid, flags in sorted(persist_trials.items())}
    # A participant counts as persistent on a pattern when most of their
    # trials of it are persistent.
    persistence_participant_pct = {
        sid: 100.0 * sum(
            1 for flags in by_p.values() if sum(flags) * 2 > len(flags)
        ) / len(by_p)
        for sid, by_p in sorted(persist_parts.items())}

    mean_conf = {
        sid: float(np.mean([_mean_confidence(r) for r in records
                            if r.stimulus_id == sid]))
        for sid in persistence_trial_pct}

    s1 = [r for r in records if r.kind == "S1"]
    s2 = [r for r in records if r.kind == "S2"]
    s3 = [r for r in records if r.kind == "S3"]
    kw_ratio_s1 = _kw_over(_group_values(
        s1, lambda r: r.cooling_ratio, _mean_confidence, pooling))
    kw_rate_s1 = _kw_over(_group_values(
        s1, lambda r: r.cooling_rate, _mean_confidence, pooling))
    kw_rate_s2 = _kw_over(_group_values(
        s2, lambda r: r.cooling_rate, _mean_confidence, pooling))
    kw_rate_s3 = _kw_over(_group_values(
        s3, lambda r: r.cooling_rate, _mean_confidence, pooling))

    by_kind_rate = _group_values(
        records, lambda r: (r.kind, r.cooling_rate), _mean_confidence, pooling)
    comparisons = []
    rates = sorted({r.cooling_rate for r in records})
    for rate in rates:
        for kind_a, kind_b in (("S1", "S2"), ("S1", "S3"), ("S2", "S3")):
            a = by_kind_rate.get((kind_a, rate))
            b = by_kind_rate.get((kind_b, rate))
            if a and b:
                result = wilcoxon_rank_sum(a, b)
                comparisons.append(PairwiseComparison(
                    f"{kind_a}@{rate}", f"{kind_b}@{rate}", result.p_value))
    adjusted = benjamini_hochberg([c.p_value for c in comparisons])
    for comp, adj in zip(comparisons, adjusted):
        comp.p_adjusted = adj

    return Exp2Report(pooling, persistence_trial_pct,
                      persistence_participant_pct, mean_conf,
                      kw_ratio_s1, kw_rate_s1, kw_rate_s2, kw_rate_s3,
                      comparisons)


@dataclass
class Exp3Report:
    pooling: str
    mean_rating: dict
    kw_stimulus: TestResult
    pairwise_raw: dict
    pairwise_adjusted: dict

    def to_dict(self) -> dict:
        return {
            "pooling": self.pooling,
            "mean_rating": self.mean_rating,
            "kruskal_wallis": asdict(self.kw_stimulus),
            "pairwise_raw": {a: dict(row) for a, row in self.pairwise_raw.items()},
            "pairwise_adjusted": {a: dict(row)
                                  for a, row in self.pairwise_adjusted.items()},
        }


def analyze_exp3(records: Sequence[TrialRecord], pooling: str = "trials") -> Exp3Report:
    """Coldness-rating summary, the 5-group test, and the adjusted pairwise matrix."""
    if pooling not in ("trials", "participants"):
        raise ValidationError("pooling must be 'trials' or 'participants'")
    if not records:
        raise ValidationError("no records to analyze")
    if any(rec.likert is None for rec in records):
        raise ValidationError("analyze_exp3 needs a rating on every record")

    groups = _group_values(records, lambda r: r.stimulus_id,
                           lambda r: float(r.likert), pooling)
    mean_rating = {sid: float(np.mean(vals)) for sid, vals in sorted(groups.items())}
    kw = _kw_over(groups)

    ids = sorted(groups)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    raw = [wilcoxon_rank_sum(groups[a], groups[b]).p_value for a, b in pairs]
    adjusted = benjamini_hochberg(raw)
    raw_matrix = {a: {} for a in ids}
    adj_matrix = {a: {} for a in ids}
    for (a, b), p, padj in zip(pairs, raw, adjusted):
        raw_matrix[a][b] = raw_matrix[b][a] = p
        adj_matrix[a][b] = adj_matrix[b][a] = padj
    return Exp3Report(pooling, mean_rating, kw, raw_matrix, adj_matrix)


# ---------------------------------------------------------------------------
# Record export / import


def write_records(records: Sequence[TrialRecord], plan: ExperimentPlan,
                  out_dir, traces: bool = True) -> None:
    """One CSV and one slider array per participant, a temperature trace
    CSV per trial, and a manifest.

    Row k of `pXX_slider.npy` (float64, shape (trials, 2, samples)) holds
    the time grid and slider values of row k of `participant_XX.csv`;
    `traces=False` skips only the temperature trace files.
    """
    os.makedirs(out_dir, exist_ok=True)
    trace_dir = os.path.join(out_dir, "traces")
    if any(rec.trace is not None and traces or rec.slider is not None
           for rec in records):
        os.makedirs(trace_dir, exist_ok=True)
    by_participant: dict[int, list[TrialRecord]] = {}
    for rec in records:
        by_participant.setdefault(rec.participant, []).append(rec)
    for pidx, recs in sorted(by_participant.items()):
        recs = sorted(recs, key=lambda r: r.trial)
        path = os.path.join(out_dir, f"participant_{pidx:02d}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "stimulus_id", "kind", "vc", "lambda",
                             "seed", "likert"])
            for rec in recs:
                writer.writerow([
                    rec.trial, rec.stimulus_id, rec.kind, rec.cooling_rate,
                    "" if rec.cooling_ratio is None else rec.cooling_ratio,
                    rec.seed, "" if rec.likert is None else rec.likert])
        for rec in recs:
            if traces and rec.trace is not None:
                rec.trace.to_csv(os.path.join(
                    trace_dir, f"p{pidx:02d}_t{rec.trial:03d}_temp.csv"))
        if any(rec.slider is not None for rec in recs):
            np.save(os.path.join(trace_dir, f"p{pidx:02d}_slider.npy"),
                    np.stack([(rec.slider.time, rec.slider.values)
                              for rec in recs], dtype=np.float64))
    manifest = {
        "format_version": FORMAT_VERSION,
        "experiment": plan.experiment,
        "participants": plan.participants,
        "repetitions": plan.repetitions,
        "seed": plan.seed,
        "trials_per_participant": plan.trials_per_participant,
        "stimuli": [{"stimulus_id": s.stimulus_id, **asdict(s.spec)}
                    for s in plan.stimuli],
        "traces": traces,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_records(run_dir) -> tuple[list[TrialRecord], dict]:
    """Load records written by write_records; sliders load when present.

    A directory that is not a complete format-2 run raises
    ValidationError naming the file at fault.
    """
    manifest_path = os.path.join(run_dir, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        version = manifest["format_version"]
        participants = range(manifest["participants"])
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"cannot read {manifest_path} as a run manifest: {exc!r}") from exc
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"{manifest_path}: format_version {version!r} is not read here; "
            f"re-run experiment-run to write format_version {FORMAT_VERSION}")
    records = []
    for pidx in participants:
        path = os.path.join(run_dir, f"participant_{pidx:02d}.csv")
        try:
            with open(path, newline="") as fh:
                table = [TrialRecord(
                    participant=pidx, trial=int(row["trial"]),
                    stimulus_id=row["stimulus_id"], kind=row["kind"],
                    cooling_rate=float(row["vc"]),
                    cooling_ratio=float(row["lambda"]) if row["lambda"] else None,
                    seed=int(row["seed"]),
                    likert=int(row["likert"]) if row["likert"] else None)
                    for row in csv.DictReader(fh)]
        except (KeyError, OSError, TypeError, ValueError) as exc:
            raise ValidationError(f"cannot read {path}: {exc!r}") from exc
        path = os.path.join(run_dir, "traces", f"p{pidx:02d}_slider.npy")
        if os.path.exists(path):
            try:
                sliders = np.load(path, allow_pickle=False)
            except (EOFError, OSError, ValueError) as exc:
                raise ValidationError(
                    f"{path} is not a readable .npy file: {exc}") from exc
            if not isinstance(sliders, np.ndarray):  # np.load also opens .npz
                sliders.close()
                raise ValidationError(f"{path} is an .npz archive, not an .npy file")
            if (sliders.dtype != np.float64 or sliders.ndim != 3
                    or sliders.shape[:2] != (len(table), 2)):
                raise ValidationError(
                    f"{path} holds {sliders.dtype} of shape {sliders.shape}, not "
                    f"float64 of shape ({len(table)}, 2, samples)")
            for rec, (time, values) in zip(table, sliders):
                rec.slider = SliderTrace(time, values)
        records.extend(table)
    return records, manifest
