"""The benchmark's three workloads.

Every workload is one closed-loop client in one process: the next
request starts only when the previous one has returned.  Inputs come
from the seed alone.  Each workload

- sets itself up several times and reports the median set-up time,
- runs requests for the requested number of seconds (in whole blocks,
  so the stimulus mix is identical on every run) and at least enough of
  them to support its tail percentile,
- checks every output and counts each problem as a failed operation
  instead of raising,
- re-runs a seeded sample and requires bit-identical output, and
- hashes its simulated outputs (net temperature change per presentation,
  calibration rounds, persistence tables) so a speed-only change can
  show it left them alone.

With trace=True a traced phase over a fixed amount of work follows the
untraced one; the per-layer numbers come from it and the untraced phase
gives the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import struct
from collections import Counter
from dataclasses import replace
from statistics import median
from time import perf_counter, perf_counter_ns

import numpy as np

from coldsim import cli, control, experiment, pattern, plant

import spans
from pace import Pace, paced_call

# Net skin-temperature change a presentation may leave, degC.
DRIFT_GATE = 0.1
LOG_RATE = 100.0
DURATION = 15.0

# present-stream: the full exp2 grid at two swings, plus S2 and S3.
SWINGS = (0.03, 0.06)

# calibrate-fleet: process noise on odd-numbered plants (degC/s) and rate
# measurement noise on every calibration (degC/s).  Small enough that
# every calibration converges, large enough to change the rounds.
PLANT_NOISE = 0.01
MEASUREMENT_NOISE = 0.002
FLEET_BLOCK = 32

# Tail percentile of each request stream, and the requests a run needs
# for ten samples beyond it.
PRESENT_TAIL = 99.0
FLEET_TAIL = 95.0


def samples_for(tail_q: float) -> int:
    return int(round(10 / (1.0 - tail_q / 100.0)))


# Requests between two machine-speed probes (about 20 ms of work).
PRESENT_PROBE_EVERY = 8
FLEET_PROBE_EVERY = 2
# Requests whose outputs are hashed and gated, independent of how many
# requests a run completes.  Re-run at the end for determinism.
RECHECK = 16


def stimuli() -> list[pattern.StimulusSpec]:
    specs = [pattern.StimulusSpec("S1", rate, ratio, swing, DURATION)
             for swing in SWINGS
             for rate in experiment.EXP2_RATES
             for ratio in experiment.EXP2_RATIOS]
    specs += [pattern.StimulusSpec("S2", rate, duration=DURATION, drop_duration=5.0)
              for rate in experiment.EXP2_RATES]
    specs += [pattern.StimulusSpec("S3", rate, duration=DURATION)
              for rate in experiment.EXP2_RATES]
    return specs


class Outcome:
    """Counts, metrics and output digest of one workload run."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.metrics: dict = {}
        self.layers: dict = {}
        self.table: list = []
        self.info: dict = {}
        self.digest = hashlib.sha256()

    def check(self, problem) -> bool:
        """Count one checked operation; problem is None when it passed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.errors[problem] += 1
        return problem is None

    def hash_floats(self, *values) -> None:
        self.digest.update(struct.pack(f"<{len(values)}d", *values))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def trace_problem(trace, duration: float):
    """None when the trace covers [0, duration] at LOG_RATE with finite temps."""
    n = int(round(duration * LOG_RATE)) + 1
    if len(trace.time) != n:
        return "trace_length"
    if trace.time[0] != 0.0 or abs(trace.time[-1] - duration) > 1e-9:
        return "trace_span"
    if not np.allclose(np.diff(trace.time), 1.0 / LOG_RATE, rtol=0.0, atol=1e-9):
        return "trace_rate"
    if not np.all(np.isfinite(trace.temp)):
        return "trace_not_finite"
    return None


def slider_problem(slider, time):
    if not np.array_equal(slider.time, time):
        return "slider_time"
    values = slider.values
    if not np.all(np.isfinite(values)) or values.min() < 0.0 or values.max() > 1.0:
        return "slider_range"
    return None


def timed_setup(build, reps: int):
    """Run build reps times: (last result, every result, median seconds at
    nominal speed, median raw seconds)."""
    runs = [paced_call(build) for _ in range(reps)]
    return (runs[-1][0], [r[0] for r in runs],
            median(r[2] for r in runs) / 1e9, median(r[1] for r in runs) / 1e9)


def latency_metrics(latencies_ns, tail_q: float) -> dict:
    lat = np.asarray(latencies_ns, dtype=float)
    return {"throughput_per_s": len(lat) / (lat.sum() / 1e9),
            "latency_p50_ms": float(np.percentile(lat, 50)) / 1e6,
            "latency_tail_ms": float(np.percentile(lat, tail_q)) / 1e6}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finish(out: Outcome, setup, latencies_ns, scaled_ns, tail_q, gate_pass,
           gate_total, units=None):
    """Fill the end-to-end metrics from latencies at nominal machine speed;
    the raw ones go to out.info.  units is the work done over all
    requests (default: one unit per request)."""
    metrics = latency_metrics(scaled_ns, tail_q)
    raw = latency_metrics(latencies_ns, tail_q)
    if units is not None:
        metrics["throughput_per_s"] *= units / len(latencies_ns)
        raw["throughput_per_s"] *= units / len(latencies_ns)
    out.metrics.update({
        "setup_s": setup[0],
        **metrics,
        "peak_rss_mb": peak_rss_mb(),
        "success_ratio": 1.0 - out.failed / out.attempted,
        "drift_gate_pass_ratio": gate_pass / gate_total if gate_total else 0.0,
    })
    out.info.update({"samples": len(latencies_ns), "tail_percentile": tail_q,
                     "drift_gate": f"{gate_pass}/{gate_total}",
                     "raw": {"setup_s": setup[1], **raw}})


def add_trace(out: Outcome, tracer, wall_s: float, traced_s: float,
              untraced_s: float, spans_path: str) -> None:
    out.layers, out.table = spans.summarize(tracer, wall_s)
    out.layers["trace.overhead_ratio"] = traced_s / untraced_s
    tracer.write(spans_path)


# ---------------------------------------------------------------------------
# present-stream


def calibrated_participants(seed: int, count: int):
    """Jittered plant parameters, calibrations and perceivers, drawn the
    way run_pipeline draws them."""
    people = experiment.default_participants(count, seed=seed)
    fleet = []
    for pidx in range(count):
        rng = np.random.default_rng((seed, pidx, 0x71A))
        params = experiment.perturb_params(plant.PlantParams(), rng)
        result = control.calibrate(plant.SkinPlant(params, seed=(seed, pidx, 0x5EED)))
        fleet.append((params, result, people[pidx]))
    return fleet


def present(spec, models, sim, person, request_seed):
    """One presentation: compile, convert, reset, drive, perceive."""
    schedule = pattern.compile_schedule(spec)
    timeline = control.schedule_to_timeline(schedule, models.valve, models.led)
    sim.reset()
    trace = control.run_control(timeline, sim)
    slider = experiment.simulate_participant(
        trace, person, np.random.default_rng(request_seed))
    return trace, slider


def present_stream(seed, seconds, *, out_dir, trace=False, participants=16,
                   min_samples=samples_for(PRESENT_TAIL), setup_reps=5,
                   plant_class=plant.SkinPlant) -> Outcome:
    out = Outcome("present-stream")
    specs = stimuli()

    def build():
        # Requests are served by a fresh plant with the calibrated
        # parameters, so plant_class never affects calibration.
        fleet = calibrated_participants(seed, participants)
        servers = [plant_class(params, seed=(seed, pidx))
                   for pidx, (params, _, _) in enumerate(fleet)]
        return fleet, servers

    (fleet, servers), builds, *setup = timed_setup(build, setup_reps)
    for _, result, _ in fleet:
        out.digest.update(str(result.iterations).encode())
        out.hash_floats(result.valve.slope, result.valve.intercept,
                        result.led.slope, result.led.intercept)

    def models(fleet_):
        return [(r.valve, r.led, r.iterations) for _, r, _ in fleet_]

    same = all(models(f) == models(fleet) for f, _ in builds)
    out.check(None if same else "setup_not_deterministic")

    block = participants * len(specs)

    def requests(block_index):
        order = np.random.default_rng((seed, block_index, 0xB10C)).permutation(block)
        for k in order:
            yield divmod(int(k), len(specs))

    def serve(index, pidx, sidx, sims):
        _, result, person = fleet[pidx]
        t0 = perf_counter_ns()
        try:
            trace, slider = present(specs[sidx], result, sims[pidx], person,
                                    (seed, index))
        except Exception as exc:  # counted, not raised: the run goes on
            return perf_counter_ns() - t0, type(exc).__name__, None, None
        elapsed = perf_counter_ns() - t0
        problem = trace_problem(trace, DURATION) or slider_problem(slider, trace.time)
        return elapsed, problem, trace, slider

    latencies, samples = [], []
    pace = Pace()
    gate_pass = gate_total = 0
    t_start = perf_counter()
    index = block_index = 0
    while (block_index == 0 or perf_counter() - t_start < seconds
           or len(latencies) < min_samples):
        for pidx, sidx in requests(block_index):
            if index % PRESENT_PROBE_EVERY == 0:
                pace.probe(index)
            elapsed, problem, trace_, slider = serve(index, pidx, sidx, servers)
            latencies.append(elapsed)
            if out.check(problem) and block_index == 0:
                net = trace_.net_delta_t
                out.hash_floats(net)
                if specs[sidx].kind == "S1":
                    gate_total += 1
                    gate_pass += abs(net) <= DRIFT_GATE
                if index < RECHECK:
                    samples.append((pidx, sidx, trace_.temp.tobytes(),
                                    slider.values.tobytes()))
            index += 1
        block_index += 1

    for i, (pidx, sidx, temp, values) in enumerate(samples):
        _, problem, trace_, slider = serve(i, pidx, sidx, servers)
        same = (problem is None and trace_.temp.tobytes() == temp
                and slider.values.tobytes() == values)
        out.check(None if same else "rerun_differs")
    finish(out, setup, latencies, pace.scale(latencies), PRESENT_TAIL, gate_pass,
           gate_total)

    if trace:
        tracer = spans.Tracer()
        traced_latencies = []
        with spans.instrument(tracer):
            traced_class = spans.traced_plant_class(tracer, plant_class)
            sims = [traced_class(params, seed=(seed, pidx))
                    for pidx, (params, _, _) in enumerate(fleet)]
            t0 = perf_counter()
            for i, (pidx, sidx) in enumerate(requests(0)):
                elapsed, problem, _, _ = serve(i, pidx, sidx, sims)
                traced_latencies.append(elapsed)
                out.check(problem)
            wall = perf_counter() - t0
        add_trace(out, tracer, wall, sum(traced_latencies),
                  sum(latencies[:block]),
                  os.path.join(out_dir, f"spans-present-stream-{seed}.jsonl.gz"))
    return out


# ---------------------------------------------------------------------------
# calibrate-fleet


def fleet_member(seed: int, index: int):
    """Jittered plant parameters, plant seed and protocol of request index."""
    params = experiment.perturb_params(
        plant.PlantParams(), np.random.default_rng((seed, index, 0xF1EE7)))
    if index % 2:
        params = replace(params, noise_sigma=PLANT_NOISE)
    protocol = control.CalibrationProtocol(measurement_noise=MEASUREMENT_NOISE,
                                           noise_seed=seed * 1_000_003 + index)
    return params, (seed, index, 0x5EED), protocol


def calibration_problem(result, protocol):
    if not 1 <= result.iterations <= protocol.max_iters:
        return "calibration_rounds"
    if not all(check.passed for check in result.verification[-1]):
        return "calibration_gate"
    coefficients = (result.valve.slope, result.valve.intercept,
                    result.led.slope, result.led.intercept)
    if not all(np.isfinite(coefficients)) or result.valve.slope >= 0 \
            or result.led.slope <= 0:
        return "calibration_model"
    return None


def calibrate_fleet(seed, seconds, *, out_dir, trace=False,
                    min_samples=samples_for(FLEET_TAIL), setup_reps=5,
                    block=FLEET_BLOCK, plant_class=plant.SkinPlant) -> Outcome:
    out = Outcome("calibrate-fleet")

    def build():
        # Warm the calibration path (lazy imports, exact-rational caches)
        # on the default plant, then draw the first block's inputs.
        control.calibrate(plant.SkinPlant(plant.PlantParams(), seed=seed))
        return [fleet_member(seed, i) for i in range(block)]

    _, _, *setup = timed_setup(build, setup_reps)

    def serve(index, cls):
        params, plant_seed, protocol = fleet_member(seed, index)
        t0 = perf_counter_ns()
        try:
            result = control.calibrate(cls(params, seed=plant_seed), protocol)
        except Exception as exc:  # counted, not raised: the run goes on
            return perf_counter_ns() - t0, type(exc).__name__, None
        elapsed = perf_counter_ns() - t0
        return elapsed, calibration_problem(result, protocol), result

    def fingerprint(result):
        nets = [c.net_delta_t for round_ in result.verification for c in round_]
        return (result.iterations, result.valve, result.led, nets)

    hashed = 2 * block
    latencies, samples = [], []
    pace = Pace()
    gate_pass = gate_total = 0
    t_start = perf_counter()
    index = 0
    while (index < hashed or perf_counter() - t_start < seconds
           or len(latencies) < min_samples):
        for _ in range(block):
            if index % FLEET_PROBE_EVERY == 0:
                pace.probe(index)
            elapsed, problem, result = serve(index, plant_class)
            latencies.append(elapsed)
            if out.check(problem) and index < hashed:
                iterations, valve, led, nets = fingerprint(result)
                out.digest.update(str(iterations).encode())
                out.hash_floats(valve.slope, valve.intercept, led.slope,
                                led.intercept, *nets)
                gate_total += len(nets)
                gate_pass += sum(abs(n) <= DRIFT_GATE for n in nets)
                if index < RECHECK:
                    samples.append(fingerprint(result))
            index += 1

    for i, expected in enumerate(samples):
        _, problem, result = serve(i, plant_class)
        same = problem is None and fingerprint(result) == expected
        out.check(None if same else "rerun_differs")
    finish(out, setup, latencies, pace.scale(latencies), FLEET_TAIL, gate_pass,
           gate_total)

    if trace:
        tracer = spans.Tracer()
        traced_latencies = []
        with spans.instrument(tracer):
            traced_class = spans.traced_plant_class(tracer, plant_class)
            t0 = perf_counter()
            for i in range(hashed):
                elapsed, problem, _ = serve(i, traced_class)
                traced_latencies.append(elapsed)
                out.check(problem)
            wall = perf_counter() - t0
        add_trace(out, tracer, wall, sum(traced_latencies),
                  sum(latencies[:hashed]),
                  os.path.join(out_dir, f"spans-calibrate-fleet-{seed}.jsonl.gz"))
    return out


# ---------------------------------------------------------------------------
# exp2-study

POOLINGS = ("trials", "participants")


def cli_run(argv):
    """Run one coldsim command in-process; the problem, or None."""
    try:
        code = cli.main(argv)
    except Exception as exc:  # counted, not raised: the run goes on
        return type(exc).__name__
    return None if code == 0 else f"exit_{code}"


def plain_call(fn):
    """paced_call without probes, for calls that must not be interrupted."""
    t0 = perf_counter_ns()
    result = fn()
    elapsed = perf_counter_ns() - t0
    return result, elapsed, elapsed


def run_study(work, seed, participants, repetitions, timer, poolings=POOLINGS):
    """experiment-run then experiment-analyze per pooling, as a user would;
    (problem, ns, ns at nominal speed) per command."""
    os.makedirs(work, exist_ok=True)
    run_dir = os.path.join(work, "run")
    argvs = [["experiment-run", "--exp", "2", "--participants", str(participants),
              "--repetitions", str(repetitions), "--seed", str(seed),
              "--out", run_dir, "--quiet"]]
    argvs += [["experiment-analyze", "--exp", "2", "--runs", run_dir,
               "--pooling", pooling, "--quiet",
               "--out", os.path.join(work, f"report-{pooling}.json")]
              for pooling in poolings]
    return [timer(lambda argv=argv: cli_run(argv)) for argv in argvs]


def temp_trace_problem(path):
    """(problem or None, net delta T) of a written temperature trace CSV.

    The header, then one row per 100 Hz sample from 0 to DURATION.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return "temp_trace_missing", 0.0
    if len(lines) != int(round(DURATION * LOG_RATE)) + 2:
        return "trace_length", 0.0
    first, last = lines[1].split(b","), lines[-1].split(b",")
    if float(first[0]) != 0.0 or float(last[0]) != DURATION:
        return "trace_span", 0.0
    net = float(last[1]) - float(first[1])
    return (None if np.isfinite(net) else "trace_not_finite"), net


def check_study(out: Outcome, work, seed, participants, repetitions):
    """Check a finished study directory; returns (gate passes, S1 trials)."""
    run_dir = os.path.join(work, "run")
    plan = experiment.build_exp2_plan(participants=participants,
                                      repetitions=repetitions, seed=seed)
    try:
        records, _ = experiment.read_records(run_dir)
    except Exception as exc:  # counted, not raised: the run goes on
        out.check(f"read_records_{type(exc).__name__}")
        return 0, 0
    expected = {(p, t) for p in range(participants)
                for t in range(plan.trials_per_participant)}
    out.check(None if sorted((r.participant, r.trial) for r in records)
              == sorted(expected) else "records_missing")

    grid = np.arange(int(round(DURATION * LOG_RATE)) + 1) / LOG_RATE
    gate_pass = gate_total = 0
    nets = {}
    for rec in records:
        stem = f"p{rec.participant:02d}_t{rec.trial:03d}"
        problem, net = temp_trace_problem(
            os.path.join(run_dir, "traces", stem + "_temp.csv"))
        if rec.slider is None:
            problem = problem or "slider_missing"
        else:
            problem = problem or slider_problem(rec.slider, grid)
        if out.check(problem):
            nets[rec.participant, rec.trial] = net
            out.hash_floats(net)
            if rec.kind == "S1":
                gate_total += 1
                gate_pass += abs(net) <= DRIFT_GATE

    for pidx in range(participants):
        try:
            with open(os.path.join(run_dir, f"models_{pidx:02d}.json")) as fh:
                meta = json.load(fh)["meta"]
        except (OSError, ValueError, KeyError):
            out.check("models_missing")
            continue
        out.digest.update(str(meta["iterations"]).encode())
    for pooling in POOLINGS:
        try:
            with open(os.path.join(work, f"report-{pooling}.json")) as fh:
                report = json.load(fh)
            table = report["persistence_trial_pct"], report["persistence_participant_pct"]
        except (OSError, ValueError, KeyError):
            out.check("report_missing")
            continue
        ok = all(len(t) == len(plan.stimuli) and all(0 <= v <= 100 for v in t.values())
                 for t in table)
        out.check(None if ok else "persistence_table")
        out.digest.update(json.dumps(table, sort_keys=True).encode())

    # Re-simulate participant 0 on its own: the study promises identical
    # output for identical seeds, and read_records must return exactly
    # what was written.
    again = experiment.run_pipeline(experiment.build_exp2_plan(
        participants=1, repetitions=repetitions, seed=seed))
    written = {r.trial: r for r in records if r.participant == 0}
    same = len(again.records) == len(written) and all(
        r.stimulus_id == written[r.trial].stimulus_id
        and written[r.trial].slider is not None
        and np.array_equal(r.slider.values, written[r.trial].slider.values)
        and r.trace.net_delta_t == nets.get((0, r.trial))
        for r in again.records if r.trial in written)
    out.check(None if same else "rerun_differs")
    return gate_pass, gate_total


def exp2_study(seed, seconds, *, out_dir, trace=False, participants=15,
               repetitions=3, setup_reps=3) -> Outcome:
    out = Outcome("exp2-study")
    work = os.path.join(out_dir, f"study-{os.getpid()}")
    trials = participants * len(experiment.build_exp2_plan().stimuli) * repetitions

    def build():
        # A one-participant, one-repetition study through the same
        # commands loads every lazily imported path the timed study uses.
        shutil.rmtree(work, ignore_errors=True)
        calls = run_study(work, seed, 1, 1, plain_call, POOLINGS[:1])
        problems = [problem for problem, _, _ in calls]
        shutil.rmtree(work, ignore_errors=True)
        return problems

    try:
        _, builds, *setup = timed_setup(build, setup_reps)
        for problem in (p for problems in builds for p in problems):
            out.check(problem)

        latencies, scaled = [], []
        gate_pass = gate_total = studies = 0
        t_start = perf_counter()
        while studies == 0 or perf_counter() - t_start < seconds:
            calls = run_study(work, seed, participants, repetitions, paced_call)
            for problem, elapsed, at_nominal in calls:
                latencies.append(elapsed)
                scaled.append(at_nominal)
                out.check(problem)
            passed, total = check_study(out, work, seed, participants, repetitions)
            gate_pass += passed
            gate_total += total
            studies += 1
            shutil.rmtree(work, ignore_errors=True)
        finish(out, setup, latencies, scaled, 100.0, gate_pass, gate_total,
               units=trials * studies)
        run_s = [lat for i, lat in enumerate(scaled) if i % 3 == 0]
        out.info.update({"studies": studies, "trials": trials * studies,
                         "study_run_s": median(run_s) / 1e9,
                         "study_analyze_s": (sum(scaled) - sum(run_s))
                         / studies / 1e9})

        if trace:
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                t0 = perf_counter()
                # Unpaced: a probe inside a span would be charged to it.
                calls = run_study(work, seed, participants, repetitions, plain_call)
                wall = perf_counter() - t0
            for problem, _, _ in calls:
                out.check(problem)
            add_trace(out, tracer, wall, sum(c[1] for c in calls),
                      sum(latencies[:3]),
                      os.path.join(out_dir, f"spans-exp2-study-{seed}.jsonl.gz"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


WORKLOADS = {
    "present-stream": present_stream,
    "calibrate-fleet": calibrate_fleet,
    "exp2-study": exp2_study,
}
