"""Span recording for the traced benchmark run.

Spans are recorded from outside the package: an instrumented SkinPlant
subclass records the plant's methods, and every other layer is timed by
temporarily replacing a public function under the module attribute its
caller looks it up through.  Nothing in coldsim itself is modified;
`instrument` restores every attribute it replaced.

A span is [name, start_ns, end_ns, parent_index].  Spans and counts
stay in memory until `write` stores them at the end of the run.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
from collections import Counter
from time import perf_counter_ns

from coldsim import cli, control, experiment, pattern, plant

# Module attribute -> functions replaced by traced wrappers.  Callers
# inside the package look these names up through their own module, so
# each module that calls a function gets its own wrapper.
PATCHED = {
    pattern: ("compile_schedule",),
    control: ("compile_schedule", "schedule_to_timeline", "run_control",
              "calibrate"),
    experiment: ("compile_schedule", "schedule_to_timeline", "run_control",
                 "calibrate", "simulate_participant", "run_experiment",
                 "run_pipeline", "write_records", "read_records",
                 "analyze_exp2", "kruskal_wallis", "wilcoxon_rank_sum",
                 "benjamini_hochberg"),
    cli: ("main",),
}

# Time the benchmark spends inside a traced call measuring its result
# (walking a directory for byte counts) is recorded under this name, so
# it is charged to the benchmark and not to the layer around it.
MEASURE = "bench.measure"


class Tracer:
    """In-memory span and counter store for one traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name; an exception counts as failed."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            self.end(index)

    def write(self, path: str) -> None:
        """Store spans (one JSON list per line) and counts, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _dir_bytes(path, keep=lambda name: True) -> tuple[int, int]:
    files = total = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            if keep(name):
                files += 1
                total += os.path.getsize(os.path.join(dirpath, name))
    return files, total


def _after_compile(tracer, result, args, kwargs):
    tracer.counts["pattern.segments"] += len(result.segments)


def _after_simulate(tracer, result, args, kwargs):
    tracer.counts["experiment.simulate_participant.samples"] += len(result.values)


def _after_calibrate(tracer, result, args, kwargs):
    tracer.counts["control.calibrate.rounds"] += result.iterations


def _after_wilcoxon(tracer, result, args, kwargs):
    if result.method == "wilcoxon_exact":
        tracer.counts["stats.wilcoxon_rank_sum.exact_calls"] += 1


def _after_write(tracer, result, args, kwargs):
    out_dir = kwargs.get("out_dir", args[2] if len(args) > 2 else None)
    files, total = _dir_bytes(out_dir)
    tracer.counts["experiment.write_records.files"] += files
    tracer.counts["experiment.write_records.bytes"] += total


def _after_read(tracer, result, args, kwargs):
    run_dir = kwargs.get("run_dir", args[0] if args else None)
    # read_records opens the manifest, participant tables and slider
    # traces, never the temperature traces.
    _, total = _dir_bytes(run_dir, keep=lambda name: not name.endswith("_temp.csv"))
    tracer.counts["experiment.read_records.bytes"] += total


AFTER = {
    "pattern.compile_schedule": _after_compile,
    "experiment.simulate_participant": _after_simulate,
    "control.calibrate": _after_calibrate,
    "stats.wilcoxon_rank_sum": _after_wilcoxon,
    "experiment.write_records": _after_write,
    "experiment.read_records": _after_read,
}


def span_name(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__


def _traced(tracer: Tracer, fn):
    name = span_name(fn)
    after = AFTER.get(name)

    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            tracer.call(MEASURE, after, tracer, result, args, kwargs)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def traced_plant_class(tracer: Tracer, base=plant.SkinPlant):
    """A SkinPlant subclass whose reset, run_span and read_sensor record spans."""

    class TracedPlant(base):
        def reset(self, *args, **kwargs):
            return tracer.call("plant.reset", super().reset, *args, **kwargs)

        def run_span(self, *args, **kwargs):
            temps = tracer.call("plant.run_span", super().run_span, *args, **kwargs)
            tracer.counts["plant.run_span.steps"] += len(temps)
            return temps

        def read_sensor(self, *args, **kwargs):
            return tracer.call("plant.read_sensor", super().read_sensor,
                               *args, **kwargs)

    return TracedPlant


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the package's public calls through traced wrappers.

    Plants that experiment.run_pipeline builds itself become traced
    plants; plants the benchmark builds are made from
    traced_plant_class directly.
    """
    saved = []
    try:
        for module, names in PATCHED.items():
            for name in names:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, _traced(tracer, original))
        saved.append((experiment, "SkinPlant", experiment.SkinPlant))
        experiment.SkinPlant = traced_plant_class(tracer, experiment.SkinPlant)
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


LAYERS = ("pattern", "plant", "control", "experiment", "stats", "cli")


def summarize(tracer: Tracer, wall_s: float) -> tuple[dict, list]:
    """Per-span-name and per-layer calls, busy and self time.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    Time inside the traced phase but outside every program span is the
    benchmark's own ("bench"), as is time under MEASURE spans.
    """
    child_ns = [0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            child_ns[parent] += end - start
    by_name: dict[str, dict] = {}
    top_ns = 0
    for index, (name, start, end, parent) in enumerate(tracer.spans):
        row = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns[index]) / 1e9
        if parent < 0:
            top_ns += end - start
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, row in by_name.items():
        layer_self[name.split(".", 1)[0]] += row["self_s"]
    layer_self["bench"] += max(0.0, wall_s - top_ns / 1e9)

    metrics = dict(tracer.counts)
    for name, row in by_name.items():
        for key, value in row.items():
            metrics[f"{name}.{key}"] = value
    calls = metrics.get("pattern.compile_schedule.calls", 0)
    if calls:
        metrics["pattern.segments_per_schedule"] = metrics["pattern.segments"] / calls
    for layer, value in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = value
        metrics[f"layer.{layer}.share"] = value / wall_s if wall_s > 0 else 0.0
    metrics["trace.spans"] = len(tracer.spans)

    rows = sorted(((name, row["calls"], row["busy_s"], row["self_s"],
                    row["self_s"] / wall_s if wall_s > 0 else 0.0)
                   for name, row in by_name.items()),
                  key=lambda r: -r[3])
    return metrics, rows
