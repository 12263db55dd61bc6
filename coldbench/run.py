"""Benchmark runner for coldsim.

    python3 coldbench/run.py --workload present-stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end metrics; with --trace 1 they are the per-layer metrics of
a traced phase that follows the untraced one.  The lines before it give
the output hash, the error breakdown and (traced) the per-layer table.
See coldbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "drift_gate_pass_ratio": "ratio",
}

# Package modules, plus the benchmark's own time in a traced phase.
LAYERS = ("pattern", "plant", "control", "experiment", "stats", "cli", "bench")

_CALLS_BUSY = ("calls", "count"), ("busy_s", "s")
PER_LAYER = {
    **{f"experiment.simulate_participant.{k}": u
       for k, u in _CALLS_BUSY + (("samples", "count"),)},
    **{f"control.run_control.{k}": u for k, u in _CALLS_BUSY + (("self_s", "s"),)},
    **{f"plant.run_span.{k}": u for k, u in _CALLS_BUSY + (("steps", "count"),)},
    **{f"plant.read_sensor.{k}": u for k, u in _CALLS_BUSY},
    **{f"control.calibrate.{k}": u for k, u in _CALLS_BUSY + (
        ("self_s", "s"), ("rounds", "count"), ("failed", "count"))},
    **{f"pattern.compile_schedule.{k}": u for k, u in _CALLS_BUSY},
    "pattern.segments_per_schedule": "count",
    **{f"control.schedule_to_timeline.{k}": u for k, u in _CALLS_BUSY},
    "experiment.write_records.busy_s": "s",
    "experiment.write_records.bytes": "bytes",
    "experiment.write_records.files": "count",
    "experiment.run_pipeline.busy_s": "s",
    "experiment.run_pipeline.self_s": "s",
    "experiment.read_records.busy_s": "s",
    "experiment.read_records.bytes": "bytes",
    "experiment.analyze_exp2.busy_s": "s",
    "experiment.analyze_exp2.self_s": "s",
    **{f"stats.kruskal_wallis.{k}": u for k, u in _CALLS_BUSY},
    **{f"stats.wilcoxon_rank_sum.{k}": u for k, u in _CALLS_BUSY + (
        ("exact_calls", "count"),)},
    "stats.benjamini_hochberg.busy_s": "s",
    **{f"cli.main.{k}": u for k, u in _CALLS_BUSY + (("self_s", "s"),)},
    **{f"layer.{layer}.{k}": u
       for layer in LAYERS for k, u in (("self_s", "s"), ("share", "ratio"))},
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("present-stream", "calibrate-fleet", "exp2-study"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def render(outcome, trace: bool) -> list[str]:
    """Output lines; the last one is the result object."""
    lines = []
    if trace:
        lines.append(f"per-layer table, workload {outcome.name} "
                     "(self share of the traced phase's wall time)")
        lines.append(f"{'span':40s} {'calls':>8s} {'busy_s':>10s} "
                     f"{'self_s':>10s} {'share':>7s}")
        for name, calls, busy, self_s, share in outcome.table:
            lines.append(f"{name:40s} {calls:8d} {busy:10.4f} {self_s:10.4f} "
                         f"{share:7.2%}")
        for layer in LAYERS:
            lines.append(f"layer {layer:34s} {'':8s} {'':10s} "
                         f"{outcome.layers[f'layer.{layer}.self_s']:10.4f} "
                         f"{outcome.layers[f'layer.{layer}.share']:7.2%}")
        lines.append(f"trace.overhead_ratio {outcome.layers['trace.overhead_ratio']:.4f}")
    summary = {
        "workload": outcome.name,
        "output_sha256": outcome.digest.hexdigest(),
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        "errors": dict(outcome.errors),
        **outcome.info,
        "end_to_end": outcome.metrics,
    }
    lines.append(json.dumps(summary))
    chosen = PER_LAYER if trace else END_TO_END
    source = outcome.layers if trace else outcome.metrics
    lines.append(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": source.get(name, 0), "unit": unit}
                    for name, unit in chosen.items()},
    }))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "coldsim", "__init__.py")):
        print(f"error: no coldsim package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    run = workloads.WORKLOADS[args.workload]
    outcome = run(args.seed, args.seconds, trace=bool(args.trace), out_dir=OUT_DIR)
    print("\n".join(render(outcome, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
