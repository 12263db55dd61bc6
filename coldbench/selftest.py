"""Self-tests of the benchmark itself.

    python3 coldbench/selftest.py

Runs every workload at a tiny size, traced and untraced, and checks that
each named metric is printed with its unit; that an injected bad output
(a plant that returns NaN temperatures) shows up as failed operations;
that BENCHMARK.json and the runner agree on the metrics; and that the
runner exits nonzero without a result where the package is missing.
Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import numpy as np  # noqa: E402

from coldsim import plant  # noqa: E402

import workloads  # noqa: E402

OUT = os.path.join(run.OUT_DIR, "selftest")

TINY = {
    "present-stream": dict(participants=1, min_samples=0, setup_reps=1),
    "calibrate-fleet": dict(min_samples=0, setup_reps=1, block=4),
    "exp2-study": dict(participants=1, repetitions=1, setup_reps=1),
}


class NaNPlant(plant.SkinPlant):
    """A broken plant: NaN temperatures and NaN sensor readings."""

    def run_span(self, *args, **kwargs):
        return np.full_like(super().run_span(*args, **kwargs), np.nan)

    def read_sensor(self, resolution=plant.DEFAULT_SENSOR_RESOLUTION):
        return plant.SensorReading(float("nan"), resolution)


def tiny(name, seed=3, trace=False, **overrides):
    kwargs = {**TINY[name], **overrides}
    return workloads.WORKLOADS[name](seed, 0, trace=trace, out_dir=OUT, **kwargs)


def result_line(outcome, trace):
    return json.loads(run.render(outcome, trace)[-1])


def test_every_metric_printed_with_unit():
    for name in TINY:
        for trace in (False, True):
            outcome = tiny(name, trace=trace)
            result = result_line(outcome, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (name, outcome.errors)
            expected = run.PER_LAYER if trace else run.END_TO_END
            assert list(result["metrics"]) == list(expected), name
            for metric, unit in expected.items():
                entry = result["metrics"][metric]
                assert entry["unit"] == unit, (name, metric)
                assert isinstance(entry["value"], (int, float)), (name, metric)
                if not trace:
                    assert entry["value"] > 0, (name, metric)
            if trace:
                assert outcome.layers["trace.spans"] > 0
                assert outcome.table, name


def test_injected_nan_is_counted():
    for name in ("present-stream", "calibrate-fleet"):
        outcome = tiny(name, plant_class=NaNPlant)
        result = result_line(outcome, False)
        assert result["failed"] > 0 and not result["correct"], name
        assert result["metrics"]["success_ratio"]["value"] < 1.0, name


def test_outputs_repeat_for_a_seed():
    for name in ("present-stream", "calibrate-fleet"):
        first, again, other = tiny(name), tiny(name), tiny(name, seed=4)
        assert first.digest.hexdigest() == again.digest.hexdigest(), name
        assert first.digest.hexdigest() != other.digest.hexdigest(), name


def test_benchmark_json_matches_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(TINY)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_without_package():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "coldbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(run.HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(run.HERE, name), os.path.join(bare, "coldbench"))
    proc = subprocess.run(
        [sys.executable, "coldbench/run.py", "--workload", "present-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def main() -> int:
    failures = 0
    try:
        for name, test in sorted(globals().items()):
            if name.startswith("test_") and callable(test):
                try:
                    test()
                    print(f"ok    {name}")
                except AssertionError as exc:
                    failures += 1
                    print(f"FAIL  {name}: {exc!r}")
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("all self-tests passed" if failures == 0 else f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
