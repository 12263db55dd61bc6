"""Command-line behavior: artifacts, exit codes, determinism."""

import csv
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest


def run_cli(*argv, cwd=None, umask=-1):
    return subprocess.run([sys.executable, "-m", "coldsim.cli", *argv],
                          capture_output=True, text=True, cwd=cwd, umask=umask)


def test_design_worked_example(tmp_path):
    out = tmp_path / "sched.csv"
    proc = run_cli("design", "--kind", "S1", "--vc", "-0.1", "--ratio", "0.5",
                   "--delta-t", "0.06", "--duration", "15", "--out", str(out),
                   umask=0o022)
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_mode & 0o777 == 0o644
    status = json.loads(proc.stdout)
    assert status["status"] == "ok" and status["command"] == "design"
    rows = list(csv.DictReader(out.open()))
    assert (float(rows[0]["start_s"]), float(rows[0]["end_s"]),
            float(rows[0]["rate_c_per_s"])) == (0.0, 0.6, -0.1)
    assert (float(rows[1]["start_s"]), float(rows[1]["end_s"]),
            float(rows[1]["rate_c_per_s"])) == (0.6, 1.2, 0.1)


def test_design_validation_exit_code(tmp_path):
    for vc, out, named in (("0.1", tmp_path / "x.csv", "negative"),
                           ("-0.1", tmp_path / "nodir" / "x.csv", "nodir")):
        proc = run_cli("design", "--kind", "S1", "--vc", vc, "--ratio", "0.5",
                       "--out", str(out))
        assert proc.returncode == 1
        assert named in proc.stderr and ".tmp-coldsim-" not in proc.stderr
        assert not out.exists()
    assert not (tmp_path / "nodir").exists()


def test_unknown_flag_exit_code(tmp_path):
    proc = run_cli("design", "--kind", "S1", "--vc", "-0.1", "--frobnicate",
                   "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 1


def test_calibrate_and_simulate(tmp_path):
    models = tmp_path / "models.json"
    proc = run_cli("calibrate", "--out", str(models), "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(models.read_text())
    assert set(doc) == {"valve", "led", "meta"}
    assert doc["meta"]["iterations"] >= 1

    trace = tmp_path / "trace.csv"
    proc = run_cli("simulate", "--kind", "S3", "--vc", "-0.16",
                   "--models", str(models), "--out", str(trace))
    assert proc.returncode == 0, proc.stderr
    status = json.loads(proc.stdout)
    assert status["net_delta_t"] == pytest.approx(-2.4, abs=0.1)
    rows = list(csv.DictReader(trace.open()))
    assert len(rows) == 1501

    # Unreadable plant configs and model files exit 1 naming the file.
    bad_slope = json.loads(models.read_text())
    bad_slope["valve"]["slope"] = "x"
    bad = {"not_json.json": "{", "wrong_type.json": '{"valve_gain": "x"}',
           "array.json": "[1, 2]", "bad_slope.json": json.dumps(bad_slope),
           "missing.json": None}
    for name, text in bad.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        for flag in ("--config", "--models"):
            if flag == "--config" and name == "bad_slope.json":
                continue  # a plant config ignores the models' keys
            out = tmp_path / "bad.csv"
            proc = run_cli("simulate", "--kind", "S3", "--vc", "-0.16",
                           flag, str(path), "--out", str(out))
            assert proc.returncode == 1, (name, flag, proc.stderr)
            assert name in proc.stderr and "Traceback" not in proc.stderr, \
                (name, flag, proc.stderr)
            assert not out.exists()


def test_experiment_run_and_analyze(tmp_path):
    run_dir = tmp_path / "runs"
    proc = run_cli("experiment-run", "--exp", "3", "--participants", "2",
                   "--seed", "7", "--out", str(run_dir))
    assert proc.returncode == 0, proc.stderr
    status = json.loads(proc.stdout)
    assert status["trials"] == 2 * 15
    assert (run_dir / "manifest.json").exists()
    rows = list(csv.DictReader((run_dir / "participant_00.csv").open()))
    assert len(rows) == 15
    assert all(r["likert"] for r in rows)

    report_path = tmp_path / "report.json"
    proc = run_cli("experiment-analyze", "--exp", "3", "--runs", str(run_dir),
                   "--out", str(report_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    assert report["kruskal_wallis"]["df"] == 4
    assert "pairwise_adjusted" in report

    # Run directories read_records cannot interpret are rejected with exit 1.
    proc = run_cli("experiment-analyze", "--exp", "2", "--runs", str(run_dir),
                   "--out", str(tmp_path / "wrong_exp.json"))
    assert proc.returncode == 1, proc.stderr
    assert "exp2" in proc.stderr and "exp3" in proc.stderr

    def edit_manifest(**changes):
        def edit(copy):
            manifest = json.loads((copy / "manifest.json").read_text())
            manifest.update(changes)
            for key in [k for k, v in changes.items() if v is None]:
                del manifest[key]
            (copy / "manifest.json").write_text(json.dumps(manifest))
        return edit

    def edit_trial(copy):
        table = copy / "participant_00.csv"
        lines = table.read_text().splitlines(keepends=True)
        lines[1] = "x" + lines[1][lines[1].index(","):]
        table.write_text("".join(lines))

    def write_sliders(shape):
        def edit(copy):
            (copy / "traces").mkdir(exist_ok=True)
            np.save(copy / "traces" / "p01_slider.npy", np.zeros(shape))
        return edit

    corruptions = {
        "future": (edit_manifest(format_version=7), "format_version"),
        "v1": (edit_manifest(format_version=1), "re-run experiment-run"),
        "partial": (lambda copy: (copy / "participant_01.csv").unlink(),
                    "participant_01.csv"),
        "not_json": (lambda copy: (copy / "manifest.json").write_text("{oops"),
                     "manifest.json"),
        "no_participants": (edit_manifest(participants=None), "manifest.json"),
        "bad_trial": (edit_trial, "participant_00.csv"),
        "slider_rows": (write_sliders((14, 2, 1501)), "p01_slider.npy"),
        "slider_shape": (write_sliders((15, 1501)), "p01_slider.npy"),
    }
    for name, (edit, named) in corruptions.items():
        assert_analyze_rejects(tmp_path, run_dir, "3", name, edit, named)


def assert_analyze_rejects(tmp_path, run_dir, exp, name, edit, named):
    """A copy of run_dir changed by edit fails analysis with exit 1, an
    error naming `named`, and no report."""
    copy = tmp_path / name
    shutil.copytree(run_dir, copy)
    edit(copy)
    report = tmp_path / f"{name}.json"
    proc = run_cli("experiment-analyze", "--exp", exp, "--runs", str(copy),
                   "--out", str(report))
    assert proc.returncode == 1, (name, proc.stderr)
    assert named in proc.stderr and "Traceback" not in proc.stderr, (name, proc.stderr)
    assert not report.exists()


def test_experiment_run_exp2_analyzable_without_temp_traces(tmp_path):
    run_dir = tmp_path / "runs2"
    proc = run_cli("experiment-run", "--exp", "2", "--participants", "2",
                   "--seed", "3", "--no-traces", "--out", str(run_dir),
                   umask=0o022)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["trials"] == 2 * 105
    assert run_dir.stat().st_mode & 0o777 == 0o755
    assert not list((run_dir / "traces").glob("*_temp.csv"))
    assert not list((run_dir / "traces").glob("*_slider.csv"))
    assert len(list((run_dir / "traces").glob("p*_slider.npy"))) == 2

    report_path = tmp_path / "report2.json"
    proc = run_cli("experiment-analyze", "--exp", "2", "--runs", str(run_dir),
                   "--out", str(report_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    assert report["kruskal_wallis"]["s1_by_rate"]["df"] == 4
    assert report["kruskal_wallis"]["s1_by_ratio"]["df"] == 4
    assert len(report["pairwise_by_rate"]) == 15
    assert all(0 <= v <= 100 for v in report["persistence_trial_pct"].values())

    def truncate(copy):
        sliders = copy / "traces" / "p01_slider.npy"
        sliders.write_bytes(sliders.read_bytes()[:-8])

    assert_analyze_rejects(tmp_path, run_dir, "2", "truncated", truncate,
                           "p01_slider.npy")


def test_experiment_run_refuses_nonempty_out(tmp_path):
    run_dir = tmp_path / "runs"
    run_dir.mkdir()
    (run_dir / "junk.txt").write_text("hello")
    out_file = tmp_path / "out.txt"
    out_file.write_text("keep")
    for out, kept, text in ((run_dir, run_dir / "junk.txt", "hello"),
                            (out_file, out_file, "keep"),
                            (tmp_path / "nodir" / "run", None, None)):
        proc = run_cli("experiment-run", "--exp", "3", "--participants", "1",
                       "--seed", "7", "--out", str(out))
        assert proc.returncode == 1, proc.stderr
        if kept is None:
            assert "nodir" in proc.stderr and ".tmp-" not in proc.stderr
        else:
            assert kept.read_text() == text
    assert not (tmp_path / "nodir").exists()


def test_cli_determinism_byte_identical(tmp_path):
    art = {}
    for label in ("a", "b"):
        base = tmp_path / label
        base.mkdir()
        sched = base / "sched.csv"
        run_cli("design", "--kind", "S1", "--vc", "-0.2", "--ratio", "0.3",
                "--out", str(sched))
        models = base / "models.json"
        run_cli("calibrate", "--out", str(models), "--seed", "11",
                "--measurement-noise", "0.01")
        trace = base / "trace.csv"
        run_cli("simulate", "--kind", "S1", "--vc", "-0.2", "--ratio", "0.3",
                "--models", str(models), "--seed", "11", "--out", str(trace))
        run_dir = base / "runs"
        run_cli("experiment-run", "--exp", "3", "--participants", "2",
                "--seed", "11", "--out", str(run_dir))
        run2_dir = base / "runs2"
        run_cli("experiment-run", "--exp", "2", "--participants", "1",
                "--repetitions", "1", "--seed", "11", "--out", str(run2_dir))
        files = {"sched": sched.read_bytes(), "models": models.read_bytes(),
                 "trace": trace.read_bytes()}
        for directory in (run_dir, run2_dir):
            for path in sorted(directory.rglob("*")):
                if path.is_file():
                    files[str(path.relative_to(base))] = path.read_bytes()
        art[label] = files
    assert any("_slider." in name for name in art["a"])
    assert art["a"].keys() == art["b"].keys()
    for name in art["a"]:
        assert art["a"][name] == art["b"][name], f"{name} differs between runs"


def test_quiet_suppresses_status(tmp_path):
    out = tmp_path / "s.csv"
    proc = run_cli("design", "--kind", "S3", "--vc", "-0.1", "--quiet",
                   "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
