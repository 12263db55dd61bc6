"""Command-line behavior: artifacts, exit codes, determinism."""

import concurrent.futures
import contextlib
import copy
import csv
import dataclasses
import errno
import io
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from coldsim import CalibrationError, UnreachableRateError, cli, experiment, plant


def run_cli(*argv):
    """Run the CLI in this process; return its exit code and output."""
    argv = list(argv)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return subprocess.CompletedProcess(argv, code, stdout.getvalue(),
                                       stderr.getvalue())


def run_cli_process(*argv, umask=-1):
    """Run the CLI in a fresh interpreter, for what only a new process
    shows: its own umask, or byte determinism across processes."""
    return subprocess.run([sys.executable, "-m", "coldsim.cli", *argv],
                          capture_output=True, text=True, umask=umask)


def test_design_worked_example(tmp_path):
    out = tmp_path / "sched.csv"
    proc = run_cli_process("design", "--kind", "S1", "--vc", "-0.1", "--ratio",
                           "0.5", "--delta-t", "0.06", "--duration", "15",
                           "--out", str(out), umask=0o022)
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_mode & 0o777 == 0o644
    status = json.loads(proc.stdout)
    assert status["status"] == "ok" and status["command"] == "design"
    rows = list(csv.DictReader(out.open()))
    assert (float(rows[0]["start_s"]), float(rows[0]["end_s"]),
            float(rows[0]["rate_c_per_s"])) == (0.0, 0.6, -0.1)
    assert (float(rows[1]["start_s"]), float(rows[1]["end_s"]),
            float(rows[1]["rate_c_per_s"])) == (0.6, 1.2, 0.1)


def test_design_s2_ignores_ratio(tmp_path):
    # An experiment plan refuses an S2 with a ratio, but design compiles
    # one as it compiles the S2 without it.
    for name, flags in (("with.csv", ["--ratio", "0.5"]), ("without.csv", [])):
        proc = run_cli("design", "--kind", "S2", "--vc", "-0.16", *flags,
                       "--out", str(tmp_path / name))
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()


def test_design_validation_exit_code(tmp_path):
    for flags, out, named in ((["--vc", "0.1"], tmp_path / "x.csv", "negative"),
                              (["--vc", "-0.1"], tmp_path / "nodir" / "x.csv", "nodir"),
                              (["--vc", "-0.1", "--delta-t", "inf"],
                               tmp_path / "x.csv", "swing must be a finite number")):
        proc = run_cli("design", "--kind", "S1", *flags, "--ratio", "0.5",
                       "--out", str(out))
        assert proc.returncode == 1
        assert named in proc.stderr and ".tmp-coldsim-" not in proc.stderr
        assert [line.startswith("error:") for line in proc.stderr.splitlines()] == [True]
        assert not out.exists()
    assert not (tmp_path / "nodir").exists()


def test_unknown_flag_exit_code(tmp_path):
    proc = run_cli("design", "--kind", "S1", "--vc", "-0.1", "--frobnicate",
                   "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 1


def test_calibrate_does_not_import_scipy(tmp_path):
    # every calibration reading and verification returns one sample, which
    # needs no lfilter, so neither calibrate nor the command loads scipy
    script = (
        "import sys\n"
        "from coldsim import cli, control, plant\n"
        "control.calibrate(plant.SkinPlant())\n"
        "assert cli.main(['calibrate', '--out', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "models.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_simulate_does_not_import_scipy(tmp_path):
    # the logged plant span and the perceiver's low-pass are first_order,
    # not lfilter, so neither the perceiver nor the command loads scipy
    script = (
        "import sys\n"
        "from coldsim import cli, experiment, plant\n"
        "experiment.perceived_rate(plant.Trace([0.0, 0.01], [33.0, 32.9]),"
        " experiment.ParticipantModel())\n"
        "assert cli.main(['simulate', '--kind', 'S1', '--vc', '-0.24', '--ratio', '0.3',"
        " '--out', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "trace.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_analyze_does_not_import_scipy_stats(tmp_path):
    # ranks, the exact rank-sum tail and Benjamini-Hochberg are coldsim's,
    # so analyzing needs only scipy.special.  The 2 x 1 exp2 run's rank-sum
    # pairs are tie-free and small enough for the exact path.
    for exp, participants in (("2", "2"), ("3", "2")):
        proc = run_cli("experiment-run", "--exp", exp, "--participants", participants,
                       "--repetitions", "1", "--seed", "1", "--no-traces", "--quiet",
                       "--out", str(tmp_path / f"run{exp}"))
        assert proc.returncode == 0, proc.stderr
    script = (
        "import sys\n"
        "from coldsim import cli, experiment\n"
        "methods = []\n"
        "def traced(a, b, test=experiment.wilcoxon_rank_sum):\n"
        "    res = test(a, b)\n"
        "    methods.append(res.method)\n"
        "    return res\n"
        "experiment.wilcoxon_rank_sum = traced\n"
        "for exp in ('2', '3'):\n"
        "    assert cli.main(['experiment-analyze', '--exp', exp, '--runs',"
        " f'{sys.argv[1]}/run{exp}', '--out', f'{sys.argv[1]}/r{exp}.json']) == 0\n"
        "print(sorted(set(methods)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    methods, modules = proc.stdout.splitlines()[-2:]
    assert "'wilcoxon_exact'" in methods
    assert modules == "[]"


def test_simulate_relax_coeff_limit(tmp_path):
    # Above 1/DT = 1000 /s the plant's Euler decay would be negative: the
    # config is refused, with exit 1 as for any invalid config value.  At
    # 1000 /s the decay is 0 and the skin is pinned near t_neutral.
    models = tmp_path / "models.json"
    assert run_cli("calibrate", "--quiet", "--out", str(models)).returncode == 0
    config, out = tmp_path / "plant.json", tmp_path / "trace.csv"
    config.write_text('{"relax_coeff": 1000.0000000000001}')
    proc = run_cli("simulate", "--kind", "S1", "--vc", "-0.24", "--ratio", "0.3",
                   "--config", str(config), "--models", str(models), "--out", str(out))
    assert proc.returncode == 1
    assert "plant.json" in proc.stderr and "relax_coeff" in proc.stderr
    assert not out.exists()
    config.write_text('{"relax_coeff": 1000}')
    proc = run_cli("simulate", "--kind", "S1", "--vc", "-0.24", "--ratio", "0.3",
                   "--config", str(config), "--models", str(models), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    temps = [float(row["temp_c"]) for row in csv.DictReader(out.open())]
    assert len(temps) == 1501 and all(abs(t - 24.0) < 0.01 for t in temps[1:])


def test_simulate_bool_config_value_exit_1(tmp_path):
    # JSON's true loads as a bool, which is an int: it must not run as
    # relax_coeff 1, which would leave the valve unable to reach the rate.
    config, out = tmp_path / "plant.json", tmp_path / "trace.csv"
    config.write_text('{"relax_coeff": true}')
    proc = run_cli("simulate", "--kind", "S3", "--vc", "-0.1",
                   "--config", str(config), "--out", str(out))
    assert proc.returncode == 1
    assert "plant.json" in proc.stderr and "relax_coeff" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["calibrate", "--max-iters", "0"], 1),
    (["calibrate", "--sensor-resolution", "nan"], 1),
    (["experiment-run", "--exp", "3", "--participants", "1", "--jitter", "1.0"], 1),
    # The default plant needs 3 rounds of drift correction.
    (["calibrate", "--max-iters", "1"], 2),
], ids=["max_iters_0", "sensor_resolution_nan", "jitter_1", "max_iters_1"])
def test_protocol_flags_out_of_range(tmp_path, argv, code):
    out = tmp_path / "artifact"
    proc = run_cli(*argv, "--out", str(out))
    assert proc.returncode == code
    assert [line.startswith("error:") for line in proc.stderr.splitlines()] == [True]
    assert os.listdir(tmp_path) == []


def test_experiment_run_without_jitter_calibrates_equal_plants(tmp_path):
    # --jitter 0 gives every participant the configured plant, which has
    # no noise by default: each calibration writes the same models.
    run = tmp_path / "run"
    proc = run_cli("experiment-run", "--exp", "3", "--participants", "2",
                   "--repetitions", "1", "--jitter", "0", "--no-traces",
                   "--out", str(run))
    assert proc.returncode == 0, proc.stderr
    assert (run / "models_00.json").read_bytes() == (run / "models_01.json").read_bytes()


def test_calibrate_streams_differ(tmp_path, monkeypatch):
    # calibrate draws process noise from the plant's stream and measurement
    # noise from the protocol's: the command seeds them apart, so a
    # reading's measurement error is not a scaled copy of its process noise.
    streams = []

    def calibrate(sim, protocol, _calibrate=cli.control.calibrate):
        streams.append((copy.deepcopy(sim.rng).standard_normal(5),
                        np.random.default_rng(protocol.noise_seed).standard_normal(5)))
        return _calibrate(sim, protocol)

    monkeypatch.setattr(cli.control, "calibrate", calibrate)
    for seed in ("5", "6"):
        proc = run_cli("calibrate", "--seed", seed, "--out", str(tmp_path / "m.json"))
        assert proc.returncode == 0, proc.stderr
    (plant5, protocol5), (plant6, protocol6) = streams
    assert plant5.tolist() == np.random.default_rng(5).standard_normal(5).tolist()
    assert not np.isin(protocol5, plant5).any()
    assert not np.isin(protocol6, plant6).any()
    assert not np.isin(protocol5, protocol6).any()


def test_simulate_collapsing_segment_exit_code(tmp_path):
    # A swing of 0.0001 degC makes warm stretches shorter than a step of
    # DT; the sixth segment's snapped boundaries meet.
    out = tmp_path / "t.csv"
    proc = run_cli("simulate", "--kind", "S1", "--vc", "-0.24", "--ratio", "0.5",
                   "--delta-t", "0.0001", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "error: segment 5 [0.0020833333333333333, 0.0025) s collapses to "
        "zero steps of 0.001 s")
    assert not out.exists()


def test_simulate_failed_write_leaves_nothing(tmp_path, monkeypatch):
    # A trace writer that fails part way through (a full disk, say): the
    # error reaches main, which exits 2, and neither the artifact nor the
    # temp file it was written through is left.
    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("time_s,temp_c\n0.0,")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr(plant.Trace, "to_csv", to_csv)
    out = tmp_path / "t.csv"
    proc = run_cli("simulate", "--kind", "S3", "--vc", "-0.16", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].startswith(
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}")
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_design_cycle_floor_warning(tmp_path):
    # A 0.01 degC swing at -0.3 degC/s makes 67 ms cycles: a warning, not
    # an error, so the schedule is still written.
    out = tmp_path / "s.csv"
    proc = run_cli("design", "--kind", "S1", "--vc", "-0.3", "--ratio", "0.5",
                   "--delta-t", "0.01", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "warning: cycle time 0.067 s is below the 0.5 s actuation floor"]
    assert json.loads(proc.stdout)["segments"] == 450
    assert len(out.read_text().splitlines()) == 451


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
    assert list(rows[0]) == ["time_s", "temp_c"]

    # Unreadable plant configs and model files exit 1 naming the file.
    doc = json.loads(models.read_text())
    bad_slope = {**doc, "valve": {**doc["valve"], "slope": "x"}}
    banana = {**doc, "valve": {**doc["valve"], "channel": "banana"}}
    swapped = {**doc, "valve": doc["led"], "led": doc["valve"]}
    bad = {"not_json.json": "{", "wrong_type.json": '{"valve_gain": "x"}',
           "array.json": "[1, 2]", "bad_slope.json": json.dumps(bad_slope),
           "banana.json": json.dumps(banana), "swapped.json": json.dumps(swapped),
           "typo.json": '{"valve_gian": -3.0}', "missing.json": None}
    for name, text in bad.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        for flag in ("--config", "--models"):
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
    assert sorted(p.name for p in run_dir.glob("models_*.json")) == [
        "models_00.json", "models_01.json"]
    rows = list(csv.DictReader((run_dir / "trials.csv").open()))
    assert len(rows) == 2 * 15 and list(rows[0]) == [
        "participant", "trial", "stimulus_id", "likert"]
    assert [r["participant"] for r in rows] == ["0"] * 15 + ["1"] * 15
    assert all(r["likert"] for r in rows)
    assert not (run_dir / "sliders.npy").exists()
    assert json.loads((run_dir / "manifest.json").read_text())["format_version"] == 5

    report_path = tmp_path / "report.json"
    proc = run_cli("experiment-analyze", "--exp", "3", "--runs", str(run_dir),
                   "--out", str(report_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    assert report["kruskal_wallis"]["df"] == 4
    assert len(report["pairwise"]) == 10

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
        table = copy / "trials.csv"
        lines = table.read_text().splitlines(keepends=True)
        fields = lines[1].split(",")
        lines[1] = ",".join([fields[0], "x", *fields[2:]])
        table.write_text("".join(lines))

    def edit_row(column, value, prefix=""):
        """Set `column` of trials.csv's first row whose stimulus id starts
        with `prefix`."""
        def edit(copy):
            table = copy / "trials.csv"
            rows = list(csv.DictReader(table.read_text().splitlines()))
            next(row for row in rows
                 if row["stimulus_id"].startswith(prefix))[column] = value
            with table.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        return edit

    def edit_lines(edit_rows):
        """Replace trials.csv's lines (header first; participant 0's
        rows are lines 1 to 15, participant 1's lines 16 to 30)."""
        def edit(copy):
            table = copy / "trials.csv"
            lines = table.read_text().splitlines(keepends=True)
            table.write_text("".join(edit_rows(lines)))
        return edit

    def edit_manifest_stimulus(**changes):
        def edit(copy):
            manifest = json.loads((copy / "manifest.json").read_text())
            manifest["stimuli"][0].update(changes)
            (copy / "manifest.json").write_text(json.dumps(manifest))
        return edit

    def drop_likert_column(copy):
        table = copy / "trials.csv"
        rows = list(csv.reader(table.read_text().splitlines()))
        col = rows[0].index("likert")
        with table.open("w", newline="") as fh:
            csv.writer(fh).writerows([row[:col] + row[col + 1:] for row in rows])

    def swap_columns(copy):
        table = copy / "trials.csv"
        rows = list(csv.reader(table.read_text().splitlines()))
        with table.open("w", newline="") as fh:
            csv.writer(fh).writerows([[row[1], row[0], *row[2:]] for row in rows])

    def cut_row(copy):
        table = copy / "trials.csv"
        lines = table.read_text().splitlines(keepends=True)
        lines[2] = ",".join(lines[2].split(",")[:3]) + "\r\n"
        table.write_text("".join(lines))

    corruptions = {
        "future": (edit_manifest(format_version=7), "format_version"),
        "v1": (edit_manifest(format_version=1), "re-run experiment-run"),
        "v2": (edit_manifest(format_version=2), "re-run experiment-run"),
        "v3": (edit_manifest(format_version=3), "re-run experiment-run"),
        "v4": (edit_manifest(format_version=4), "re-run experiment-run"),
        "no_table": (lambda copy: (copy / "trials.csv").unlink(), "trials.csv"),
        "partial": (edit_lines(lambda lines: lines[:16]),
                    "trials.csv: participant 1: 0 rows"),
        "not_json": (lambda copy: (copy / "manifest.json").write_text("{oops"),
                     "manifest.json"),
        "no_participants": (edit_manifest(participants=None), "manifest.json"),
        "no_seed": (edit_manifest(seed=None), "manifest.json"),
        "no_repetitions": (edit_manifest(repetitions=None), "manifest.json"),
        "float_repetitions": (edit_manifest(repetitions=1.5),
                              "manifest.json: repetitions must be an integer, got 1.5"),
        "bool_repetitions": (edit_manifest(repetitions=True),
                             "manifest.json: repetitions must be an integer, got True"),
        "bad_trial": (edit_trial, "trials.csv"),
        "no_likert_column": (drop_likert_column, "trials.csv"),
        # The reader takes the writer's exact header, not columns by name.
        "swapped_columns": (swap_columns, "trials.csv: ValueError(\"header ['trial', "
                            "'participant', 'stimulus_id', 'likert'], not"),
        "short_row": (cut_row, "trials.csv"),
        "huge_field": (edit_row("stimulus_id", "x" * 200_000, "S1"), "trials.csv"),
        # Tables that parse but do not hold the trials the manifest plans.
        "missing_trials": (edit_lines(lambda lines: lines[:3] + lines[7:]),
                           "trials.csv: participant 0: 11 rows, not the manifest's "
                           "trials 0 to 14 in row order, from trial 2 on"),
        "duplicate_trial": (edit_lines(lambda lines: lines[:20] + lines[19:]),
                            "trials.csv: participant 1: 16 rows"),
        "swapped_trials": (edit_lines(lambda lines:
                                      lines[:17] + [lines[18], lines[17]] + lines[19:]),
                           "trials.csv: participant 1: 15 rows, not the manifest's "
                           "trials 0 to 14 in row order, from trial 1 on"),
        "wrong_participant": (edit_row("participant", "2"),
                              "trials.csv: participant 0: 14 rows"),
        "unknown_stimulus": (edit_row("stimulus_id", "S1_vc-0.5_r0.5", "S1"),
                             "trials.csv: participant 0: trial"),
        # Ratings off the 7-point scale.
        "likert_high": (edit_row("likert", "99"),
                        "trials.csv: participant 0: trial 0 has likert 99"),
        "likert_low": (edit_row("likert", "-5"),
                       "trials.csv: participant 0: trial 0 has likert -5"),
        "manifest_kind": (edit_manifest_stimulus(kind="S9"), "manifest.json: stimulus"),
        "manifest_lambda": (edit_manifest_stimulus(cooling_ratio=None),
                            "manifest.json: stimulus"),
        # The manifest's specs, not its stimulus_id fields, name the
        # stimuli: another rate renames stimulus 0, which no row shows.
        "manifest_rate": (edit_manifest_stimulus(cooling_rate=-0.5),
                          "trials.csv: participant 0: trial"),
        "manifest_twice": (edit_manifest_stimulus(cooling_rate=-0.16),
                           "manifest.json: stimulus 'S1_vc-0.16_r0.5' is planned 2"),
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


def test_experiment_analyze_under_low_open_file_limit(tmp_path):
    # A run's sliders are one mapped file, whatever its participant count,
    # so a fresh process that may open only 6 more files analyzes an
    # 8-participant run as an unlimited one does.
    pytest.importorskip("resource")
    run_dir = tmp_path / "run"
    proc = run_cli("experiment-run", "--exp", "2", "--participants", "8",
                   "--repetitions", "1", "--no-traces", "--quiet", "--out", str(run_dir))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("experiment-analyze", "--exp", "2", "--runs", str(run_dir),
                   "--out", str(tmp_path / "unlimited.json"))
    assert proc.returncode == 0, proc.stderr
    script = (
        "import os, resource, sys\n"
        "from coldsim import cli\n"
        "fds = len(os.listdir('/dev/fd')) - 1  # less the listing's own\n"
        "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
        "resource.setrlimit(resource.RLIMIT_NOFILE, (fds + 6, hard))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", script, "experiment-analyze", "--exp", "2",
                           "--runs", str(run_dir), "--out", str(tmp_path / "limited.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "limited.json").read_bytes()
            == (tmp_path / "unlimited.json").read_bytes())


def test_experiment_run_exp2_analyzable_without_temp_traces(tmp_path):
    run_dir = tmp_path / "runs2"
    proc = run_cli_process("experiment-run", "--exp", "2", "--participants", "2",
                           "--seed", "3", "--no-traces", "--out", str(run_dir),
                           umask=0o022)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["trials"] == 2 * 105
    assert run_dir.stat().st_mode & 0o777 == 0o755
    # The slider array is the run's one file of sliders, and traces/
    # would hold only the temperature traces.
    assert not (run_dir / "traces").exists()
    assert np.load(run_dir / "sliders.npy", mmap_mode="r").shape == (2 * 105, 1501)

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
        sliders = copy / "sliders.npy"
        sliders.write_bytes(sliders.read_bytes()[:-8])

    def set_slider(row, value):
        def edit(copy):
            path = copy / "sliders.npy"
            sliders = np.load(path)
            sliders[row, 100] = value
            np.save(path, sliders)
        return edit

    def write_sliders(shape, save=np.save, dtype=float):
        def edit(copy):
            with open(copy / "sliders.npy", "wb") as fh:
                save(fh, np.zeros(shape, dtype=dtype))
        return edit

    # The manifest plans exp2, so the run must hold its slider array.
    corruptions = {
        "no_sliders": (lambda copy: (copy / "sliders.npy").unlink(), "sliders.npy"),
        "truncated": (truncate, "sliders.npy"),
        "slider_rows": (write_sliders((209, 1501)), "sliders.npy"),
        "slider_shape": (write_sliders((210, 2, 1501)), "sliders.npy"),
        "slider_columns": (write_sliders((210, 1500)), "sliders.npy holds float64 of "
                           "shape (210, 1500), not float64 of shape (210, 1501)"),
        "slider_npz": (write_sliders((210, 1501), save=np.savez),
                       "sliders.npy is not a readable .npy file"),
        "slider_objects": (write_sliders((210, 1501), dtype=object),  # pickled
                           "sliders.npy is not a readable .npy file: "
                           "Array can't be memory-mapped: Python objects in dtype"),
    }
    for name, (edit, named) in corruptions.items():
        assert_analyze_rejects(tmp_path, run_dir, "2", name, edit, named)
    for name, value in (("slider_above_1", 7.0), ("slider_below_0", -0.5),
                        ("slider_nan", np.nan)):
        assert_analyze_rejects(tmp_path, run_dir, "2", name, set_slider(3, value),
                               "sliders.npy: participant 0 trial 3")
    assert_analyze_rejects(tmp_path, run_dir, "2", "slider_participant_1",
                           set_slider(105 + 7, 7.0), "sliders.npy: participant 1 trial 7")
    assert_analyze_rejects(
        tmp_path, run_dir, "2", "slider_no_samples",
        lambda copy: np.save(copy / "sliders.npy", np.zeros((210, 0))), "sliders.npy")


def test_experiment_run_refuses_nonempty_out(tmp_path):
    run_dir = tmp_path / "runs"
    run_dir.mkdir()
    (run_dir / "junk.txt").write_text("hello")
    out_file = tmp_path / "out.txt"
    out_file.write_text("keep")
    # Flags after the defaults override them; argparse keeps the last value.
    for out, kept, text, flags in (
            (run_dir, run_dir / "junk.txt", "hello", ()),
            (out_file, out_file, "keep", ()),
            (tmp_path / "nodir" / "run", None, "nodir", ()),
            (tmp_path / "empty", None, "participants must be at least 1",
             ("--participants", "0")),
            (tmp_path / "seed", None, "--seed must be non-negative", ("--seed", "-1"))):
        proc = run_cli("experiment-run", "--exp", "3", "--participants", "1",
                       "--seed", "7", *flags, "--out", str(out))
        assert proc.returncode == 1, proc.stderr
        if kept is None:
            assert text in proc.stderr and ".tmp-" not in proc.stderr
            assert proc.stderr.count("error:") == 1 and "Traceback" not in proc.stderr
            assert not out.exists()
        else:
            assert kept.read_text() == text
    assert not (tmp_path / "nodir").exists()
    assert not list(tmp_path.glob(".tmp-*"))


def test_experiment_run_accepts_empty_out(tmp_path):
    # An existing empty directory is replaced by the run.
    out = tmp_path / "run"
    out.mkdir()
    proc = run_cli("experiment-run", "--exp", "3", "--participants", "1",
                   "--repetitions", "1", "--no-traces", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["out"] == str(out)
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "models_00.json", "trials.csv"]
    assert [p.name for p in tmp_path.iterdir()] == ["run"]


def experiment_run(out, participants):
    """experiment-run --exp 2 with one repetition."""
    return run_cli("experiment-run", "--exp", "2", "--repetitions", "1",
                   "--participants", str(participants), "--quiet",
                   "--out", str(out))


def test_experiment_run_memory_flat_in_participants(tmp_path):
    # Each participant is simulated, written and dropped in turn, so twice
    # the participants must not take about twice the memory, as holding
    # every record until the end did (1.9x).
    assert experiment_run(tmp_path / "warm-up", 1).returncode == 0  # lazy imports
    peaks = {}
    for participants in (4, 8):
        tracemalloc.start()
        try:
            proc = experiment_run(tmp_path / f"run{participants}", participants)
            assert proc.returncode == 0, proc.stderr
            peaks[participants] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] < 1.25 * peaks[4], peaks


def tree_bytes(root):
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_experiment_run_trace_workers_deterministic(tmp_path, monkeypatch):
    # Two participants on two CPUs: the temperature traces are written by
    # two worker processes, and both are gone when experiment-run returns.
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    trees = []
    for name in ("a", "b"):
        assert experiment_run(tmp_path / name, 2).returncode == 0
        assert multiprocessing.active_children() == []
        trees.append(tree_bytes(tmp_path / name))
    assert len([p for p in trees[0] if p.name.endswith("_temp.csv")]) == 2 * 35
    assert trees[0] == trees[1]


@pytest.mark.parametrize("flags", [["--participants", "1"],
                                   ["--participants", "2", "--no-traces"]])
def test_experiment_run_starts_no_worker(tmp_path, monkeypatch, flags):
    def refuse(*args, **kwargs):
        raise AssertionError("a trace worker pool was started")
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    proc = run_cli("experiment-run", "--exp", "2", "--repetitions", "1",
                   "--quiet", "--out", str(tmp_path / "run"), *flags)
    assert proc.returncode == 0, proc.stderr


def test_experiment_run_killed_leaves_no_worker(tmp_path):
    # A trace worker whose parent is killed exits by itself, so nothing of
    # the run's process group outlives it.
    out = tmp_path / "run"
    proc = subprocess.Popen(
        [sys.executable, "-m", "coldsim.cli", "experiment-run", "--exp", "2",
         "--participants", "4", "--repetitions", "3", "--quiet", "--out", str(out)],
        start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob(".tmp-run-*/traces/*_temp.csv")):
            assert proc.poll() is None, "the run ended before it could be killed"
            assert time.monotonic() < deadline, "no trace written in 60 s"
            time.sleep(0.01)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a worker outlived its killed parent"
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        for staging in tmp_path.glob(".tmp-run-*"):
            shutil.rmtree(staging)


@pytest.mark.parametrize("failure", [CalibrationError, UnreachableRateError])
def test_experiment_run_failure_names_participant(tmp_path, monkeypatch, failure):
    real = experiment.calibrate
    calls = []

    def calibrate(plant, *args, **kwargs):
        result = real(plant, *args, **kwargs)
        calls.append(plant)
        if len(calls) < 2:
            return result
        # Participant 0's slider rows are already written when
        # participant 1 is calibrated: they follow the header, which
        # holds the plan's row count.
        staging, = tmp_path.glob(".tmp-run-*")
        with open(staging / "sliders.npy", "rb") as fh:
            np.lib.format.read_magic(fh)
            assert np.lib.format.read_array_header_1_0(fh)[0] == (3 * 35, 1501)
            assert len(fh.read()) == 35 * 1501 * 8
        if failure is CalibrationError:
            raise CalibrationError("verification drift stays above the gate")
        # A warm band too narrow for the study's warm rates.
        led = dataclasses.replace(result.led, duty_max=result.led.duty_min + 0.01)
        return dataclasses.replace(result, led=led)

    monkeypatch.setattr(experiment, "calibrate", calibrate)
    out = tmp_path / "run"
    proc = experiment_run(out, 3)
    assert proc.returncode == 2
    assert len(calls) == 2
    assert "participant 1" in proc.stderr and "Traceback" not in proc.stderr, \
        proc.stderr
    assert not out.exists()
    assert not list(tmp_path.glob(".tmp-run-*"))


def test_experiment_run_weak_led_config_exits(tmp_path):
    # With led_gain 0.55 the warm top anchor is 0.444 degC/s, and no draw
    # of the 10 % jitter lifts it to the 0.495 degC/s that perturb_params
    # re-draws for; with the second gain the anchor is 0.45 degC/s, and
    # about one draw in 10**8 does.  Either run must stop with exit 2, not
    # draw for practically forever.
    config = tmp_path / "weak.json"
    out = tmp_path / "run"
    for led_gain in (0.55, 0.5567627504535375):
        config.write_text(json.dumps({"led_gain": led_gain}))
        proc = run_cli("experiment-run", "--exp", "3", "--participants", "1",
                       "--repetitions", "1", "--config", str(config), "--quiet",
                       "--out", str(out))
        assert proc.returncode == 2
        assert ("led channel cannot reach +0.4950 degC/s for participant 0"
                in proc.stderr), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-run-*"))


def test_flags_a_command_does_not_read_exit_1(tmp_path):
    # design and experiment-analyze build no plant, so they take neither
    # --config nor --seed: a missing --config file must not pass unread.
    run = tmp_path / "run"
    assert run_cli("experiment-run", "--exp", "3", "--participants", "1",
                   "--repetitions", "1", "--no-traces", "--quiet",
                   "--out", str(run)).returncode == 0
    out = tmp_path / "artifact"
    for argv in (["design", "--kind", "S3", "--vc", "-0.1",
                  "--config", str(tmp_path / "missing.json")],
                 ["experiment-analyze", "--exp", "3", "--runs", str(run),
                  "--seed", "1"]):
        proc = run_cli(*argv, "--out", str(out))
        assert proc.returncode == 1
        assert [line.startswith("error:") for line in proc.stderr.splitlines()] == [True]
        assert "unrecognized arguments" in proc.stderr
        assert sorted(os.listdir(tmp_path)) == ["run"]


def test_quiet_suppresses_status(tmp_path):
    out = tmp_path / "s.csv"
    proc = run_cli("design", "--kind", "S3", "--vc", "-0.1", "--quiet",
                   "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
