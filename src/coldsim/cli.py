"""Command-line front door.

Commands: design (compile a stimulus into a schedule CSV), calibrate
(fit duty models against a configured plant), simulate (drive one
stimulus and log the temperature trace), experiment-run and
experiment-analyze (the full study pipeline).  Every command is
deterministic given its flags and seeds; artifacts are written
atomically; stdout carries a single JSON status line and human-readable
diagnostics go to stderr.  Each cmd_* function returns its own fields of
that line; main adds the command, its elapsed time and --out.

Exit codes: 0 success, 1 validation/usage error, 2 runtime or
convergence error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

from . import control, experiment, pattern, plant
from .errors import CalibrationError, UnreachableRateError, ValidationError


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise UsageError(message)


def _umask_mode(mode: int) -> int:
    """The mode a plain open or mkdir asking for `mode` would create."""
    umask = os.umask(0)
    os.umask(umask)
    return mode & ~umask


def _atomic_write(path: str, producer) -> None:
    """Write through a sibling temp file plus rename; no partial artifacts.

    mkstemp creates the temp file owner-only; the artifact gets the mode a
    plain open would give it.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-coldsim-")
    try:
        os.close(fd)
        producer(tmp)
        os.chmod(tmp, _umask_mode(0o666))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_params(args) -> plant.PlantParams:
    if args.config:
        return plant.load_plant_config(args.config)
    return plant.PlantParams()


def _spec_from_args(args) -> pattern.StimulusSpec:
    return pattern.StimulusSpec(
        kind=args.kind, cooling_rate=args.vc, cooling_ratio=args.ratio,
        swing=args.delta_t, duration=args.duration, drop_duration=args.drop)


def _add_stimulus_flags(parser) -> None:
    parser.add_argument("--kind", required=True, choices=pattern.KINDS)
    parser.add_argument("--vc", required=True, type=float,
                        help="cooling rate, degC/s (negative)")
    parser.add_argument("--ratio", type=float, default=None,
                        help="cooling time ratio in (0,1); S1 only")
    parser.add_argument("--delta-t", dest="delta_t", type=float,
                        default=pattern.DEFAULT_SWING,
                        help="per-cycle temperature swing, degC; S1 only")
    parser.add_argument("--duration", type=float,
                        default=pattern.StimulusSpec.duration)
    parser.add_argument("--drop", type=float,
                        default=pattern.StimulusSpec.drop_duration,
                        help="initial drop length, s; S2 only")


def cmd_design(args) -> dict:
    spec = _spec_from_args(args)
    for warning in pattern.validate_spec(spec):
        print(f"warning: {warning}", file=sys.stderr)
    schedule = pattern.compile_schedule(spec)
    _atomic_write(args.out, schedule.to_csv)
    return {"segments": len(schedule.ends),
            "scheduled_delta_t": float(schedule.rate_integral())}


def cmd_calibrate(args) -> dict:
    params = _load_params(args)
    sim = plant.SkinPlant(params, seed=args.seed)
    # Measurement noise draws from its own stream, not the plant's.
    protocol = control.CalibrationProtocol(
        sensor_resolution=args.sensor_resolution,
        measurement_noise=args.measurement_noise,
        noise_seed=(args.seed, 0x4EA5), max_iters=args.max_iters)
    result = control.calibrate(sim, protocol)
    _atomic_write(args.out, result.to_json)
    return {"iterations": result.iterations,
            "valve_r_squared": result.valve.r_squared,
            "led_r_squared": result.led.r_squared}


def cmd_simulate(args) -> dict:
    params = _load_params(args)
    spec = _spec_from_args(args)
    schedule = pattern.compile_schedule(spec)
    if args.models:
        valve_model, led_model = control.load_models(args.models)
    else:
        valve_model, led_model = control.exact_models(params)
        print("note: using exact models derived from the plant config",
              file=sys.stderr)
    timeline = control.schedule_to_timeline(schedule, valve_model, led_model)
    sim = plant.SkinPlant(params, seed=args.seed)
    trace = control.run_control(timeline, sim)
    _atomic_write(args.out, trace.to_csv)
    return {"net_delta_t": trace.net_delta_t, "samples": len(trace.time)}


def cmd_experiment_run(args) -> dict:
    if os.path.exists(args.out) and (not os.path.isdir(args.out)
                                     or os.listdir(args.out)):
        raise ValidationError(f"output {args.out} exists and is not an empty directory")
    build = experiment.build_exp2_plan if args.exp == 2 else experiment.build_exp3_plan
    plan = build(participants=args.participants, repetitions=args.repetitions,
                 seed=args.seed)
    participants = experiment.run_participants(
        plan, base_params=_load_params(args), jitter=args.jitter)
    # Build the whole run next to the target, then rename into place.
    # Each participant is calibrated and simulated only when write_records
    # asks for it, once the previous participant's files are written.
    parent = os.path.dirname(os.path.abspath(args.out)) or "."
    staging = tempfile.mkdtemp(dir=parent, prefix=".tmp-run-")
    try:
        os.chmod(staging, _umask_mode(0o777))
        experiment.write_records(participants, plan, staging,
                                 traces=not args.no_traces)
        if os.path.isdir(args.out):
            os.rmdir(args.out)
        os.rename(staging, args.out)
    except BaseException:
        import shutil
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return {"participants": plan.participants,
            "trials": plan.participants * plan.trials_per_participant}


def cmd_experiment_analyze(args) -> dict:
    records, manifest = experiment.read_records(args.runs)
    if manifest.get("experiment") != f"exp{args.exp}":
        raise ValidationError(f"--exp {args.exp} asks for exp{args.exp}, but "
                              f"{args.runs} holds a {manifest.get('experiment')} run")
    analyze = experiment.analyze_exp2 if args.exp == 2 else experiment.analyze_exp3
    report = analyze(records, pooling=args.pooling)

    def write(path):
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")

    _atomic_write(args.out, write)
    return {"records": len(records), "experiment": manifest["experiment"]}


def build_parser() -> Parser:
    parser = Parser(prog="coldsim",
                    description="Non-contact cold-sensation display: stimulus "
                                "design, calibration, simulation, and studies.")
    plant_flags = Parser(add_help=False)  # for the commands that build a plant
    plant_flags.add_argument("--config", default=None,
                             help="plant config JSON (defaults built in)")
    plant_flags.add_argument("--seed", type=int, default=0)
    common = Parser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress the JSON status line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", parents=[common],
                       help="compile a stimulus into a rate-schedule CSV")
    _add_stimulus_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("calibrate", parents=[plant_flags, common],
                       help="fit duty models against the configured plant")
    p.add_argument("--out", required=True)
    p.add_argument("--sensor-resolution", type=float,
                   default=plant.DEFAULT_SENSOR_RESOLUTION)
    p.add_argument("--measurement-noise", type=float, default=0.0,
                   help="sigma of rate measurement noise, degC/s")
    p.add_argument("--max-iters", type=int,
                   default=control.CalibrationProtocol.max_iters)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", parents=[plant_flags, common],
                       help="drive one stimulus and log the temperature trace")
    _add_stimulus_flags(p)
    p.add_argument("--models", default=None,
                   help="models JSON from calibrate (exact models if omitted)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment-run", parents=[plant_flags, common],
                       help="run a full study: plants, calibration, trials")
    p.add_argument("--exp", type=int, required=True, choices=(2, 3))
    p.add_argument("--participants", type=int, default=15)
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--jitter", type=float, default=0.1,
                   help="relative per-participant plant variation")
    p.add_argument("--no-traces", action="store_true",
                   help="skip per-trial temperature trace CSVs (slider "
                        "traces are always kept)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_experiment_run)

    p = sub.add_parser("experiment-analyze", parents=[common],
                       help="analyze a recorded run into a report JSON")
    p.add_argument("--exp", type=int, required=True, choices=(2, 3))
    p.add_argument("--runs", required=True, help="run directory")
    p.add_argument("--pooling", choices=("trials", "participants"),
                   default="trials")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy seeds are non-negative
            raise ValidationError(f"--seed must be non-negative, got {args.seed}")
        parent = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(parent):
            raise ValidationError(
                f"--out: {parent} is not an existing directory")
        started = time.perf_counter()
        extra = args.func(args)
        if not args.quiet:
            print(json.dumps({
                "status": "ok", "command": args.command,
                "elapsed_s": round(time.perf_counter() - started, 3),
                "out": args.out, **extra}))
        return 0
    except (UsageError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CalibrationError, UnreachableRateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
