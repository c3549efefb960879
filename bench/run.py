#!/usr/bin/env python3
"""Benchmark of skorokhod-kit's named experiments, grouped into four workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: brownian-1d, per-path, reflect-nd, euler (see bench/README.md).
``--seed`` overrides every experiment seed in the workload; without it each
experiment keeps its pinned seed. With ``--trace 0`` the run times fresh
set-up processes and then sets of the workload in one workload process, and
reports the end-to-end metrics, scaled to the reference host speed (see
``at_reference``). With ``--trace 1`` it adds a set run under the
outside-in tracer and reports the per-layer metrics. Every run checks each
experiment's exit code, its checks, and that its summary.json digest is the
same in every set, with one worker and with the default worker count.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Processes are
started one at a time and waited for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SETUP_PROBES = 4  # fresh set-up processes per timed run, besides the workload's own
HARD_LIMIT_S = 170.0  # a run must end within 180 s

sys.path.insert(0, str(HERE))
import envinfo  # noqa: E402
from layer_metrics import UNITS  # noqa: E402
from workload import WORKLOADS  # noqa: E402

# experiments whose wall time is reported on its own, in seconds
EXPERIMENT_WALLS = (
    "rbm-density", "local-time", "ito-isometry",
    "nd-skorokhod-props", "rsde-consistency", "strong-error",
)


class BenchError(RuntimeError):
    """A workload process failed or printed no result."""


def workload_process(args: list[str], deadline: float) -> dict:
    """Run bench/workload.py with args; returns the JSON object it printed last."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{' '.join(args)}: no result within {timeout:.0f} s") from err
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = "\n".join(done.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{' '.join(args)}: exit code {done.returncode}\n{tail}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def at_reference(seconds: float, calibration_s: float, reference_s: float) -> float:
    """A measured time scaled to the reference host speed.

    ``calibration_s`` is the time workload.calibration_s took next to the
    measured work; ``reference_s`` is its time on the reference host
    (bench/reference_env.json). A host that runs slower than the reference
    for a while stretches both the work and the calibration, so the ratio
    cancels the shared host's drift.
    """
    return seconds * reference_s / calibration_s


def report_lines(report: dict, args) -> list[str]:
    env = report["environment"]
    seed = "pinned per experiment" if args.seed is None else f"{args.seed} (every experiment)"
    lines = [
        f"workload {args.workload}  seed {seed}  trace {args.trace}  seconds {args.seconds}",
        "environment: " + "  ".join(
            f"{k}={env[k]}" for k in envinfo.COMPARED if k in env
        ),
    ]
    if envinfo.REFERENCE.is_file():
        diff = envinfo.differences(env, json.loads(envinfo.REFERENCE.read_text()))
        lines.append(
            "environment matches bench/reference_env.json" if not diff
            else "WARNING: settings differ from bench/reference_env.json: " + "; ".join(diff)
        )
    for s in report["sets"]:
        lines.append(f"set {s['label']:10s} workers={s['workers']:8s} {s['wall_s']:8.3f} s")
    for first in report["sets"][0]["experiments"]:
        name = first["experiment"]
        runs = [r for s in report["sets"] for r in s["experiments"] if r["experiment"] == name]
        digests = {r["digest"] for r in runs}
        same = "identical in all sets" if len(digests) == 1 else f"{len(digests)} distinct"
        lines.append(
            f"experiment {name} seed {first['seed']}: exit code {first['exit_code']}, "
            f"failing checks {first['failing_checks']}, "
            f"summary.json sha256 {str(first['digest'])[:16]}... ({same})"
        )
    lines.extend(f"problem: {p}" for p in report["problems"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="override every experiment seed (default: pinned seeds)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the measured part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "skorokhod_kit" / "__init__.py").is_file():
        print(f"error: no skorokhod_kit sources under {REPO / 'src'}", file=sys.stderr)
        return 2

    try:
        reference_s = float(json.loads(envinfo.REFERENCE.read_text())["calibration_s"])
    except (OSError, KeyError, ValueError) as err:
        print(f"error: no calibration_s in {envinfo.REFERENCE}: {err}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    common = ["--workload", args.workload]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    try:
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_PROBES):
                probe = workload_process([*common, "--mode", "setup"], deadline)
                setups.append((probe["setup_s"], probe["calibration_s"]))
        budget = args.seconds - (time.monotonic() - start)
        mode = "traced" if args.trace else "timed"
        report = workload_process([*common, "--mode", mode, "--budget", f"{budget:.3f}"], deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    lines = report_lines(report, args)
    timed = [s for s in report["sets"] if s["label"].startswith("default")]
    n_timed = len(timed)
    walls = report["experiment_wall_s"]
    if args.trace == 0:
        setups.append((report["setup_s"], report["setup_calibration_s"]))
        wall_s = statistics.median(
            at_reference(s["wall_s"], s["calibration_s"], reference_s) for s in timed
        )
        speed = statistics.median(reference_s / s["calibration_s"] for s in timed)
        metrics = {
            "wall_s": metric(wall_s, "s"),
            "setup_s": metric(statistics.median(
                at_reference(seconds, calibration, reference_s) for seconds, calibration in setups
            ), "s"),
            "path_steps_per_s": metric(report["stated_size"] / wall_s, "1/s"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        }
        notes = {
            "wall_s": (f"median of {n_timed} sets at the default worker count, each scaled "
                       f"to reference host speed (median scale {speed:.4f}); measured "
                       f"median {report['wall_s']:.6g} s"),
            "setup_s": (f"median of {len(setups)} fresh processes, each scaled to reference "
                        f"host speed; measured median "
                        f"{statistics.median(s for s, _ in setups):.6g} s"),
            "path_steps_per_s": f"stated size {report['stated_size']} paths x steps x dim",
            "peak_rss_mb": "peak resident memory of the workload process",
        }
    else:
        metrics = {k: metric(v, UNITS[k]) for k, v in report["layers"].items()}
        metrics.update(
            {f"{e}.wall_s": metric(walls.get(e, 0.0), "s") for e in EXPERIMENT_WALLS}
        )
        notes = {"trace_overhead_share": (
            f"traced {report['traced_wall_s']:.3f} s vs untraced {report['wall_s']:.3f} s")}
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    lines.append(
        f"failed_share = {report['failed_share']:.6g} share  "
        f"({report['failed']} failed operations of {report['attempted']} experiment runs; "
        "Monte Carlo check failures count here only)"
    )
    if args.trace == 0:
        for name, seconds in walls.items():
            lines.append(f"{name}.wall_s = {seconds:.6g} s  (median of {n_timed} sets)")
    print("\n".join(lines))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
