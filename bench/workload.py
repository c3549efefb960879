"""Body of one workload process: set up, run the workload's experiment sets.

Run by ``bench/run.py`` in a fresh interpreter, one process at a time:

    python3 bench/workload.py --workload NAME --mode setup|timed|traced
        [--seed N] [--budget SECONDS] [--out DIR]

and prints one JSON object as its last line. ``setup`` only imports the
library and builds the workload's configs and domains. ``timed`` runs one
set with one worker (the serial baseline and determinism reference), then
sets at the default worker count until the budget is spent (at least two).
``traced`` runs the serial set, untraced sets, and one set under the tracer.
Every mode times ``calibration_s`` after set-up, and before the first and
after each default-worker set, so run.py can correct for the host's speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

T_START = time.perf_counter()

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


@dataclass(frozen=True)
class Exp:
    """One experiment of a workload, with the config keys the benchmark sets."""

    name: str
    n_paths: int | None = None
    n_steps: int | None = None
    options: dict = field(default_factory=dict)


# Sizes are cut from the defaults so one set takes a few seconds on 2 cores.
# Experiments gated by Monte Carlo tests against a discretized law scale paths
# and steps by the same factor: the O(sqrt(dt)) discretization bias and the
# standard error then keep their ratio at the defaults, so the checks' known
# miscalibration is neither hidden nor amplified. Exact-property experiments
# scale paths only.
WORKLOADS = {
    # bulk normal_matrix draws into vectorized running-min and occupation
    # kernels under the thread pool; no projection or stepping
    "brownian-1d": (
        Exp("skorokhod-1d-props", n_paths=512, n_steps=5000),
        Exp("rbm-density", n_paths=5000, n_steps=5000),
        Exp("local-time", n_paths=5000, n_steps=5000, options={"fine_paths": 100}),
    ),
    # one Philox stream built per path, 1000 normals each, per-path loops in
    # itocalc, no pool
    "per-path": (
        Exp("ito-isometry", n_paths=20_000),
        Exp("ito-formula"),
    ),
    # scalar ConvexDomain.project in the n-d step recursion, refinement, and
    # per-landing normal-cone diagnostics
    "reflect-nd": (
        Exp("nd-skorokhod-props", n_paths=200),
        Exp("condition-checks"),
    ),
    # projected Euler in all three forms: project_batch over 512-row chunks,
    # per-path scalar project, and euler_reflected
    "euler": (
        Exp("rsde-consistency", n_paths=2000, n_steps=2000),
        Exp("strong-error", n_paths=48),
    ),
}

# Domains each workload's experiments build, by constructor name and args.
WORKLOAD_DOMAINS = {
    "brownian-1d": (),
    "per-path": (),
    "reflect-nd": (
        ("unit_disc", ()), ("orthant", (2,)), ("half_line", ()),
        ("halfplane", ()), ("strip", ()), ("orthant", (3,)),
    ),
    "euler": (("halfplane", ()), ("half_line", ()), ("unit_disc", ())),
}

# Checks whose verdict is a Monte Carlo test at a threshold: a correct program
# fails them at some seeds. They count in failed_share but not as failed
# operations; every other check is exact and a failure means a wrong output.
MONTE_CARLO_CHECKS = {
    "rbm-density": {"ks_half_normal", "ks_two_sample_vs_abs", "mean_terminal_within_3se"},
    "local-time": {
        "occupation_within_3se", "tanaka_within_3se",
        "cross_estimator_rms", "bandwidth_ladder_monotone",
    },
    "ito-isometry": {
        "lhs_within_3se_of_half", "rhs_within_3se_of_half",
        "isometry_within_4_joint_se", "constant_integrand_lhs_within_3se",
    },
    "ito-formula": {"residual_rms_small", "rms_ratio_order_half"},
    "rsde-consistency": {"ks_half_normal"},
    "strong-error": {"reflected_gaps_decrease"},
}

# path dimension per experiment, for the stated size paths x steps x dimension
DIMENSION = {"nd-skorokhod-props": 2}


def build_configs(workload: str, seed: int | None, out_root: Path):
    """The workload's ExperimentConfigs (pinned seeds unless seed is given)."""
    from skorokhod_kit.experiments import default_config

    configs = []
    for exp in WORKLOADS[workload]:
        overrides = {"out_dir": str(out_root / exp.name)}
        if exp.n_paths is not None:
            overrides["n_paths"] = exp.n_paths
        if exp.n_steps is not None:
            overrides["n_steps"] = exp.n_steps
        if exp.options:
            overrides["options"] = dict(exp.options)
        if seed is not None:
            overrides["seed"] = seed
        configs.append(default_config(exp.name, **overrides))
    return configs


def build_domains(workload: str):
    from skorokhod_kit import domains

    return [getattr(domains, ctor)(*args) for ctor, args in WORKLOAD_DOMAINS[workload]]


def stated_size(configs) -> int:
    """Configured paths x steps x dimension, summed over the workload."""
    return sum(c.n_paths * c.n_steps * DIMENSION.get(c.experiment, 1) for c in configs)


def import_library():
    """Import skorokhod_kit from this checkout's src/, and nothing else."""
    if not (SRC / "skorokhod_kit" / "__init__.py").is_file():
        raise SystemExit(f"error: no skorokhod_kit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import skorokhod_kit

    if Path(skorokhod_kit.__file__).resolve().parent != SRC / "skorokhod_kit":
        raise SystemExit(f"error: imported skorokhod_kit from {skorokhod_kit.__file__}")
    return skorokhod_kit


# -- host speed --------------------------------------------------------------


def calibration_s() -> float:
    """Seconds taken by one fixed computation that calls no skorokhod_kit code.

    A shared host's speed drifts by 10-30% over tens of seconds as other
    tenants come and go. Timed on either side of each set, this computation
    tracks that drift, so run.py can scale each set's time to the reference
    host speed. It imitates the kinds of work the workloads do, in numpy
    alone: a Philox stream per path drawing 1000 normals, a loop of tiny
    array operations like a scalar projection step, and passes over an array
    twice the size of the L2 cache.
    """
    import numpy as np

    t0 = time.perf_counter()
    for key in range(400):
        np.cumsum(np.random.Generator(np.random.Philox(key=key)).standard_normal(1000))
    x = np.array([0.3, -0.2])
    normal = np.array([0.0, 1.0])
    for _ in range(5000):
        y = x + 0.01 * normal
        slack = float(normal @ y)
        if slack < 0.0:
            y = y - slack * normal
        x = np.maximum(y, -1.0)
    bulk = np.random.Generator(np.random.Philox(key=0)).standard_normal(1 << 19)  # 4 MiB
    for _ in range(8):
        np.minimum.accumulate(bulk)
    return time.perf_counter() - t0


# -- running sets ------------------------------------------------------------


def run_set(configs, label: str, out_root: Path, workers: str | None):
    """Run every experiment once; returns (wall seconds, per-experiment records).

    ``workers`` sets SKOROKHOD_KIT_THREADS for the set (None keeps the
    environment's value).
    """
    from skorokhod_kit.experiments import run_experiment

    saved = os.environ.get("SKOROKHOD_KIT_THREADS")
    if workers is not None:
        os.environ["SKOROKHOD_KIT_THREADS"] = workers
    set_configs = [c.replace(out_dir=str(out_root / label / c.experiment)) for c in configs]
    outcomes = []
    try:
        t0 = time.perf_counter()
        for config in set_configs:
            t = time.perf_counter()
            try:
                result = run_experiment(config)
                outcomes.append((config, time.perf_counter() - t, result, None))
            except Exception:
                outcomes.append((config, time.perf_counter() - t, None, traceback.format_exc()))
        wall = time.perf_counter() - t0
    finally:
        if workers is not None:
            if saved is None:
                del os.environ["SKOROKHOD_KIT_THREADS"]
            else:
                os.environ["SKOROKHOD_KIT_THREADS"] = saved
    records = []
    for config, seconds, result, error in outcomes:
        record = {"experiment": config.experiment, "seed": config.seed, "wall_s": seconds}
        if error is not None:
            record.update(exit_code=None, error=error.strip().splitlines()[-1],
                          failing_checks=[], digest=None)
        else:
            record.update(
                exit_code=result.exit_code,
                error=None,
                failing_checks=[c.name for c in result.checks if not c.passed],
                digest=hashlib.sha256(result.artifacts.summary.read_bytes()).hexdigest(),
            )
        records.append(record)
    return wall, {"label": label, "workers": workers or "default", "wall_s": wall,
                  "experiments": records}


def judge(sets) -> dict:
    """Failures across all sets: exceptions, failed checks, digest mismatches."""
    reference = {r["experiment"]: r["digest"] for r in sets[0]["experiments"]}
    attempted = failed = mc_only = 0
    problems = []
    for s in sets:
        for r in s["experiments"]:
            attempted += 1
            name = r["experiment"]
            exact = [c for c in r["failing_checks"] if c not in MONTE_CARLO_CHECKS.get(name, ())]
            broken = []
            if r["error"] is not None:
                broken.append(f"raised {r['error']}")
            if exact:
                broken.append(f"failed exact checks {exact}")
            if r["digest"] != reference[name]:
                broken.append("summary.json digest differs from the first set")
            if broken:
                failed += 1
                problems.append(f"{s['label']}/{name}: " + "; ".join(broken))
            elif r["failing_checks"]:
                mc_only += 1
                problems.append(f"{s['label']}/{name}: failed Monte Carlo checks "
                                f"{r['failing_checks']} at seed {r['seed']}")
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_share": (failed + mc_only) / attempted,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--budget", type=float, default=20.0)
    parser.add_argument("--out", default=str(REPO / ".bench_out"))
    args = parser.parse_args(argv)

    import_library()
    out_root = Path(args.out) / args.workload
    configs = build_configs(args.workload, args.seed, out_root)
    build_domains(args.workload)
    setup_s = time.perf_counter() - T_START
    setup_calibration_s = calibration_s()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "calibration_s": setup_calibration_s}))
        return 0

    shutil.rmtree(out_root, ignore_errors=True)
    from envinfo import library_environment

    sets = []
    _, serial = run_set(configs, "serial", out_root, workers="1")
    sets.append(serial)
    timed = []
    trace_reserve = 0.0
    if args.mode == "traced":
        trace_reserve = 2.5 * serial["wall_s"]
    calibration_before = calibration_s()
    while True:
        wall, record = run_set(configs, f"default-{len(timed)}", out_root, workers=None)
        calibration_after = calibration_s()
        # the host's speed during the set: the calibrations on either side
        record["calibration_s"] = (calibration_before + calibration_after) / 2
        calibration_before = calibration_after
        sets.append(record)
        timed.append(record)
        elapsed = time.perf_counter() - T_START
        enough = len(timed) >= (1 if args.mode == "traced" else 2)
        if enough and elapsed + wall + trace_reserve > args.budget:
            break

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration_s,
        "stated_size": stated_size(configs),
        "serial_wall_s": serial["wall_s"],
        "wall_s": statistics.median(s["wall_s"] for s in timed),
        "experiment_wall_s": {
            c.experiment: statistics.median(
                s["experiments"][i]["wall_s"] for s in timed
            )
            for i, c in enumerate(configs)
        },
        "environment": library_environment(),
    }
    if args.mode == "traced":
        import layer_metrics

        traced_wall, traced_set, spans = layer_metrics.traced_set(
            lambda: run_set(configs, "traced", out_root, workers=None)
        )
        sets.append(traced_set)
        report["traced_wall_s"] = traced_wall
        report["layers"] = layer_metrics.compute(
            spans, traced_wall, report["wall_s"], serial["wall_s"]
        )
        layer_metrics.write_spans(spans, out_root / "spans.json")
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["sets"] = sets
    report.update(judge(sets))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
