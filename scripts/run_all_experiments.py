#!/usr/bin/env python3
"""Run every named experiment with its default configuration.

Writes artifacts under results/<experiment>/ and prints a one-line verdict
per experiment, ending in the first 16 hex digits of the sha256 of its
summary.json, so two runs' summaries can be compared from their output.
Exits nonzero if any configured check fails.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from skorokhod_kit.experiments import EXPERIMENTS, default_config, run_experiment


def summary_digest(path) -> str:
    """First 16 hex digits of the sha256 of a summary.json file."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="root output directory")
    parser.add_argument("--seed", type=int, default=None, help="override every seed")
    args = parser.parse_args()

    failures = []
    for name in sorted(EXPERIMENTS):
        overrides = {"out_dir": f"{args.out}/{name}"}
        if args.seed is not None:
            overrides["seed"] = args.seed
        config = default_config(name, **overrides)
        t0 = time.perf_counter()
        result = run_experiment(config)
        elapsed = time.perf_counter() - t0
        n_pass = sum(c.passed for c in result.checks)
        verdict = "PASS" if result.exit_code == 0 else "FAIL"
        digest = summary_digest(result.artifacts.summary)
        print(
            f"{name:22s} {verdict}  {n_pass}/{len(result.checks)} checks  {elapsed:7.1f} s"
            f"  sha256 {digest}"
        )
        if result.exit_code != 0:
            failures.append(name)
            for check in result.checks:
                if not check.passed:
                    print(f"    failed: {check.name}: {check.detail}")
    if failures:
        print(f"failing experiments: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
