#!/usr/bin/env python3
"""Run every named experiment with its default configuration.

Writes artifacts under results/<experiment>/ and prints a one-line verdict
per experiment, ending in the first 16 hex digits of the sha256 of its
summary.json, so two runs' summaries can be compared from their output.
Exits nonzero if any configured check fails, and prints each failed check
with its kind from the experiments' GATES table: a statistical check fails a
correct run at a small share of seeds, an exact or tolerance check only on a
wrong output. With ``--expect FILE`` it also exits nonzero, naming each
experiment, when a digest differs from FILE's (lines ``experiment digest``,
``#`` comments), for example ``--expect scripts/default_digests.txt`` for the
default configs.
"""

import argparse
import fnmatch
import hashlib
import re
import sys
import time
from pathlib import Path

from skorokhod_kit.experiments import EXPERIMENTS, GATES, default_config, run_experiment


def summary_digest(path) -> str:
    """First 16 hex digits of the sha256 of a summary.json file."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def read_digests(path) -> dict:
    """Experiment name -> digest from a file of ``experiment digest`` lines."""
    expected = {}
    for line in Path(path).read_text().splitlines():
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 2:
            raise ValueError(f"{path}: expected 'experiment digest', got {line!r}")
        expected[fields[0]] = fields[1]
    return expected


def digest_mismatches(digests: dict, expected: dict) -> list[str]:
    """One line per experiment whose digest differs from the expected one, or that one side lacks."""
    return [
        f"{name}: sha256 {digests.get(name, 'not run')}, expected {expected.get(name, 'none')}"
        for name in sorted(digests.keys() | expected.keys())
        if digests.get(name) != expected.get(name)
    ]


# what a failed check of each kind says about the run
MEANING = {
    "exact": "the output is wrong",
    "tolerance": "the output is off by more than its tol_ key allows",
    "statistical": "a correct run fails this at some seeds: rerun at another",
}


def check_kind(experiment: str, name: str) -> str:
    """The kind GATES gives a check of the experiment; a gate's {case} matches any text."""
    for gate in GATES[experiment]:
        if fnmatch.fnmatchcase(name, re.sub(r"\{\w+\}", "*", gate.name)):
            return gate.kind
    raise KeyError(f"{experiment} has no gate for a check named {name!r}")


def failure_lines(experiment: str, checks) -> list[str]:
    """One line per failed check, naming its kind and what its failure means."""
    lines = []
    for check in checks:
        if not check.passed:
            kind = check_kind(experiment, check.name)
            lines.append(f"    failed {kind} check: {check.name}: {check.detail} ({MEANING[kind]})")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="root output directory")
    parser.add_argument("--seed", type=int, default=None, help="override every seed")
    parser.add_argument("--expect", default=None, help="file of expected summary digests")
    args = parser.parse_args()
    expected = read_digests(args.expect) if args.expect is not None else None

    failures = []
    digests = {}
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
        digest = digests[name] = summary_digest(result.artifacts.summary)
        print(
            f"{name:22s} {verdict}  {n_pass}/{len(result.checks)} checks  {elapsed:7.1f} s"
            f"  sha256 {digest}"
        )
        if result.exit_code != 0:
            failures.append(name)
            print("\n".join(failure_lines(name, result.checks)))
    status = 0
    if failures:
        print(f"failing experiments: {', '.join(failures)}", file=sys.stderr)
        status = 1
    if expected is not None:
        for line in digest_mismatches(digests, expected):
            print(f"digest mismatch: {line}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
