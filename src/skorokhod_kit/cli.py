"""Command line entry point: skorokhod-kit <experiment> [--config FILE] ...

Exit codes: 0 all configured checks passed, 1 at least one check failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig, parse_kv_file
from .experiments import EXPERIMENTS, UsageError, experiment_defaults, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skorokhod-kit",
        description="Run a named stochastic-reflection experiment and write its artifacts.",
    )
    parser.add_argument(
        "experiment",
        help=f"one of: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument("--config", help="flat key-value config file", default=None)
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    return parser


def load_config(args) -> ExperimentConfig:
    defaults = experiment_defaults(args.experiment)
    defaults["out_dir"] = f"results/{args.experiment}"
    if args.config is not None:
        doc = parse_kv_file(args.config)
        config = ExperimentConfig.from_mapping(doc, defaults=defaults)
        if config.experiment != args.experiment:
            raise UsageError(
                f"config names experiment {config.experiment!r} but the command line "
                f"asked for {args.experiment!r}"
            )
    else:
        config = ExperimentConfig(**defaults)
    if args.seed is not None:
        config = config.replace(seed=args.seed)
    if args.out is not None:
        config = config.replace(out_dir=args.out)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        result = run_experiment(config)
    except (UsageError, ValueError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
    if result.exit_code != 0:
        failing = [c.name for c in result.checks if not c.passed]
        print(f"failed checks: {', '.join(failing)}", file=sys.stderr)
    print(f"artifacts written to {result.artifacts.out_dir}")
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
