#!/usr/bin/env python3
"""Emit plot-ready CSV data for a driver path and its reflected companion.

Produces two files:
  <out>/brownian_reflection.csv   t, B, Xplus for one 1d path
  <out>/disc_reflection.csv       t, state, pushing term on the unit disc
"""

import argparse

from skorokhod_kit import (
    PathKind,
    RngSeed,
    SampledPath,
    TimeGrid,
    brownian_sample,
    skorokhod_map_1d_batch,
    solve_skorokhod_step,
    unit_disc,
)
from skorokhod_kit.pathio import emit_plot_data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--out", default="results/figures")
    args = parser.parse_args()

    grid = TimeGrid.uniform(1.0, args.steps)
    B = brownian_sample(grid, 1, 0.0, RngSeed(args.seed))
    g, _ = skorokhod_map_1d_batch(B.values[..., 0])  # reflecting Brownian motion from 0
    X = SampledPath.continuous(grid, g[0])
    path_1d = emit_plot_data((B, X), f"{args.out}/brownian_reflection.csv")
    print(f"wrote {path_1d}")

    driver = brownian_sample(grid, 2, [0.0, 0.0], RngSeed(args.seed, 1)).with_kind(PathKind.STEP)
    nd = solve_skorokhod_step(driver, unit_disc())
    path_2d = emit_plot_data(nd, f"{args.out}/disc_reflection.csv")
    print(f"wrote {path_2d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
