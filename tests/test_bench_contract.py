"""The benchmark's traced runs find library entry points by name and parameter.

``bench/layer_metrics.py`` binds the functions below by attribute name and
reads their arguments by parameter name. Renaming either in ``src/`` would
make every ``bench/run.py --trace 1`` run crash, so each counter is run here
on a real traced call.
"""

import sys
from pathlib import Path

import numpy as np

from skorokhod_kit import (
    InitialLaw,
    RngSeed,
    SampledPath,
    TimeGrid,
    preset_coefficients,
    unit_disc,
)
from skorokhod_kit import randomness, reflectnd, rsde

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_traced_counters_bind_the_library_entry_points():
    counters = layer_metrics.make_counters()
    grid = TimeGrid.uniform(1.0, 8)
    drift = preset_coefficients("constant-drift(1,0)", d=2)
    w = SampledPath.continuous(grid, np.zeros((len(grid), 2)))
    with Tracer("skorokhod_kit", counters) as tracer:
        randomness.normal_matrix(RngSeed(1), 3, 5)
        randomness.brownian_sample(grid, 2, InitialLaw.point_mass(0.0), RngSeed(1))
        reflectnd.solve_skorokhod_continuous(w, unit_disc())
        rsde.euler_reflected(drift, unit_disc(), [0.0, 0.0], grid, RngSeed(2))
        rsde.simulate_reflected_terminal_batch(drift, unit_disc(), [0.0, 0.0], grid, RngSeed(3), 4)
        rsde.strong_error_estimate(
            drift, unit_disc(), [0.0, 0.0], 1.0, [0.25, 0.125], 2, RngSeed(4)
        )
    extras = {}
    for span in tracer.take():
        extras.setdefault(span.name, span.extra)
    assert extras["randomness.normal_matrix"] == {"normals": 15, "streams": 3}
    assert extras["randomness.brownian_sample"] == {"normals": 16, "streams": 1}
    assert extras["reflectnd.solve_skorokhod_continuous"]["steps"] >= 8
    assert extras["rsde.euler_reflected"] == {"steps": 8}
    assert extras["rsde.simulate_reflected_terminal_batch"] == {"steps": 32}
    assert extras["rsde.strong_error_estimate"] == {"steps": 2 * (4 + 8)}
