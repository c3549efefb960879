"""One-dimensional reflection at 0: explicit Skorokhod map and reflecting
Brownian motion built from it.

For a driver f with f(0) = 0 and a start x0 >= 0, the unique decomposition
g = x0 + f + h with g >= 0, h nondecreasing from 0, and h flat wherever
g > 0, is given by the running-minimum formula

    h(t) = -min_{s <= t} min(x0 + f(s), 0),        g = x0 + f + h.

On a grid this is one pass of a running minimum. When a new minimum is
attained the subtraction cancels bit-exactly, so g hits 0 exactly and the
complementarity condition can be asserted without tolerances. The map, its
terminal value and the diagnostics run on blocks of paths shaped
(paths, grid); the SampledPath forms are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import SampledPath
from .randomness import InitialLaw, RngSeed


@dataclass(frozen=True, eq=False)
class Skorokhod1dSolution:
    """Reflected path g >= 0 and its nondecreasing pushing term h."""

    g: SampledPath
    h: SampledPath
    x0: float


def skorokhod_map_1d_batch(v: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Reflect each row of free paths v = x0 + f, shaped (paths, grid), at 0.

    Returns (g, h) shaped like v: h = -running min of min(v, 0) along each
    row and g = v + h, written into the arrays ``out`` = (g, h) if given.
    """
    g, h = (None, None) if out is None else out
    h = np.minimum(v, 0.0, out=h)
    np.minimum.accumulate(h, axis=-1, out=h)
    np.subtract(0.0, h, out=h)  # 0.0 - avoids a cosmetic -0.0 at flat starts
    return np.add(v, h, out=g), h


def skorokhod_terminal_1d_batch(v: np.ndarray) -> np.ndarray:
    """g(T) = v(T) - min(min v, 0) for each row of free paths v.

    The column v(0) = x0 >= 0 may be left out, as it never lowers the min.
    """
    return v[..., -1] - np.minimum(np.min(v, axis=-1), 0.0)


def skorokhod_map_1d(f: SampledPath, x0: float) -> Skorokhod1dSolution:
    """Reflection at 0 of a scalar driver with f(0) = 0: a batch of one."""
    if x0 < 0.0:
        raise ValueError("x0 must be nonnegative")
    fv = f.scalar_values
    if fv[0] != 0.0:
        raise ValueError("driver must start at 0")
    g, h = skorokhod_map_1d_batch((x0 + fv)[None])
    return Skorokhod1dSolution(
        g=SampledPath(f.grid, g[0], f.kind),
        h=SampledPath(f.grid, h[0], f.kind),
        x0=float(x0),
    )


def rbm_from_skorokhod(
    B: SampledPath, law: InitialLaw, rng: RngSeed | None = None
) -> Skorokhod1dSolution:
    """Reflecting Brownian motion X = X(0) + B + phi via the Skorokhod map."""
    if law.point is None and rng is None:
        raise ValueError("a custom initial law needs an rng")
    x0 = law.point[0] if law.point is not None else law.draw(rng.generator(), 1)[0]
    return skorokhod_map_1d(B, float(x0))


def rbm_abs(B: SampledPath) -> SampledPath:
    """Pointwise absolute value of a scalar path."""
    return SampledPath(B.grid, np.abs(B.scalar_values), B.kind)


def reflected_density(t: float, x: float, y: float) -> float:
    """Transition density of reflection at 0: folded Gaussian kernel.

    Equals (2*pi*t)^(-1/2) * [exp(-(x-y)^2/2t) + exp(-(x+y)^2/2t)] for
    x, y >= 0.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    if x < 0.0 or y < 0.0:
        raise ValueError("x and y must be nonnegative")
    c = 1.0 / np.sqrt(2.0 * np.pi * t)
    return float(c * (np.exp(-((x - y) ** 2) / (2.0 * t)) + np.exp(-((x + y) ** 2) / (2.0 * t))))


def skorokhod_1d_diagnostics_batch(
    g: np.ndarray, h: np.ndarray, v: np.ndarray, scratch=None
) -> dict:
    """Grid-level checks of the defining conditions for g, h and v = x0 + f (paths, grid).

    Per row: the max decomposition defect |g - (v + h)|, the most negative h
    increment, h at time 0, the h mass spent while g > 0 (exactly 0 for a
    correct map), and the most negative g value. The work arrays are views
    of ``scratch``, an array shaped like v, if given.
    """
    s = np.empty_like(v) if scratch is None else scratch
    np.add(v, h, out=s)
    np.subtract(g, s, out=s)
    decomposition = np.max(np.abs(s, out=s), axis=-1)
    dh = np.subtract(h[..., 1:], h[..., :-1], out=s[..., 1:])  # np.diff along rows
    min_dh = np.min(dh, axis=-1)
    np.multiply(dh, g[..., 1:] > 0.0, out=dh)
    return {
        "decomposition_max_abs": decomposition,
        "min_h_increment": min_dh,
        "h_start": h[..., 0].copy(),
        "complementarity_mass": np.sum(dh, axis=-1),
        "min_g": np.min(g, axis=-1),
    }


def skorokhod_1d_diagnostics(sol: Skorokhod1dSolution, f: SampledPath) -> dict:
    """skorokhod_1d_diagnostics_batch for one solution, as floats."""
    g, h, v = sol.g.scalar_values, sol.h.scalar_values, sol.x0 + f.scalar_values
    diag = skorokhod_1d_diagnostics_batch(g[None], h[None], v[None])
    return {key: float(value[0]) for key, value in diag.items()}
