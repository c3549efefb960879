"""One-dimensional reflection at 0: the explicit Skorokhod map.

For a driver f with f(0) = 0 and a start x0 >= 0, the unique decomposition
g = x0 + f + h with g >= 0, h nondecreasing from 0, and h flat wherever
g > 0, is given by the running-minimum formula

    h(t) = -min_{s <= t} min(x0 + f(s), 0),        g = x0 + f + h.

On a grid this is one pass of a running minimum. When a new minimum is
attained the subtraction cancels bit-exactly, so g hits 0 exactly and the
complementarity condition can be asserted without tolerances. The map, its
terminal value and the diagnostics run on blocks of free paths v = x0 + f
shaped (paths, grid); one path is a block of one row. Reflecting Brownian
motion is the map of a block of Brownian paths (randomness.brownian_paths).
"""

from __future__ import annotations

import numpy as np

from .pool import accumulate_rows


def skorokhod_map_1d_batch(v: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Reflect each row of free paths v = x0 + f, shaped (paths, grid), at 0.

    Returns (g, h) shaped like v: h = -running min of min(v, 0) along each
    row and g = v + h, written into the arrays ``out`` = (g, h) if given;
    any two of v, g and h sharing memory is a ValueError. g first holds
    min(v, 0), so the running minimum runs out of place through
    pool.accumulate_rows, which runs long rows one call each without the
    GIL. A row whose start v(0) = x0 is negative is a ValueError naming the
    first.
    """
    starts = v[..., 0]
    below = np.flatnonzero(starts < 0.0)
    if below.size:
        raise ValueError(f"row {below[0]} starts below 0: v(0) = {starts.flat[below[0]]}")
    if out is None:
        g = np.minimum(v, 0.0)
        h = np.empty_like(g)
    else:
        g, h = out
        for names, (a, b) in {"v and g": (v, g), "v and h": (v, h), "g and h": (g, h)}.items():
            if np.may_share_memory(a, b):
                raise ValueError(f"skorokhod_map_1d_batch: {names} share memory")
        np.minimum(v, 0.0, out=g)
    accumulate_rows(np.minimum, g, h)
    np.subtract(0.0, h, out=h)  # 0.0 - avoids a cosmetic -0.0 at flat starts
    return np.add(v, h, out=g), h


def skorokhod_terminal_1d_batch(v: np.ndarray) -> np.ndarray:
    """g(T) = v(T) - min(min v, 0) for each row of free paths v.

    The column v(0) = x0 >= 0 may be left out, as it never lowers the min.
    """
    return v[..., -1] - np.minimum(np.min(v, axis=-1), 0.0)


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
