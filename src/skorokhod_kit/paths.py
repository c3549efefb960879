"""Time grids and sampled paths, the carrier types for every solver here.

A path is a finite sequence of R^d values on a strictly increasing time grid,
tagged with how values between grid points are to be read: piecewise-linear
("continuous") or right-continuous piecewise-constant ("step").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class PathKind(enum.Enum):
    CONTINUOUS = "continuous"
    STEP = "step"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing times starting at 0, length at least 2."""

    times: np.ndarray

    def __post_init__(self):
        times = _frozen(np.atleast_1d(self.times))
        if times.ndim != 1 or times.size < 2:
            raise ValueError("time grid needs at least 2 points")
        if not np.all(np.isfinite(times)):
            raise ValueError("time grid must be finite")
        if times[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, horizon: float, n_steps: int) -> "TimeGrid":
        """Grid with times[k] = k * horizon / n_steps."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not horizon > 0.0:
            raise ValueError("horizon must be positive")
        return cls(np.arange(n_steps + 1, dtype=np.float64) * (horizon / n_steps))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @cached_property
    def deltas(self) -> np.ndarray:
        """Step lengths, computed once: chunk kernels read them per chunk."""
        return _frozen(np.diff(self.times))

    def __len__(self) -> int:
        return int(self.times.size)

    def same_as(self, other: "TimeGrid") -> bool:
        if other is self:
            return True
        return self.times.shape == other.times.shape and bool(
            np.array_equal(self.times, other.times)
        )


@dataclass(frozen=True, eq=False)
class SampledPath:
    """Values in R^d sampled on a grid, one row per grid time.

    ``values`` is stored as an (n, d) array; scalar paths may be constructed
    from 1-d input and read back via :attr:`scalar_values`.
    """

    grid: TimeGrid
    values: np.ndarray
    kind: PathKind

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError("values must be an (n,) or (n, d) array with d >= 1")
        if values.shape[0] != len(self.grid):
            raise ValueError("values length must match the grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", _frozen(values))

    @classmethod
    def continuous(cls, grid: TimeGrid, values: np.ndarray) -> "SampledPath":
        return cls(grid, values, PathKind.CONTINUOUS)

    @classmethod
    def step(cls, grid: TimeGrid, values: np.ndarray) -> "SampledPath":
        return cls(grid, values, PathKind.STEP)

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    @property
    def scalar_values(self) -> np.ndarray:
        if self.dim != 1:
            raise ValueError(f"a one-dimensional path is required, got d = {self.dim}")
        return self.values[:, 0]

    def value_at(self, t: float) -> np.ndarray:
        """Value at time t under this path's interpolation rule."""
        times = self.grid.times
        if t < times[0] or t > times[-1]:
            raise ValueError("t outside the grid span")
        k = int(np.searchsorted(times, t, side="right") - 1)
        if k >= len(times) - 1:
            return self.values[-1].copy()
        if self.kind is PathKind.STEP:
            return self.values[k].copy()
        w = (t - times[k]) / (times[k + 1] - times[k])
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]

    def with_kind(self, kind: PathKind) -> "SampledPath":
        return SampledPath(self.grid, self.values, kind)

    def scale(self) -> float:
        """Magnitude scale used for relative tolerances."""
        return max(1.0, float(np.max(np.abs(self.values))))
