"""Time grids and sampled paths, the carrier types for every solver here.

A path is a finite sequence of R^d values on a strictly increasing time grid,
tagged with how values between grid points are to be read: piecewise-linear
("continuous") or right-continuous piecewise-constant ("step"). A
SampledPath carries a batch of such paths on one grid, values shaped
(paths, grid, d); a single path is a batch of one.
"""

from __future__ import annotations

import enum
import operator
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


def row_slice(rows, n_paths: int) -> slice:
    """``w[i]`` or ``w[a:b]`` as a slice of the paths axis; an int keeps the axis."""
    if isinstance(rows, slice):
        return rows
    i = range(n_paths)[operator.index(rows)]  # IndexError out of range
    return slice(i, i + 1)


@dataclass(frozen=True, eq=False)
class SampledPath:
    """A batch of paths in R^d on one grid: ``values`` shaped (paths, grid, d).

    (grid,) or (grid, d) input is read as a batch of one. ``w[i]`` and
    ``w[a:b]`` select rows as batches that view the same values; the scalar
    accessor reads a batch of one one-dimensional path.
    """

    grid: TimeGrid
    values: np.ndarray
    kind: PathKind

    def __post_init__(self):
        # frozen before reshaping, so that no writable array aliases the values
        values = _frozen(np.asarray(self.values, dtype=np.float64))
        if values.ndim == 1:
            values = values[None, :, None]
        elif values.ndim == 2:
            values = values[None]
        if values.ndim != 3 or values.shape[0] < 1 or values.shape[2] < 1:
            raise ValueError(
                "values must be a (grid,), (grid, d) or (paths, grid, d) array with "
                f"at least one path and d >= 1, got shape {np.shape(self.values)}"
            )
        if values.shape[1] != len(self.grid):
            raise ValueError("values length must match the grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def continuous(cls, grid: TimeGrid, values: np.ndarray) -> "SampledPath":
        return cls(grid, values, PathKind.CONTINUOUS)

    @classmethod
    def step(cls, grid: TimeGrid, values: np.ndarray) -> "SampledPath":
        return cls(grid, values, PathKind.STEP)

    def __getitem__(self, rows) -> "SampledPath":
        return SampledPath(self.grid, self.values[row_slice(rows, self.n_paths)], self.kind)

    @property
    def n_paths(self) -> int:
        return int(self.values.shape[0])

    @property
    def dim(self) -> int:
        return int(self.values.shape[2])

    @property
    def scalar_values(self) -> np.ndarray:
        n_paths, _, d = self.values.shape
        if (n_paths, d) != (1, 1):
            raise ValueError(
                "one one-dimensional path is required, got (paths, grid, d) = "
                f"{self.values.shape}"
            )
        return self.values[0, :, 0]

    def with_kind(self, kind: PathKind) -> "SampledPath":
        return SampledPath(self.grid, self.values, kind)

    def scale(self) -> np.ndarray:
        """Each path's magnitude scale for relative tolerances, (paths,)."""
        return np.maximum(1.0, np.max(np.abs(self.values), axis=(1, 2)))
