"""Counter-based random streams, initial laws, and Gaussian path generation.

Streams are keyed by (seed, stream): the Philox counter-based generator makes
each (seed, stream) pair a reproducible, independent source, so Monte Carlo
runs can hand one stream to each path and stay deterministic under any
worker layout. Normals come from the inverse CDF applied to 53-bit uniforms,
one uniform per normal, so a prefix of a stream always yields a prefix of
the same increment sequence, and any block of columns of a stream can be
drawn on its own by setting the Philox counter (normal_tile): a long path
can be generated in tiles of steps without drawing it whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .errors import GenerationError
from .paths import SampledPath, TimeGrid
from .pool import accumulate_rows

_HALF_ULP = 2.0**-54  # half the spacing of the 53-bit uniform grid


@dataclass(frozen=True)
class RngSeed:
    """Key of one reproducible random stream."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % (1 << 64), self.stream % (1 << 64)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def with_stream(self, stream: int) -> "RngSeed":
        return RngSeed(self.seed, stream)


def _normals(u: np.ndarray) -> np.ndarray:
    """Normals, in place, from ``Generator.random``'s k * 2**-53 (k the raw word >> 11).

    Adding 2**-54 rounds exactly as the cell midpoint (k + 0.5) / 2**53, since
    both round (2k + 1) * 2**-54, so no uniform is 0 or 1.
    """
    u += _HALF_ULP
    return ndtri(u, out=u)


def standard_normals(gen: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals by inverse CDF, one 53-bit draw per value."""
    return _normals(gen.random(n))


def normal_tile(
    rng: RngSeed,
    n_rows: int,
    col_start: int,
    n_cols: int,
    first_stream: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Columns col_start .. col_start + n_cols of normal_matrix's rows, in ``out`` if given.

    Philox is counter-based: its counter steps once per block of four
    64-bit words, one word per normal, so setting the counter to
    col_start // 4 with an empty output buffer starts the stream at column
    col_start. The tile then equals that slice of ``normal_matrix(rng,
    n_rows, col_start + n_cols, first_stream)`` bit for bit; col_start must
    be a multiple of 4. One Philox bit generator is re-keyed per row and
    filled by ``Generator.random``, which runs without the GIL, so it
    overlaps other pool workers' work.
    """
    if col_start % 4:
        raise ValueError(f"col_start must be a multiple of 4, got {col_start}")
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state  # fresh: output buffer empty
    state["state"]["counter"] = np.array([col_start // 4, 0, 0, 0], dtype=np.uint64)
    seed = rng.seed % (1 << 64)
    first = rng.stream + first_stream
    u = np.empty((n_rows, n_cols)) if out is None else out
    for i in range(n_rows):
        stream = (first + i) % (1 << 64)
        state["state"]["key"] = np.array([seed, stream], dtype=np.uint64)
        bits.state = state
        gen.random(out=u[i])
    return _normals(u)


def normal_matrix(rng: RngSeed, n_rows: int, n_cols: int, first_stream: int = 0) -> np.ndarray:
    """Row i holds the first n_cols normals of stream rng.stream + first_stream + i.

    Row i equals ``standard_normals(rng.with_stream(rng.stream + first_stream +
    i).generator(), n_cols)`` bit for bit, so two stream blocks of one seed
    never share rows. It is the tile of normal_tile at column 0.
    """
    return normal_tile(rng, n_rows, 0, n_cols, first_stream)


@dataclass(frozen=True)
class InitialLaw:
    """Distribution of a path's starting point: a point mass or a custom sampler.

    Custom samplers receive a numpy Generator and must return a length-d array.
    """

    point: np.ndarray | None = None
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None

    def __post_init__(self):
        if (self.point is None) == (self.sampler is None):
            raise ValueError("exactly one of point, sampler must be given")
        if self.point is not None:
            object.__setattr__(
                self, "point", np.atleast_1d(np.asarray(self.point, dtype=np.float64))
            )

    @classmethod
    def point_mass(cls, x0) -> "InitialLaw":
        return cls(point=np.atleast_1d(np.asarray(x0, dtype=np.float64)))

    @classmethod
    def custom(cls, sampler: Callable[[np.random.Generator, int], np.ndarray]) -> "InitialLaw":
        return cls(sampler=sampler)

    def draw(self, gen: np.random.Generator, d: int) -> np.ndarray:
        if self.point is not None:
            if self.point.size == 1 and d > 1:
                return np.full(d, self.point[0])
            if self.point.size != d:
                raise ValueError("point mass dimension does not match d")
            return self.point.copy()
        x0 = np.atleast_1d(np.asarray(self.sampler(gen, d), dtype=np.float64))
        if x0.size != d:
            raise ValueError("custom sampler returned wrong dimension")
        return x0


def path_values(x0, increments: np.ndarray, out=None) -> np.ndarray:
    """x0, then x0 plus the running sums of increments (..., steps, d) along steps.

    For d = 1 the sums run one path per call (pool.accumulate_rows), which
    releases the GIL; for d > 1 they stay one n-d cumsum.
    """
    shape = increments.shape
    values = np.empty(shape[:-2] + (shape[-2] + 1, shape[-1])) if out is None else out
    values[..., 0, :] = x0
    if shape[-1] == 1:
        accumulate_rows(np.add, increments[..., 0], values[..., 1:, 0])
    else:
        np.cumsum(increments, axis=-2, out=values[..., 1:, :])
    values[..., 1:, :] += x0
    return values


def brownian_increments(
    rng: RngSeed, n_paths: int, grid: TimeGrid, d: int = 1, first_stream: int = 0
) -> np.ndarray:
    """Brownian increments shaped (paths, steps, d).

    Path i is one normal_matrix row, from stream rng.stream + first_stream + i,
    scaled by sqrt(grid.deltas): the increments of brownian_sample on that
    stream from a point mass, bit for bit.
    """
    n_steps = len(grid) - 1
    rows = normal_matrix(rng, n_paths, n_steps * d, first_stream)
    scale = np.sqrt(grid.deltas)
    rows *= np.repeat(scale, d) if d > 1 else scale  # along rows: numpy's fast inner loop
    return rows.reshape(n_paths, n_steps, d)


def brownian_paths(
    rng: RngSeed, n_paths: int, grid: TimeGrid, d: int = 1, x0=0.0, first_stream: int = 0, out=None
) -> np.ndarray:
    """Brownian paths from the point x0, shaped (paths, grid, d), in ``out`` if given.

    Path i equals ``brownian_sample(grid, d, InitialLaw.point_mass(x0),
    RngSeed(rng.seed, rng.stream + first_stream + i)).values`` bit for bit.
    """
    x0 = InitialLaw.point_mass(x0).draw(None, d)
    dB = brownian_increments(rng, n_paths, grid, d, first_stream)
    values = path_values(x0, dB, out=out)
    if not np.all(np.isfinite(values)):
        raise GenerationError("brownian_paths produced a non-finite value")
    return values


def brownian_sample(grid: TimeGrid, d: int, law: InitialLaw, rng: RngSeed) -> SampledPath:
    """Brownian path on the grid: independent N(0, dt * I) increments.

    The starting point is drawn first, then increments left to right, so a
    truncated grid reproduces a prefix of the same path.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    gen = rng.generator()
    x0 = law.draw(gen, d)
    n_steps = len(grid) - 1
    increments = standard_normals(gen, n_steps * d).reshape(n_steps, d)
    increments *= np.sqrt(grid.deltas)[:, None]
    values = path_values(x0, increments)
    if not np.all(np.isfinite(values)):
        raise GenerationError("brownian_sample produced a non-finite value")
    return SampledPath.continuous(grid, values)
