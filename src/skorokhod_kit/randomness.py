"""Counter-based random streams and the Brownian paths drawn from them.

Streams are keyed by (seed, stream): the Philox counter-based generator makes
each (seed, stream) pair a reproducible, independent source, so Monte Carlo
runs can hand one stream to each path and stay deterministic under any
worker layout. A path of n steps in R^d is always its start plus the running
sums of the first n * d normals of its stream, step-major, scaled by
sqrt(dt). Normals are the inverse CDF of 53-bit uniforms, one per normal, so
a shorter grid draws a prefix of the same path, and any block of a stream's
columns can be drawn alone by setting the Philox counter. Only the key and
the counter change from one stream to the next, so each thread keeps one
Philox bit generator and re-keys it per row from a key column built once
per call (keyed_uniforms). normal_blocks is the one pipelined draw: one
thread keys the rows, which holds the GIL, while pool threads turn them
into normals without it and hand each block, of at most 1 MiB, to the
caller's finish; brownian_path_blocks hands on each block with its 1-d
paths.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ._special import ndtri
from .errors import GenerationError
from .paths import SampledPath, TimeGrid
from .pool import accumulate_rows, fill_then_finish, thread_rows

_HALF_ULP = 2.0**-54  # half the spacing of the 53-bit uniform grid
# normal_blocks' blocks hold at most _BLOCK_ROWS rows and, unless one row is
# longer, _BLOCK_VALUES values (1 MiB of float64): the fill_then_finish
# buffers stay a few MiB however long the rows, and wide rows still make
# enough blocks for the pool to share.
_BLOCK_ROWS = 64
_BLOCK_VALUES = 1 << 17


@dataclass(frozen=True)
class RngSeed:
    """Key of one reproducible random stream."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % (1 << 64), self.stream % (1 << 64)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


class _ThreadPhilox(threading.local):
    """One Philox bit generator per thread, its Generator and its state dict.

    keyed_uniforms re-keys the bit generator for every row by writing the
    dict back. The dict holds Python ints, not arrays: the state setter
    reads them several times faster.
    """

    def __init__(self):
        self.bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self.gen = np.random.Generator(self.bits)
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


_philox = _ThreadPhilox()


def keyed_uniforms(
    rng: RngSeed,
    n_rows: int,
    col_start: int,
    n_cols: int,
    first_stream: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Uniforms (n_rows, n_cols), in ``out`` if given: the first stage of a normal draw.

    Row i holds ``Generator.random`` words col_start .. col_start + n_cols of
    stream rng.stream + first_stream + i. Philox is counter-based: its
    counter steps once per block of four 64-bit words, one word per
    uniform, so setting the counter to col_start // 4 with an empty output
    buffer starts the stream at column col_start; col_start must be a
    non-negative multiple of 4, and ``out`` shaped (n_rows, n_cols). The
    (seed, stream) key column is built once per call. Each thread keeps one
    Philox bit generator, re-keyed per row in Python under the GIL by
    writing back its state dict, whose counter and empty buffer are set at
    the start of every call; ``Generator.random`` fills the row without the
    GIL.
    """
    if col_start < 0 or col_start % 4:
        raise ValueError(f"col_start must be a non-negative multiple of 4, got {col_start}")
    if out is not None and out.shape != (n_rows, n_cols):
        raise ValueError(f"keyed_uniforms needs out shaped {(n_rows, n_cols)}, got {out.shape}")
    keys = np.empty((n_rows, 2), dtype=np.uint64)
    keys[:, 0] = rng.seed % (1 << 64)
    keys[:, 1] = np.arange(n_rows, dtype=np.uint64)
    keys[:, 1] += np.uint64((rng.stream + first_stream) % (1 << 64))  # wraps as the key does
    bits, gen, state = _philox.bits, _philox.gen, _philox.state
    state["state"]["counter"] = [col_start // 4, 0, 0, 0]
    state["buffer_pos"] = 4  # empty: the first word comes from the counter
    state["has_uint32"] = 0
    u = np.empty((n_rows, n_cols)) if out is None else out
    for row, key in zip(u, keys.tolist()):
        state["state"]["key"] = key
        bits.state = state
        gen.random(out=row)
    return u


def inverse_cdf(u: np.ndarray) -> np.ndarray:
    """The normals of keyed_uniforms' u, in place: the second stage of a normal draw.

    k * 2**-53 from Generator.random, plus 2**-54, rounds exactly as the
    cell midpoint (k + 0.5) / 2**53: both round (2k + 1) * 2**-54, never 0
    or 1; ndtri maps it to its normal. Both run without the GIL.
    """
    u += _HALF_ULP
    return ndtri(u, out=u)


def normal_matrix(rng: RngSeed, n_rows: int, n_cols: int, first_stream: int = 0) -> np.ndarray:
    """Row i holds the first n_cols normals of stream rng.stream + first_stream + i.

    Row i equals ``ndtri(g.random(n_cols) + 2**-54)`` bit for bit, with g
    ``RngSeed(rng.seed, rng.stream + first_stream + i).generator()``, so two
    stream blocks of one seed never share rows.
    """
    return inverse_cdf(keyed_uniforms(rng, n_rows, 0, n_cols, first_stream))


def _block_rows(n_cols: int) -> int:
    """Rows per pool block of n_cols columns: 1 to _BLOCK_ROWS, within _BLOCK_VALUES."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // max(n_cols, 1)))


def normal_blocks(
    rng: RngSeed, n_rows: int, col_start: int, scale: np.ndarray, finish, first_stream: int = 0
) -> None:
    """Rows 0 .. n_rows - 1 of normals from column col_start, times scale, block by block.

    finish(first_row, block) gets rows first_row .. first_row + len(block) - 1
    of ``normal_matrix(rng, n_rows, col_start + len(scale),
    first_stream)[:, col_start:] * scale``, bit for bit; col_start is a
    multiple of 4. Blocks of _block_rows(len(scale)) rows (the last may be
    short) run on pool.fill_then_finish: this thread fills each block's
    uniforms in row order (keyed_uniforms), and pool threads, this one too
    when no buffer is free, turn them into normals (inverse_cdf), scale them
    in place and call finish, in any order. The block is scratch that
    finish may overwrite and must not keep; the error raised is that of the
    lowest failing block.
    """
    n_cols = len(scale)
    rows = _block_rows(n_cols)

    def fill(i, buf):
        a = i * rows
        u = buf[: n_rows - a]  # the last block may be short
        return keyed_uniforms(rng, len(u), col_start, n_cols, first_stream + a, out=u)

    def finish_block(i, u):
        block = inverse_cdf(u)
        block *= scale
        finish(i * rows, block)

    fill_then_finish(fill, finish_block, -(-n_rows // rows), (min(rows, n_rows), n_cols))


def path_values(x0, increments: np.ndarray) -> np.ndarray:
    """x0, then x0 plus the running sums of increments (..., steps, d) along steps.

    For d = 1 the sums go through pool.accumulate_rows, which runs long
    paths one call each without the GIL; for d > 1 they stay one n-d cumsum.
    """
    shape = increments.shape
    values = np.empty(shape[:-2] + (shape[-2] + 1, shape[-1]))
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
    stream, bit for bit.
    """
    n_steps = len(grid) - 1
    rows = normal_matrix(rng, n_paths, n_steps * d, first_stream)
    scale = np.sqrt(grid.deltas)
    rows *= np.repeat(scale, d) if d > 1 else scale  # along rows: numpy's fast inner loop
    return rows.reshape(n_paths, n_steps, d)


def _finite(values: np.ndarray) -> np.ndarray:
    """values, paths (paths, grid, ...), if finite at their last grid point.

    That point alone is exact: a non-finite running sum or start stays so,
    and a finite start plus these sums (steps below 1.2e155) cannot overflow.
    """
    if not np.all(np.isfinite(values[:, -1])):
        raise GenerationError("brownian_paths produced a non-finite value")
    return values


def brownian_paths(
    rng: RngSeed, n_paths: int, grid: TimeGrid, d: int = 1, x0=0.0, first_stream: int = 0
) -> np.ndarray:
    """Brownian paths from the point x0, shaped (paths, grid, d).

    x0 is one value for every coordinate or one per coordinate. Path i is x0
    plus the running sums of brownian_increments' row i (path_values).
    """
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if d < 1 or x0.size not in (1, d):
        raise ValueError(f"x0 needs 1 or d = {d} coordinates (d >= 1), got {x0.size}")
    dB = brownian_increments(rng, n_paths, grid, d, first_stream)
    return _finite(path_values(x0, dB))


def brownian_path_blocks(
    rng: RngSeed, n_paths: int, grid: TimeGrid, finish, first_stream: int = 0
) -> None:
    """brownian_paths(rng, n_paths, grid, first_stream=first_stream)[..., 0], block by block.

    finish(first_row, dB, values) gets one normal_blocks block from row
    first_row: dB, its increments scaled by sqrt(grid.deltas), and values,
    its paths bit for bit, 0 then the running sums of dB (accumulate_rows)
    in an array kept per pool thread; both are scratch that finish must not
    keep. The lowest block with a non-finite value raises GenerationError.
    """
    buffers = threading.local()

    def finish_block(a, dB):
        values = thread_rows(buffers, (len(dB), len(grid)))
        values[:, 0] = 0.0
        accumulate_rows(np.add, dB, values[:, 1:])
        finish(a, dB, _finite(values))

    normal_blocks(rng, n_paths, 0, np.sqrt(grid.deltas), finish_block, first_stream)


def brownian_sample(grid: TimeGrid, d: int, x0, rng: RngSeed) -> SampledPath:
    """The Brownian path of stream rng from x0: brownian_paths' one row, as a SampledPath."""
    return SampledPath.continuous(grid, brownian_paths(rng, 1, grid, d, x0))
