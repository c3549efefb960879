"""The worker pool shared by the experiments and the pipelined normal draw.

SKOROKHOD_KIT_THREADS caps the worker threads (default: at most 2), the
calling thread counting as one. fill_then_finish runs a two-stage job
block by block: the caller fills the blocks in order (the stage that holds
the GIL), and helper threads finish them (the stage that does not), the
caller too when no buffer is free. It is the one fan-out: the pipelined
Brownian draw (randomness.normal_blocks) is built on it, and
experiments.map_chunks runs ranges on it with nothing to fill. No result
depends on the worker count, nor does the error raised. thread_rows keeps
one scratch array per pool thread, and accumulate_rows holds the one rule
by which running sums and minima run.
"""

from __future__ import annotations

import os
import queue
import threading

import numpy as np

from .errors import UsageError

# Scratch buffers fill_then_finish keeps per worker: one being finished, one
# filled and waiting.
_BUFFERS_PER_WORKER = 2
# accumulate_rows runs rows of more values one 1-d call each: 2,048 is the
# longest row a 1 MiB block holds 64 of. On draw plus sum at 2 workers, one
# n-d call won at 1,000 and 2,000 steps, one call per row from 3,000.
_LONG_ROW = 2048


def worker_count() -> int:
    env = os.environ.get("SKOROKHOD_KIT_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise UsageError(
                f"SKOROKHOD_KIT_THREADS must be an integer worker count of at least 1, got {env!r}"
            )
        return workers
    return min(2, os.cpu_count() or 1)


def fill_then_finish(fill, finish, n_blocks: int, shape) -> None:
    """Blocks 0 .. n_blocks - 1: fill(i, buf) in order on this thread, then finish(i, block).

    fill writes block i into ``buf``, a float64 scratch of ``shape``, and
    returns the part it wrote; finish(i, block) completes it. Finishes run
    in any order, on helper threads (worker_count() - 1 of them) or on this
    thread, which finishes a filled block itself whenever no buffer is free,
    so each must write where no other does. With one worker, each block is
    finished right after it is filled.

    Every helper is joined before this returns or raises. When a fill or a
    finish fails, the error raised is that of the lowest failing block,
    whatever the worker count: filling stops, the filled blocks below the
    lowest failure so far are still finished, and the blocks above it are
    skipped. Blocks are filled in order, so every block below a failing one
    is filled.
    """
    helpers = max(min(worker_count(), n_blocks) - 1, 0)
    free, filled = queue.SimpleQueue(), queue.SimpleQueue()
    # one buffer alone makes the caller finish each block before the next fill
    for _ in range(min(n_blocks, _BUFFERS_PER_WORKER * (helpers + 1) if helpers else 1)):
        free.put(np.empty(shape))
    lock = threading.Lock()
    fault = [n_blocks, None]  # the lowest failing block so far and its error

    def attempt(stage, i, *args):
        """stage(i, *args) unless block i is at or above a failure; a failure is kept."""
        if i >= fault[0]:
            return None
        try:
            return stage(i, *args)
        except BaseException as err:  # raised again on the calling thread
            with lock:
                if i < fault[0]:
                    fault[:] = [i, err]
            return None

    def helper():
        while (item := filled.get()) is not None:
            i, buf, block = item
            try:
                attempt(finish, i, block)
            finally:
                free.put(buf)

    def finish_filled():
        """Finish a filled block on this thread; its buffer, or None if no block waits."""
        try:
            i, buf, block = filled.get_nowait()
        except queue.Empty:
            return None
        attempt(finish, i, block)
        return buf

    threads = [threading.Thread(target=helper) for _ in range(helpers)]
    for thread in threads:
        thread.start()
    try:
        for i in range(n_blocks):
            try:
                buf = free.get_nowait()
            except queue.Empty:
                buf = finish_filled()
                if buf is None:  # every buffer is with a helper, which gives it back
                    buf = free.get()
            block = attempt(fill, i, buf)
            if fault[0] < n_blocks:
                break  # every block from here on would be skipped
            filled.put((i, buf, block))
        while finish_filled() is not None:
            pass  # the last filled blocks, finished beside the helpers
    finally:
        for _ in threads:
            filled.put(None)
        for thread in threads:
            thread.join()
    if fault[1] is not None:
        raise fault[1]


def thread_rows(buffers: threading.local, shape) -> np.ndarray:
    """A float64 array of this shape kept in ``buffers``, one per thread.

    The chunks or blocks a pool thread runs reuse it: freeing chunk-sized
    arrays lets glibc trim a worker's heap and fault the pages back in for
    the next chunk.
    """
    size = int(np.prod(shape))
    if getattr(buffers, "rows", np.empty(0)).size < size:
        buffers.rows = np.empty(size)
    return buffers.rows[:size].reshape(shape)


def accumulate_rows(ufunc, src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ufunc.accumulate of src along its last axis into out, bit for bit.

    numpy releases the GIL only for a 1-d call or one over more than 500
    lines, and never when out overlaps src, so src and out must have one
    shape and share no memory. Rows of more than _LONG_ROW values run one
    1-d call each, so pool workers overlap; shorter rows run one n-d call,
    which takes the GIL once.
    """
    if out.shape != src.shape:
        raise ValueError(f"accumulate_rows needs out shaped {src.shape}, got {out.shape}")
    if np.may_share_memory(src, out):
        raise ValueError("accumulate_rows needs an out that shares no memory with src")
    if src.shape[-1] <= _LONG_ROW:
        return ufunc.accumulate(src, axis=-1, out=out)
    for row in np.ndindex(src.shape[:-1]):
        ufunc.accumulate(src[row], out=out[row])
    return out
