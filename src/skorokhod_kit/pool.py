"""The worker pool shared by the experiments and the projected-Euler draws.

SKOROKHOD_KIT_THREADS caps the worker threads (default: at most 2). Work is
cut into fixed ranges whose results come back in range order, so no result
depends on the worker count.

Workers overlap only in code that releases the GIL. numpy's
``ufunc.accumulate`` (``cumsum``, ``np.minimum.accumulate``) releases it only
for a 1-d call or a call over more than 500 lines, and never when ``out``
overlaps the input. A chunk of about 1 MiB holds at most a few dozen long
rows, so its running sums and running minima go through accumulate_rows:
one 1-d, out-of-place call per row.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import UsageError


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


def map_chunks(fn, n_items: int, chunk: int) -> list:
    """fn(start, stop) over fixed-size ranges; results in range order."""
    ranges = [(s, min(s + chunk, n_items)) for s in range(0, n_items, chunk)]
    workers = worker_count()
    if workers == 1 or len(ranges) == 1:
        return [fn(s, e) for s, e in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda se: fn(*se), ranges))


def accumulate_rows(ufunc, src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ufunc.accumulate of src along its last axis into out, one 1-d call per row.

    Equal bit for bit to ``ufunc.accumulate(src, axis=-1, out=out)``, but each
    call runs without the GIL, so pool workers overlap. src and out must have
    one shape and share no memory (in place, numpy keeps the GIL).
    """
    if out.shape != src.shape:
        raise ValueError(f"accumulate_rows needs out shaped {src.shape}, got {out.shape}")
    if np.may_share_memory(src, out):
        raise ValueError("accumulate_rows needs an out that shares no memory with src")
    for row in np.ndindex(src.shape[:-1]):
        ufunc.accumulate(src[row], out=out[row])
    return out
