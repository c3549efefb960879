"""The worker pool shared by the experiments and the projected-Euler draws.

SKOROKHOD_KIT_THREADS caps the worker threads (default: at most 2). Work is
cut into fixed ranges whose results come back in range order, so no result
depends on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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
