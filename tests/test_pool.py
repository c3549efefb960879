import threading
import time
import types

import numpy as np
import pytest

from skorokhod_kit import experiments, pool
from skorokhod_kit.pool import accumulate_rows, fill_then_finish

ACCUMULATIONS = [(np.add, np.cumsum), (np.minimum, np.minimum.accumulate)]


class SpyUfunc:
    """A ufunc whose accumulate records the shape of each call's input."""

    def __init__(self, ufunc):
        self.ufunc, self.calls = ufunc, []

    def accumulate(self, src, **kwargs):
        self.calls.append(src.shape)
        return self.ufunc.accumulate(src, **kwargs)


@pytest.mark.parametrize("ufunc, reference", ACCUMULATIONS)
@pytest.mark.parametrize(
    "shape",
    [(1, 100_001), (26, 5001), (26, 2049), (64, 2048), (64, 1000), (3, 2), (2, 3, 50), (7,)],
)
def test_accumulate_rows_equals_the_nd_accumulate(ufunc, reference, shape):
    src = np.random.default_rng(sum(shape)).standard_normal(shape)
    out = np.full(shape, np.nan)
    spy = SpyUfunc(ufunc)
    assert accumulate_rows(spy, src, out) is out
    assert out.tobytes() == reference(src, axis=-1).tobytes()
    # rows of more than 2,048 values run one 1-d call each, shorter ones one n-d call
    rows = int(np.prod(shape[:-1]))
    expected = [shape[-1:]] * rows if shape[-1] > 2048 else [shape]
    assert spy.calls == expected


@pytest.mark.parametrize("ufunc, reference", ACCUMULATIONS)
def test_accumulate_rows_over_chunks_with_a_short_last_chunk(ufunc, reference):
    # 60 rows of 5001 points in the pool's row chunks of 26: 26, 26 and 8
    src = np.random.default_rng(60).standard_normal((60, 5001))
    out = np.empty_like(src)
    for start in range(0, 60, 26):
        accumulate_rows(ufunc, src[start : start + 26], out[start : start + 26])
    assert out.tobytes() == reference(src, axis=-1).tobytes()


def test_accumulate_rows_rejects_overlap_and_a_misshapen_out():
    a = np.ones((4, 10))
    with pytest.raises(ValueError, match="shares no memory"):
        accumulate_rows(np.add, a, a)
    with pytest.raises(ValueError, match="shares no memory"):
        accumulate_rows(np.add, a[:, :-1], a[:, 1:])
    with pytest.raises(ValueError, match=r"out shaped \(4, 10\), got \(3, 10\)"):
        accumulate_rows(np.add, a, np.empty((3, 10)))


@pytest.fixture
def helper_threads(monkeypatch):
    """Every thread fill_then_finish starts, in start order."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    recorded = types.SimpleNamespace(Thread=Recorded, Lock=threading.Lock)
    monkeypatch.setattr(pool, "threading", recorded)
    return started


def numbered_blocks(n_blocks, width, log=None):
    """fill and finish writing block i's values i * width + 0 .. width - 1 into a result."""
    out = np.full(n_blocks * width, np.nan)

    def fill(i, buf):
        if log is not None:
            log.append(("fill", i, threading.get_ident()))
        buf[:] = np.arange(i * width, (i + 1) * width)
        return buf

    def finish(i, block):
        if log is not None:
            log.append(("finish", i, threading.get_ident()))
        out[i * width : (i + 1) * width] = block

    return out, fill, finish


@pytest.mark.parametrize("workers", ["1", "2", "3"])
@pytest.mark.parametrize("n_blocks", [1, 2, 9, 40])
def test_fill_then_finish_fills_in_order_on_the_caller_and_finishes_every_block_once(
    workers, n_blocks, monkeypatch, helper_threads, bounded
):
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
    log = []
    out, fill, finish = numbered_blocks(n_blocks, 5, log)

    def run():
        fill_then_finish(fill, finish, n_blocks, (5,))
        return threading.get_ident()

    caller = bounded(run)
    assert out.tolist() == list(range(n_blocks * 5))
    fills = [(i, who) for what, i, who in log if what == "fill"]
    assert fills == [(i, caller) for i in range(n_blocks)]
    assert sorted(i for what, i, _ in log if what == "finish") == list(range(n_blocks))
    assert len(helper_threads) == min(int(workers), n_blocks) - 1
    assert not any(t.is_alive() for t in helper_threads)


def test_fill_then_finish_with_one_worker_finishes_each_block_right_after_filling_it(
    monkeypatch, helper_threads, bounded
):
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", "1")
    log = []
    out, fill, finish = numbered_blocks(4, 3, log)
    bounded(lambda: fill_then_finish(fill, finish, 4, (3,)))
    assert [(what, i) for what, i, _ in log] == [
        (what, i) for i in range(4) for what in ("fill", "finish")
    ]
    assert helper_threads == []


def test_fill_then_finish_caller_finishes_blocks_when_no_buffer_is_free(
    monkeypatch, helper_threads, bounded
):
    # the helper holds its first block until the caller has finished one: a
    # caller that only waited for a free buffer would wait for ever
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", "2")
    caller_finished = threading.Event()
    out, fill, record = numbered_blocks(12, 4)
    caller, on_caller = [], []

    def finish(i, block):
        if threading.get_ident() == caller[0]:
            on_caller.append(i)
            caller_finished.set()
        elif not caller_finished.wait(timeout=20.0):
            raise TimeoutError("the caller finished no block")
        record(i, block)

    def run():
        caller.append(threading.get_ident())
        fill_then_finish(fill, finish, 12, (4,))

    bounded(run)
    assert out.tolist() == list(range(48))
    assert on_caller
    assert not any(t.is_alive() for t in helper_threads)


@pytest.mark.parametrize("stage", ["fill", "finish"])
@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_fill_then_finish_raises_the_first_error_and_joins_every_helper(
    stage, workers, monkeypatch, helper_threads, bounded
):
    # fill fails at block 7; finish at the first block a helper finishes (at
    # block 7 with one worker). Slow fills let the helpers take blocks.
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
    out, fill, finish = numbered_blocks(30, 5)
    caller, lock, failed = [], threading.Lock(), []

    def slow_fill(i, buf):
        time.sleep(0.002)
        if stage == "fill" and i == 7:
            raise ArithmeticError("fill of block 7")
        return fill(i, buf)

    def failing_finish(i, block):
        on_helper = threading.get_ident() != caller[0]
        with lock:
            fails = stage == "finish" and not failed and (on_helper or (workers == "1" and i == 7))
            if fails:
                failed.append(i)
        if fails:
            raise ArithmeticError(f"finish of block {i}")
        finish(i, block)

    def run():
        caller.append(threading.get_ident())
        fill_then_finish(slow_fill, failing_finish, 30, (5,))

    with pytest.raises(ArithmeticError, match=f"{stage} of block"):
        bounded(run)
    assert len(helper_threads) == int(workers) - 1
    assert not any(t.is_alive() for t in helper_threads)


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_fill_then_finish_raises_the_lowest_failing_block_and_finishes_the_blocks_below(
    workers, monkeypatch, helper_threads, bounded
):
    # blocks 5 and 9 fail. Slow fills let a helper take block 5, whose finish
    # waits until block 9 has failed (or a short while, when one thread holds
    # both), so on more than one worker the later block fails first in time;
    # block 5's error is raised all the same
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
    out, fill, finish = numbered_blocks(30, 5)
    later_failed = threading.Event()

    def slow_fill(i, buf):
        time.sleep(0.002)
        return fill(i, buf)

    def failing_finish(i, block):
        if i == 5:
            later_failed.wait(timeout=0.2)
        if i in (5, 9):
            if i == 9:
                later_failed.set()
            raise ArithmeticError(f"finish of block {i}")
        finish(i, block)

    with pytest.raises(ArithmeticError, match="^finish of block 5$"):
        bounded(lambda: fill_then_finish(slow_fill, failing_finish, 30, (5,)))
    assert out[:25].tolist() == list(range(25))  # every block below block 5
    assert len(helper_threads) == int(workers) - 1
    assert not any(t.is_alive() for t in helper_threads)


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_fill_then_finish_prefers_a_lower_failing_finish_to_a_later_failing_fill(
    workers, monkeypatch, helper_threads, bounded
):
    # the fill of block 6 fails at once; the finish of block 2 fails later
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
    out, fill, finish = numbered_blocks(12, 3)

    def failing_fill(i, buf):
        if i == 6:
            raise ArithmeticError("fill of block 6")
        return fill(i, buf)

    def failing_finish(i, block):
        if i == 2:
            time.sleep(0.05)
            raise ArithmeticError("finish of block 2")
        finish(i, block)

    with pytest.raises(ArithmeticError, match="^finish of block 2$"):
        bounded(lambda: fill_then_finish(failing_fill, failing_finish, 12, (3,)))
    assert out[:6].tolist() == list(range(6))
    assert not any(t.is_alive() for t in helper_threads)


# experiments.map_chunks runs its ranges as fill_then_finish blocks with an empty fill
@pytest.mark.parametrize("workers", ["1", "2", "3"])
@pytest.mark.parametrize("n_items", [0, 1, 7, 103])
def test_map_chunks_returns_results_in_range_order(workers, n_items, monkeypatch, bounded):
    # the first ranges sleep longest, so on several workers later ranges end first
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)

    def fn(start, stop):
        time.sleep(0.002 * max(0, 4 - start // 7))
        return (start, stop)

    ranges = bounded(lambda: experiments.map_chunks(fn, n_items, 7))
    assert ranges == [(s, min(s + 7, n_items)) for s in range(0, n_items, 7)]


def test_map_chunks_runs_ranges_on_the_calling_thread(monkeypatch, helper_threads, bounded):
    # the helper holds its first range until the caller has run one
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", "2")
    caller, on_caller, caller_ran = [], [], threading.Event()

    def fn(start, stop):
        if threading.get_ident() == caller[0]:
            on_caller.append(start)
            caller_ran.set()
        elif not caller_ran.wait(timeout=20.0):
            raise TimeoutError("the caller ran no range")
        return start

    def run():
        caller.append(threading.get_ident())
        return experiments.map_chunks(fn, 40, 4)

    assert bounded(run) == list(range(0, 40, 4))
    assert on_caller
    assert len(helper_threads) == 1
    assert not any(t.is_alive() for t in helper_threads)


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_map_chunks_raises_the_lowest_failing_range_after_joining_helpers(
    workers, monkeypatch, helper_threads, bounded
):
    # ranges 3 and 8 fail; range 3 waits until range 8 has failed (or a short
    # while, when one thread runs both), so on several workers the later range
    # fails first in time
    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", workers)
    later_failed = threading.Event()

    def fn(start, stop):
        i = start // 5
        if i == 3:
            later_failed.wait(timeout=0.2)
        if i in (3, 8):
            if i == 8:
                later_failed.set()
            raise ArithmeticError(f"range {i}")
        time.sleep(0.002)
        return i

    with pytest.raises(ArithmeticError, match="^range 3$"):
        bounded(lambda: experiments.map_chunks(fn, 100, 5))
    assert len(helper_threads) == int(workers) - 1
    assert not any(t.is_alive() for t in helper_threads)


def test_map_chunks_of_no_items_calls_nothing(helper_threads):
    assert experiments.map_chunks(lambda start, stop: pytest.fail("called"), 0, 5) == []
    assert helper_threads == []
