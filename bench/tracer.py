"""Outside-in tracing of skorokhod_kit's layers.

The library carries no instrumentation of its own, so the tracer replaces the
public functions and methods of each layer module with thin wrappers, from the
benchmark's side, and puts the originals back when it is closed. A wrapper
records a span only when the call crosses a layer boundary: a call into layer
L made while the innermost open span of the same thread is already in L runs
unrecorded. Wrapping intra-layer helpers (slacks, slack_matrix, ...) would
multiply the span count and distort the very costs being measured.

Spans carry (id, name, layer, start, end, parent, thread, extra) and stay in
memory until the run ends. Chunk functions handed to ``map_chunks`` run on
worker threads; their spans get the enclosing ``map_chunks`` span as parent.

Two kinds of self time come out of a span list:

* ``self_times``: a span's duration minus the union of its children's
  intervals, in thread-seconds. Summed per layer it is the layer's busy time.
* ``wall_shares``: wall-clock time split, at every instant, equally among the
  innermost running spans of all threads (a span waiting on children that run
  on other threads is not innermost). Summed over layers it equals the time
  covered by root spans, so layer shares add up to the traced wall time.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import defaultdict, namedtuple

LAYERS = (
    "randomness",
    "domains",
    "reflect1d",
    "itocalc",
    "reflectnd",
    "rsde",
    "stats",
    "pathio",
    "experiments",
)

Span = namedtuple("Span", "id name layer start end parent thread extra")

# Public helpers that the library calls mostly from inside their own layer,
# once or twice per projection; their rare outside calls are left to the
# caller's self time.
INTRA_LAYER = {"domains.ConvexDomain.slacks", "domains.ConvexDomain.slack_matrix"}


def _public_callables(module):
    """(owner, attribute, layer-qualified name) for each public entry point."""
    entries = []
    for attr, value in vars(module).items():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            entries.append((module, attr, attr))
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for meth, raw in vars(value).items():
                if meth.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    entries.append((value, meth, f"{attr}.{meth}"))
    return entries


class Tracer:
    """Records spans at layer boundaries of an imported skorokhod_kit.

    ``counters`` maps a layer-qualified name ("domains.ConvexDomain.project")
    to ``fn(args, kwargs, result, error) -> extra``, called after each
    recorded call; the value it returns is kept on the span for the metric
    code to read. ``error`` is the exception the call raised, else None.
    """

    def __init__(self, package, counters=None):
        self.package = package
        self.counters = dict(counters or {})
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    # Each thread keeps a stack of (span id, layer, thread id) frames for its
    # open spans, on top of a sentinel frame (0, None, thread id).

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [(0, None, threading.get_ident())]
            return self._local.stack

    def _wrap(self, fn, name: str, layer: str, counter=None):
        spans, ids, clock, local = self.spans, self._ids, time.perf_counter, self._local
        stack_of = self._stack

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = stack_of()
            parent = stack[-1]
            if parent[1] == layer:
                return fn(*args, **kwargs)
            sid = next(ids)
            stack.append((sid, layer, parent[2]))
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                t1 = clock()
                stack.pop()
                extra = counter(args, kwargs, result, error) if counter is not None else None
                spans.append((sid, name, layer, t0, t1, parent[0], parent[2], extra))

        traced.__wrapped__ = fn
        return traced

    def _wrap_map_chunks(self, map_chunks, worker_count):
        """map_chunks whose chunk calls become child spans, on any thread."""
        spans, ids, clock, stack_of = self.spans, self._ids, time.perf_counter, self._stack

        def traced_map_chunks(fn, n_items, *args, **kwargs):
            stack = stack_of()
            parent = stack[-1]
            sid = next(ids)

            def chunk(start, stop):
                own = stack_of()
                tid = own[-1][2]
                cid = next(ids)
                own.append((cid, "experiments", tid))
                t0 = clock()
                try:
                    return fn(start, stop)
                finally:
                    t1 = clock()
                    own.pop()
                    spans.append((cid, "chunk", "experiments", t0, t1, sid, tid, None))

            stack.append((sid, "experiments", parent[2]))
            workers = worker_count()
            t0 = clock()
            try:
                return map_chunks(chunk, n_items, *args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, "map_chunks", "experiments", t0, t1, parent[0], parent[2],
                              {"workers": workers}))

        traced_map_chunks.__wrapped__ = map_chunks
        return traced_map_chunks

    # -- installing --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every public function and method of the layer modules."""
        import importlib

        modules = {
            layer: importlib.import_module(f"{self.package}.{layer}") for layer in LAYERS
        }
        experiments = modules["experiments"]
        originals: dict[int, object] = {}  # id(original function) -> wrapper
        for layer, module in modules.items():
            for owner, attr, qual in _public_callables(module):
                raw = vars(owner)[attr]
                name = f"{layer}.{qual}"
                if name in INTRA_LAYER:
                    continue
                if layer == "experiments" and attr == "map_chunks":
                    wrapped = self._wrap_map_chunks(raw, experiments.worker_count)
                elif isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(
                        self._wrap(raw.__func__, name, layer, self.counters.get(name))
                    )
                else:
                    wrapped = self._wrap(raw, name, layer, self.counters.get(name))
                self._patch(owner, attr, wrapped)
                if inspect.isfunction(raw):
                    originals[id(raw)] = wrapped
        # names imported into other modules ("from .randomness import ...")
        package = importlib.import_module(self.package)
        for module in [package, *self._submodules(package)]:
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and vars(module)[attr] is not wrapped:
                    self._patch(module, attr, wrapped)
        return self

    @staticmethod
    def _submodules(package):
        import sys

        prefix = package.__name__ + "."
        return [m for n, m in list(sys.modules.items()) if n.startswith(prefix) and m]

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def close(self) -> None:
        """Put back every original function and method."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    def take(self) -> list[Span]:
        """The spans recorded so far, oldest first by start time; clears them."""
        taken = sorted((Span(*s) for s in self.spans), key=lambda s: s.start)
        self.spans.clear()
        return taken


# -- self-time arithmetic ----------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        kids = children.get(s.id)
        out[s.id] = (s.end - s.start) - (union_length(kids) if kids else 0.0)
    return out


def wall_shares(spans) -> dict[int, float]:
    """Span id -> wall time during which it was an innermost running span.

    When k spans are innermost at once (on different threads), each is
    credited 1/k of that time, so the shares sum to the union of the roots.
    """
    # at equal times, ends come before starts, and a child (larger id) ends
    # before and starts after its parent, so each thread's spans nest
    events = sorted(
        [((s.start, 1, s.id), s) for s in spans] + [((s.end, 0, -s.id), s) for s in spans],
        key=lambda e: e[0],
    )
    thread_of = {s.id: s.thread for s in spans}
    stacks: dict[int, list] = {}  # thread -> its open spans, innermost last
    waiting_on: dict[int, int] = defaultdict(int)  # span id -> open children elsewhere
    share = dict.fromkeys(thread_of, 0.0)
    last = None
    for (t, starting, _), s in events:
        if last is not None and t > last:
            leaves = [top for top in (st[-1] for st in stacks.values()) if not waiting_on[top]]
            for sid in leaves:
                share[sid] += (t - last) / len(leaves)
        last = t
        cross = thread_of.get(s.parent, s.thread) != s.thread
        if starting:
            stacks.setdefault(s.thread, []).append(s.id)
            waiting_on[s.parent] += cross
        else:
            stack = stacks[s.thread]
            stack.pop()
            if not stack:
                del stacks[s.thread]
            waiting_on[s.parent] -= cross
    return share
