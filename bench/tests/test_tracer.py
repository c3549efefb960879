"""Self-time arithmetic of the benchmark's tracer.

Run with ``python3 -m pytest bench/tests``.
"""

import numpy as np
import pytest

from tracer import Span, Tracer, self_times, union_length, wall_shares


def span(sid, start, end, parent=0, thread=1, name="x", layer="L"):
    return Span(sid, name, layer, start, end, parent, thread, None)


def test_union_length_merges_overlaps_and_keeps_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 6)]) == 6.0
    assert union_length([(5, 6), (0, 2), (1, 3)]) == 4.0


def test_nested_spans_on_one_thread():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 2.0, 3.0, parent=2),
        span(4, 5.0, 6.0, parent=1),
    ]
    busy = self_times(spans)
    assert busy == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    # one thread: wall shares are the same self times
    assert wall_shares(spans) == pytest.approx(busy)


def test_cross_thread_chunk_spans():
    # root and map_chunks on thread 1; two chunks on worker threads 2 and 3
    spans = [
        span(1, 0.0, 12.0),
        span(2, 0.0, 10.0, parent=1, name="map_chunks"),
        span(3, 1.0, 6.0, parent=2, thread=2, name="chunk"),
        span(4, 2.0, 9.0, parent=2, thread=3, name="chunk"),
    ]
    busy = self_times(spans)
    # map_chunks minus the union [1, 9] of its chunks, not their sum
    assert busy == {1: 2.0, 2: 2.0, 3: 5.0, 4: 7.0}
    assert sum(busy.values()) == 16.0  # thread-seconds exceed the 12 s of wall
    share = wall_shares(spans)
    # [1,2] chunk 3 alone, [2,6] both chunks, [6,9] chunk 4 alone; map_chunks
    # is innermost only while no chunk runs, the root only after it returns
    assert share == pytest.approx({1: 2.0, 2: 2.0, 3: 3.0, 4: 5.0})
    assert sum(share.values()) == pytest.approx(12.0)


def test_child_ending_with_its_parent_keeps_nesting():
    spans = [span(1, 0.0, 2.0), span(2, 1.0, 2.0, parent=1), span(3, 2.0, 3.0)]
    assert wall_shares(spans) == pytest.approx({1: 1.0, 2: 1.0, 3: 1.0})


def test_tracer_records_only_layer_crossings(monkeypatch):
    from skorokhod_kit import domains, experiments, randomness

    monkeypatch.setenv("SKOROKHOD_KIT_THREADS", "2")
    disc = domains.unit_disc()

    def chunk(start, stop):
        return randomness.normal_matrix(randomness.RngSeed(1), stop - start, 8, start)

    with Tracer("skorokhod_kit") as tracer:
        # distance_to_boundary calls project inside the domains layer
        disc.distance_to_boundary(np.array([2.0, 0.0]))
        parts = experiments.map_chunks(chunk, 4 * experiments.CHUNK)
    spans = tracer.take()
    assert not hasattr(domains.ConvexDomain.project, "__wrapped__")  # originals restored
    names = [s.name for s in spans]
    assert names.count("domains.ConvexDomain.distance_to_boundary") == 1
    assert "domains.ConvexDomain.project" not in names
    by_id = {s.id: s for s in spans}
    pool = next(s for s in spans if s.name == "map_chunks")
    chunks = [s for s in spans if s.name == "chunk"]
    assert len(chunks) == 4 and all(c.parent == pool.id for c in chunks)
    draws = [s for s in spans if s.name == "randomness.normal_matrix"]
    assert len(draws) == 4
    assert all(by_id[d.parent].name == "chunk" and by_id[d.parent].thread == d.thread
               for d in draws)
    assert np.concatenate(parts).shape == (4 * experiments.CHUNK, 8)
    roots = [s for s in spans if s.parent == 0]
    covered = union_length([(s.start, s.end) for s in roots])
    assert sum(wall_shares(spans).values()) == pytest.approx(covered)
