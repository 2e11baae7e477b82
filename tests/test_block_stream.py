"""The block stream's lazily ordered windows against a full sort.

``SnapshotBlockStream`` orders only the nearest blocks (a partial
partition, doubled on demand).  Whatever the window, the emitted
sequence must be the full ``(MINDIST, block id)`` sort of every block —
on lattice rects, where MINDISTs tie by the dozen, in any physical
layout, from any resume cursor.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect, mindist_point_rect
from repro.index import IndexSnapshot
from repro.knn.merge import QueryMerge
from repro.knn.distance_browsing import SnapshotBlockStream

_cell = st.integers(0, 11)


@st.composite
def _snapshots(draw):
    """Unit and 2x1 lattice rects (many equal MINDISTs), maybe relaid."""
    n = draw(st.integers(0, 150))
    cells = draw(st.lists(st.tuples(_cell, _cell, st.booleans()), min_size=n, max_size=n))
    rects = np.array(
        [(x, y, x + 1 + wide, y + 1) for x, y, wide in cells], dtype=float
    ).reshape(-1, 4)
    counts = np.array(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    snapshot = IndexSnapshot.from_arrays(rects, counts)
    if n > 1 and draw(st.booleans()):
        order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
        snapshot = snapshot.with_layout(order, name="shuffled")
    return snapshot


_points = st.builds(Point, st.integers(-2, 14).map(float), st.integers(-2, 14).map(float))


def _full_sort(snapshot: IndexSnapshot, query: Point) -> list:
    """Every block by (scalar MINDIST, block id); the threshold is that MINDIST."""
    mindists = np.array(
        [mindist_point_rect(query, Rect(*row)) for row in snapshot.rects], dtype=float
    )
    return [
        (float(mindists[row]), int(snapshot.block_ids[row]), float(mindists[row]), int(row))
        for row in np.lexsort((snapshot.block_ids, mindists))
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_snapshots(), st.lists(_points, min_size=1, max_size=5), st.data())
def test_stream_emits_the_full_sort(snapshot, queries, data):
    for query in queries:
        expected = _full_sort(snapshot, query)
        n = len(expected)
        stream = SnapshotBlockStream(snapshot, query)
        assert stream.n_blocks == n
        # Pull the whole stream in uneven steps; the cursor is the state.
        emitted, cursor = [], 0
        while cursor < n:
            assert stream.bound(cursor) == expected[cursor][:3]
            pulled, cursor = stream.take(cursor, min_points=data.draw(st.integers(0, 12)))
            emitted += pulled
            if not pulled:  # min_points=0 pulls nothing: step one block
                emitted.append(stream.entry(cursor))
                cursor += 1
        assert emitted == expected
        assert all(entry[0] == entry[2] for entry in emitted)  # one MINDIST float
        assert stream.bound(n) is None
        assert stream.take(n, min_points=3) == ([], n)
        # A fresh stream resumes mid-sequence (a respawned worker does).
        if n:
            cursor = data.draw(st.integers(0, n - 1))
            fresh = SnapshotBlockStream(snapshot, query)
            pulled, end = fresh.take(cursor, min_points=4)
            assert pulled == expected[cursor:end] and end > cursor


def test_take_honours_both_stop_conditions():
    rects = np.array([(i, 0.0, i + 1.0, 1.0) for i in range(40)])
    snapshot = IndexSnapshot.from_arrays(rects, np.full(40, 2))
    stream = SnapshotBlockStream(snapshot, Point(0.5, 0.5))
    entries, cursor = stream.take(0, min_points=5)
    assert cursor == 3 and [e[1] for e in entries] == [0, 1, 2]
    # Drain strictly below a MINDIST, past the first window of 32.
    entries, cursor = stream.take(cursor, min_mindist=35.0)
    assert cursor == 36 and entries[-1][0] == 34.5
    with pytest.raises(IndexError):
        stream.entry(40)


def test_merge_stop_rule_counts_strictly_below():
    """``k`` rows *at* the next threshold do not stop the scan; below it do."""
    for dists, stops in ((np.array([1.0, 2.0, 2.0]), False), (np.array([1.0, 1.5, 2.5]), True)):
        merge = QueryMerge(2)
        rows = np.arange(3)
        merge.add_stream(0, [(0.0, 0, 0.0, rows, dists)], 1, (2.0, 1, 2.0))
        needs = merge.advance()
        assert (needs is None) is stops
        if not stops:
            assert needs == {0: (1, 2, -np.inf)}


def test_exhaustive_scan_stays_linear():
    """A stop test per admitted block costs one k-th-distance update, not a recount."""
    n = 3000
    merge = QueryMerge(3)
    # Every row lies beyond every block's threshold: the rule never fires.
    entries = [
        (float(i), i, float(i), np.array([i]), np.array([float(n + i)]))
        for i in range(n)
    ]
    merge.add_stream(0, entries, n, None)
    assert merge.advance() is None
    rows, scanned, __ = merge.result()
    assert scanned == n and rows.tolist() == [0, 1, 2]
