"""Differential oracle for the one production distance browser.

Every k-NN select executes through ``execute_incremental_knn_batch``
(block stream + k-bounded merge).  This suite drives it through the
engine — and directly, over the same snapshot in either physical
layout — on adversarial inputs — lattice coordinates, so duplicate points,
ties at the k-th distance, rows exactly at a block's MINDIST, points and
queries on block edges; ``k >= n``; empty and degenerate regions;
predicates nothing passes; the empty table — over the full matrix

    {plain, predicate, region, predicate+region, region-pruned}
    x {execute, execute_batch} x {canonical, Hilbert snapshot}

and asserts, per query, that ``row_ids`` is the brute-force answer under
the (distance, scan order) tie rule and that ``blocks_scanned`` is what
the heap browser the engine used to run (``tests/heap_oracle.py``)
scans.  The two oracles share no code with the stream or the merge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    KnnSelectQuery,
    SpatialEngine,
    SpatialTable,
    StatisticsManager,
    column,
)
from repro.engine.physical import (
    FilterThenKnnOperator,
    IncrementalKnnOperator,
    RegionPrunedKnnOperator,
    execute_incremental_knn_batch,
)
from repro.geometry import Point, Rect, mindist_point_rect
from repro.geometry.hilbert import hilbert_order
from repro.index import IndexSnapshot
from tests.heap_oracle import corner_tie_table, heap_knn_select, qualifies

#: cell -> (has predicate, has region, pinned operator)
CELLS = {
    "plain": (False, False, IncrementalKnnOperator.name),
    "predicate": (True, False, IncrementalKnnOperator.name),
    "region": (False, True, IncrementalKnnOperator.name),
    "predicate+region": (True, True, IncrementalKnnOperator.name),
    "region-pruned": (True, True, RegionPrunedKnnOperator.name),
}

# Small integers: squares and their sums are exact in binary floating
# point, so equal distances are *exactly* equal.  Query coordinates are
# biased to the universe's center line, where block MINDISTs tie.
_coord = st.integers(0, 8).map(float)
_query_coord = st.just(4.0) | st.integers(-2, 10).map(float)


@st.composite
def _workloads(draw, with_predicate: bool, with_region: bool):
    pts = draw(st.lists(st.tuples(_coord, _coord), min_size=0, max_size=20))
    if pts and draw(st.booleans()):
        # Mirror through the center and pin the universe to [0, 8]^2: the
        # root split lands on x = y = 4 (every point with a coordinate of
        # 4 is on a block edge) and mirrored blocks tie on MINDIST from
        # the center, holding rows at exactly equal distances.
        pts += [(8.0 - x, 8.0 - y) for x, y in pts] + [(0.0, 0.0), (8.0, 8.0)]
    n = len(pts)
    tags = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    capacity = draw(st.sampled_from([1, 2, 4, 8]))
    table = SpatialTable(
        "t",
        np.array(pts, dtype=float).reshape(-1, 2),
        {"tag": np.array(tags, dtype=np.int64)},
        capacity=capacity,
    )
    queries = []
    for __ in range(draw(st.integers(1, 4))):
        predicate = region = None
        if with_predicate:
            # Threshold 0 qualifies no row at all; 4 qualifies every row.
            predicate = column("tag") < draw(st.integers(0, 4))
        if with_region:
            x0, x1 = sorted((draw(_query_coord), draw(_query_coord)))
            y0, y1 = sorted((draw(_query_coord), draw(_query_coord)))
            region = Rect(x0, y0, x1, y1)  # may be a segment, a point, or miss
        queries.append(
            KnnSelectQuery(
                "t",
                Point(draw(_query_coord), draw(_query_coord)),
                k=draw(st.integers(1, n + 3)),
                predicate=predicate,
                region=region,
            )
        )
    return table, queries


def brute_force(table: SpatialTable, query: KnnSelectQuery) -> np.ndarray:
    """The ``k`` nearest qualifying rows under the (distance, scan order) rule.

    Scan order is rows within a block, blocks by (MINDIST, block id);
    every row of the table is considered — no browsing, no stopping.
    """
    snapshot = IndexSnapshot.from_index(table.index)
    mindists = np.array(
        [mindist_point_rect(query.query, Rect(*row)) for row in snapshot.rects], dtype=float
    )
    scan = [
        row
        for i in np.lexsort((snapshot.block_ids, mindists))
        for row in table.block_row_ids(int(snapshot.block_ids[i]))
        if qualifies(table, query, int(row))
    ]
    rows = np.array(scan, dtype=np.int64)
    dists = np.hypot(
        table.points[rows, 0] - query.query.x, table.points[rows, 1] - query.query.y
    )
    return rows[np.argsort(dists, kind="stable")[: query.k]]


@pytest.mark.parametrize("layout", ["canonical", "hilbert"])
@pytest.mark.parametrize("entry", ["execute", "execute_batch"])
@pytest.mark.parametrize("cell", list(CELLS))
def test_browser_matches_oracles(cell, entry, layout):
    with_predicate, with_region, operator = CELLS[cell]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_workloads(with_predicate, with_region))
    def check(workload):
        table, queries = workload
        stats = StatisticsManager(max_k=8, pinned_operators={"select": operator})
        engine = SpatialEngine(stats)
        engine.register(table)
        if entry == "execute":
            answers = [engine.execute(query) for query in queries]
        else:
            answers = engine.execute_batch(queries)
        for query, (result, __) in zip(queries, answers):
            if table.n_rows == 0:
                # Nothing to browse: the planner's trivial scan answers.
                assert result.operator == FilterThenKnnOperator.name
                assert result.blocks_scanned == 0 and result.row_ids.size == 0
                continue
            assert result.operator == operator
            np.testing.assert_array_equal(result.row_ids, brute_force(table, query))
            __, scanned = heap_knn_select(
                table, query, prune=operator == RegionPrunedKnnOperator.name
            )
            assert result.blocks_scanned == scanned
        if table.n_rows and operator == IncrementalKnnOperator.name:
            # The engine browses the table's own (canonical) snapshot; the
            # same blocks in ``layout`` row order must give the same answers.
            snapshot = stats.snapshot("t")
            if layout == "hilbert" and snapshot.n_blocks > 1:
                snapshot = snapshot.with_layout(
                    hilbert_order(snapshot.centers, snapshot.bounds)
                )
            assert snapshot.layout == layout or snapshot.n_blocks == 1
            relaid = execute_incremental_knn_batch(table, queries, snapshot)
            for (result, __), other in zip(answers, relaid):
                assert other.blocks_scanned == result.blocks_scanned
                np.testing.assert_array_equal(other.row_ids, result.row_ids)

    check()


@pytest.mark.parametrize("entry", ["execute", "execute_batch"])
def test_row_on_an_unscanned_blocks_corner_is_not_strictly_below_it(entry):
    table, query = corner_tie_table()
    engine = SpatialEngine(
        StatisticsManager(max_k=8, pinned_operators={"select": IncrementalKnnOperator.name})
    )
    engine.register(table)
    result, __ = engine.execute(query) if entry == "execute" else engine.execute_batch([query])[0]
    rows, scanned = heap_knn_select(table, query)
    assert result.row_ids.tolist() == rows.tolist() == brute_force(table, query).tolist() == [2, 1, 0]
    assert result.blocks_scanned == scanned == table.index.num_blocks == 4


@pytest.mark.parametrize(
    "operator", [IncrementalKnnOperator, RegionPrunedKnnOperator]
)
def test_empty_table_browses_nothing(operator):
    table = SpatialTable("t", np.empty((0, 2)))
    query = KnnSelectQuery("t", Point(1.0, 2.0), k=3, region=Rect(0, 0, 4, 4))
    result = operator(table, query).execute()
    assert result.operator == operator.name
    assert result.blocks_scanned == 0 and result.row_ids.size == 0
