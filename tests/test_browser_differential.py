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
    x {lattice, scaled, window ties, k >= n}

and asserts, per query, that ``row_ids`` is the brute-force answer under
the (distance, scan order) tie rule and that ``blocks_scanned`` is what
the heap browser the engine used to run (``tests/heap_oracle.py``)
scans.  The two oracles share no code with the array browse.

The last three cases aim at the browse's certificate — its window is
picked on ``dx*dx + dy*dy`` and trusted only below a bound derived from
that key: lattices scaled by ``2**520`` (every square overflows) or
``2**-520``; full lattices of single-point blocks, whose rings of equal
MINDIST straddle the window's cut; and ``k >= n``, where the window
doubles until it holds every block.  The underflowing scales and a
rounded key tied across the cut are driven directly below, where the
quadtree's universe can be given.
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
from repro.index import IndexSnapshot, Quadtree
from repro.knn.browse import BlockPointsView, browse
from repro.knn.distance_browsing import SnapshotBlockStream
from tests.heap_oracle import IndexTable, corner_tie_table, heap_knn_select, qualifies

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


#: case -> hypothesis examples per matrix cell
CASES = {"lattice": 30, "scaled": 12, "window-ties": 12, "k>=n": 12}


@st.composite
def _workloads(draw, with_predicate: bool, with_region: bool, case: str = "lattice"):
    if case == "window-ties":
        # Every lattice point its own block (or two): rings of blocks at
        # one MINDIST from the center, wider than the first window.
        pts = [(float(x), float(y)) for x in range(9) for y in range(9)]
        capacity = draw(st.sampled_from([1, 2]))
    else:
        pts = draw(st.lists(st.tuples(_coord, _coord), min_size=0, max_size=20))
        if pts and draw(st.booleans()):
            # Mirror through the center and pin the universe to [0, 8]^2: the
            # root split lands on x = y = 4 (every point with a coordinate of
            # 4 is on a block edge) and mirrored blocks tie on MINDIST from
            # the center, holding rows at exactly equal distances.
            pts += [(8.0 - x, 8.0 - y) for x, y in pts] + [(0.0, 0.0), (8.0, 8.0)]
        capacity = draw(st.sampled_from([1, 2, 4, 8]))
    # Powers of two keep every tie exact; 2**520 overflows every square.
    scale = draw(st.sampled_from([2.0**520, 2.0**-520])) if case == "scaled" else 1.0
    n = len(pts)
    tags = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    table = SpatialTable(
        "t",
        np.array(pts, dtype=float).reshape(-1, 2) * scale,
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
            # May be a segment, a point, or miss.
            region = Rect(x0 * scale, y0 * scale, x1 * scale, y1 * scale)
        queries.append(
            KnnSelectQuery(
                "t",
                Point(draw(_query_coord) * scale, draw(_query_coord) * scale),
                k=draw(st.integers(max(n, 1) if case == "k>=n" else 1, n + 3)),
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
    _check_cell(cell, entry, layout, "lattice")


@pytest.mark.parametrize("case", [case for case in CASES if case != "lattice"])
@pytest.mark.parametrize("layout", ["canonical", "hilbert"])
@pytest.mark.parametrize("entry", ["execute", "execute_batch"])
@pytest.mark.parametrize("cell", list(CELLS))
def test_browser_matches_oracles_where_the_window_is_tested(cell, entry, layout, case):
    _check_cell(cell, entry, layout, case)


def _check_cell(cell: str, entry: str, layout: str, case: str) -> None:
    with_predicate, with_region, operator = CELLS[cell]

    @settings(max_examples=CASES[case], deadline=None, derandomize=True)
    @given(_workloads(with_predicate, with_region, case))
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

    # A scaled lattice overflows the snapshot's areas and the density
    # model's arithmetic on the way to the browse: quiet numpy about it.
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        check()


def _relaid(snapshot: IndexSnapshot, layout: str) -> IndexSnapshot:
    if layout == "hilbert" and snapshot.n_blocks > 1:
        return snapshot.with_layout(hilbert_order(snapshot.centers, snapshot.bounds))
    return snapshot


@pytest.mark.parametrize("layout", ["canonical", "hilbert"])
@pytest.mark.parametrize("scale", [2.0**520, 2.0**-520, 2.0**-540, 2.0**-1060])
def test_scaled_lattices_split_into_blocks_browse_like_the_oracles(scale, layout):
    """Lattices under a given universe, so tiny scales still split.

    At ``2**-540`` the squares round to a few subnormal steps and at
    ``2**-1060`` the coordinates are subnormal themselves: keys tie or
    invert where MINDISTs do not, and only a zero bound keeps the window
    honest until it holds every block.
    """
    rng = np.random.default_rng(int(np.log2(scale)) & 0xFFFF)
    lattice = np.array([(x, y) for x in range(9) for y in range(9)], dtype=float)
    points = lattice[rng.choice(81, size=40, replace=False)] * scale
    universe = Rect(0.0, 0.0, 8.0 * scale, 8.0 * scale)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        table = IndexTable(Quadtree(points, bounds=universe, capacity=2))
        snapshot = _relaid(IndexSnapshot.from_index(table.index), layout)
        assert snapshot.n_blocks > 8
        queries = [
            KnnSelectQuery("t", Point(x * scale, y * scale), k=int(k))
            for x, y, k in zip(
                rng.integers(-2, 11, 24), rng.integers(-2, 11, 24), rng.integers(1, 45, 24)
            )
        ]
        for query, result in zip(queries, execute_incremental_knn_batch(table, queries, snapshot)):
            __, scanned = heap_knn_select(table, query)
            assert result.blocks_scanned == scanned
            np.testing.assert_array_equal(result.row_ids, brute_force(table, query))


def _key_tie() -> tuple[float, float, float, float]:
    """``(a, b, md, far)``: ``hypot(a, b) = md < far``, yet ``a*a + b*b == far*far``."""
    rng = np.random.default_rng(7)
    for a, b in rng.uniform(1.0, 2.0, (10_000, 2)).tolist():
        md = float(np.hypot(a, b))
        far = float(np.nextafter(md, np.inf))
        if a * a + b * b == far * far:
            return a, b, md, far
    raise AssertionError("no rounded key tie found")  # pragma: no cover


def _scan_oracle(snapshot: IndexSnapshot, view, query: Point, k: int) -> int:
    """Blocks distance browsing scans, one block at a time from a full sort."""
    mindists = np.array([mindist_point_rect(query, Rect(*r)) for r in snapshot.rects])
    order = np.lexsort((snapshot.block_ids, mindists)).tolist()
    dists: list[float] = []
    for rank, row in enumerate(order):
        block = int(snapshot.block_ids[row])
        lo, hi = view.offsets[block], view.offsets[block + 1]
        dists += np.hypot(view.xs[lo:hi] - query.x, view.ys[lo:hi] - query.y).tolist()
        nxt = mindists[order[rank + 1]] if rank + 1 < len(order) else np.inf
        if sum(d < nxt for d in dists) >= k:
            return rank + 1
    return len(order)


@pytest.mark.parametrize("far_first", [False, True])
def test_a_key_tied_across_the_cut_does_not_lift_the_last_threshold(far_first):
    """The last certain rank's threshold is the bound, not the next window MINDIST.

    Block E's nearest corner is ``(a, b)`` from the origin and block W's
    is one ulp further, but their keys are equal, so the window may keep
    W and leave E out.  The row at ``(a, b)`` in the first block is then
    exactly at E's MINDIST: not strictly below the true next threshold,
    but below W's — a browse that thresholds the last certain rank at
    W's MINDIST stops a block early.
    """
    a, b, md, far = _key_tie()
    # The first block holds the origin and the row at distance md.
    rects = [(-1.0, -1.0, a, b)]
    points = [(a, b)]
    # Seven fillers nearer than md whose rows lie far out, so the first
    # window (k = 1 at one row per block: 9 blocks) cuts between E and W.
    for i in range(7):
        r = 0.5 + 0.1 * i
        rects.append((-r - 0.01, -10.0, -r, 10.0))
        points.append((-r - 0.005, 9.0))
    pair = [
        ((a, b, a + 1.0, b + 1.0), (a + 1.0, b + 1.0)),  # E
        ((far, -0.5, far + 1.0, 0.5), (far + 1.0, 0.5)),  # W
    ]
    for rect, point in pair[::-1] if far_first else pair:
        rects.append(rect)
        points.append(point)
    snapshot = IndexSnapshot.from_arrays(np.array(rects), np.ones(len(rects), dtype=np.int64))
    view = BlockPointsView(np.array(points), np.arange(len(points) + 1))
    (got,) = browse(snapshot, view, np.arange(len(points)), [(0.0, 0.0)], [1])
    assert len(got.mindists) == _scan_oracle(snapshot, view, Point(0.0, 0.0), 1) == 9
    # The ninth block scanned is E, wherever its row went.
    assert got.row_ids.tolist() == list(range(8)) + [9 if far_first else 8]
    assert got.dists[0] == md


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


def test_a_next_block_past_the_certain_ranks_goes_round_again():
    """A shard's bound is certified too, not just its stop.

    Twenty blocks tie at MINDIST 1 around the query's own block, so the
    first window keeps only some of them and no tied rank is certain.
    The stop (after the first block) is certain, but the next block is
    the tied one with the smallest id, which the window may have left
    out: the browse must go round again rather than report the window's.
    """
    rects = [(-0.5, -0.5, 0.5, 0.5)] + [
        (1.0, -0.5 - 0.01 * i, 2.0, 0.5 + 0.01 * i) for i in range(20)
    ]
    points = [(0.1, 0.0)] + [(r[2], r[3]) for r in rects[1:]]
    rng = np.random.default_rng(11)
    for __ in range(12):
        base = IndexSnapshot.from_arrays(np.array(rects), np.ones(21, dtype=np.int64))
        snapshot = base.with_layout(rng.permutation(21), name="shuffled")
        view = BlockPointsView(np.array(points), np.arange(22))
        (got,) = browse(snapshot, view, np.arange(21), [(0.0, 0.0)], [1], bounds=True)
        assert len(got.mindists) == 1
        assert got.bound == SnapshotBlockStream(snapshot, Point(0.0, 0.0)).bound(1) == (1.0, 1, 1.0)
