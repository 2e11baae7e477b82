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

The browse keys runs of ``isqrt(n)`` consecutive blocks before it keys
their blocks, and reads each stop from the query's ``k``-th distance.
The last section holds each query's whole ``Browsed`` (blocks, sizes,
rows, distance bits, gap) to a block-at-a-time oracle where that can go
wrong: a run bound below the window's key, a padded last run or one of
a single block, overflowing keys, Hilbert and strided layouts,
overlapping and zero-area R-tree leaves, masks that reject every row,
``k >= n`` and a full slab of queries over a tiny index — each with a
gather that loses a region's blocks as well (a shard that did not
answer: the oracle stops at the first lost block it reaches).  It also
pins, without a clock, the work of a round on the benchmark's data: no
``(q, n)`` key pass, and the round count.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import WORLD_BOUNDS, generate_osm_like
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
from repro.index import IndexSnapshot, Quadtree, RTree
from repro.knn import browse as browse_module
from repro.knn.browse import BlockPointsView, Browsed, browse, view_gather
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
    (got,) = browse(snapshot, view_gather(view, np.arange(len(points))), [(0.0, 0.0)], [1])
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
    """A lost block is certified too, not just the stop.

    Twenty blocks tie at MINDIST 1 around the query's own block, so the
    first window keeps only some of them and no tied rank is certain.
    With the tied block of the smallest id lost, the scan meets it
    right after the first block; with the largest lost, after all the
    others.  The window may have left either out: the browse must go
    round again rather than trust the window's order.
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
        for lost, scanned in ((1, 1), (20, 20)):
            lose = np.arange(21) == lost
            got = _check_browse(snapshot, view, np.arange(21), [(0.0, 0.0)], [2], lose=lose)
            assert len(got[0].mindists) == scanned and got[0].gap == 1.0


# ----------------------------------------------------------------------
# The browse's two-level window: runs of blocks, then candidates, then a
# window.  Every case below compares each query's whole ``Browsed`` —
# blocks, sizes, rows, distance bits and the gap — with the
# block-at-a-time oracle, over the local view and over a gather that
# loses blocks.


def _oracle(snapshot, view, row_ids, query, k, keep=None, lose=None) -> Browsed:
    """Distance browsing one block at a time from a full sort, as a
    ``Browsed``; it stops at the first block ``lose`` names that it reaches."""
    x, y = query
    mindists = np.array([mindist_point_rect(Point(x, y), Rect(*r)) for r in snapshot.rects])
    order = np.lexsort((snapshot.block_ids, mindists))
    sizes, rows, dists, gap = [], [], [], None
    for rank, i in enumerate(order.tolist()):
        b = snapshot.block_ids[i]
        if lose is not None and lose[b]:
            gap = float(mindists[i])
            break
        lo, hi = view.offsets[b], view.offsets[b + 1]
        d, r = np.hypot(view.xs[lo:hi] - x, view.ys[lo:hi] - y), row_ids[lo:hi]
        if keep is not None:
            d, r = d[keep(r)], r[keep(r)]
        sizes.append(r.shape[0])
        rows.append(r)
        dists.append(d)
        nxt = mindists[order[rank + 1]] if rank + 1 < order.shape[0] else np.inf
        if np.count_nonzero(np.concatenate(dists) < nxt) >= k:
            break
    s = len(sizes)
    return Browsed(
        mindists[order[:s]],
        snapshot.block_ids[order[:s]],
        np.array(sizes, dtype=np.int64),
        np.concatenate([np.empty(0, dtype=np.int64), *rows]).astype(np.int64),
        np.concatenate([np.empty(0), *dists]),
        gap,
    )


def _assert_same(got: Browsed, want: Browsed) -> None:
    for name in Browsed._fields[:-1]:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.gap == want.gap


def _losing_gather(view, row_ids, lose):
    """A gather that loses the blocks ``lose`` names (by block id)."""

    def gather(xy, block_ids):
        starts = view.offsets[block_ids]
        sizes = np.where(lose[block_ids], 0, view.offsets[block_ids + 1] - starts)
        dists, at = view.gather(xy, starts, sizes)
        return row_ids[at], dists, np.where(lose[block_ids], -1, sizes)

    return gather


def _west(snapshot) -> np.ndarray:
    """By block id: the blocks whose centre lies in the western third,
    as a dead shard's."""
    lose = np.zeros(int(snapshot.block_ids.max(initial=-1)) + 1, dtype=bool)
    xs = snapshot.centers[:, 0]
    with np.errstate(invalid="ignore"):
        lose[snapshot.block_ids] = xs < np.quantile(xs, 1 / 3)
    return lose


def _check_browse(snapshot, view, row_ids, queries, ks, masks=None, lossy=False, lose=None):
    if lossy:
        lose = _west(snapshot)
    gather = view_gather(view, row_ids) if lose is None else _losing_gather(view, row_ids, lose)
    got = browse(snapshot, gather, queries, ks, masks)
    assert len(got) == len(ks)
    for i, (query, k) in enumerate(zip(np.asarray(queries, dtype=float).tolist(), ks)):
        keep = None if masks is None else masks[i]
        want = _oracle(snapshot, view, row_ids, query, int(k), keep, lose)
        _assert_same(got[i], want)
    return got


def _uniform_table(n: int, capacity: int, seed: int) -> SpatialTable:
    points = np.random.default_rng(seed).uniform(0.0, 100.0, (n, 2))
    return SpatialTable("t", points, capacity=capacity)


def _queries(rng, m: int):
    return rng.uniform(-10.0, 110.0, (m, 2)), rng.integers(1, 120, m)


@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("layout", ["canonical", "hilbert"])
def test_runs_of_a_quadtree_browse_like_the_oracle(layout, lossy):
    """Hundreds of blocks: the first round keys a few runs, not every block."""
    table = _uniform_table(6000, 16, seed=5)
    snapshot = _relaid(table.snapshot, layout)
    __, n_runs, g = snapshot.block_runs[1].shape
    assert n_runs > 8 and snapshot.n_blocks > 300
    view, row_ids = table.block_points
    queries, ks = _queries(np.random.default_rng(6), 60)
    _check_browse(snapshot, view, row_ids, queries, ks, lossy=lossy)


@pytest.mark.parametrize("lossy", [False, True])
def test_the_run_bound_is_the_binding_certificate(lossy):
    """Runs that each span the whole table: the run bound is 0.

    Run ``r`` holds every ``G``-th block, so each run's bounding rect
    (but the short last one's) covers the middle of the data and keys 0
    there, while few blocks
    contain a query: the run bound is below the window's key, and a
    browse that certified on the window's key alone would trust a window
    drawn from a handful of runs.
    """
    table = _uniform_table(6000, 16, seed=9)
    base = table.snapshot
    n = base.n_blocks
    n_runs = -(-n // math.isqrt(n))
    strided = np.argsort(np.arange(n) % n_runs, kind="stable")
    snapshot = base.with_layout(strided, name="strided")
    mbrs, cols = snapshot.block_runs
    rng = np.random.default_rng(10)
    queries, ks = rng.uniform(40.0, 60.0, (40, 2)), rng.integers(1, 60, 40)
    for x, y in queries:
        # Every run but the short last one contains the query.
        inside = (mbrs[0] <= x) & (x <= mbrs[2]) & (mbrs[1] <= y) & (y <= mbrs[3])
        assert np.count_nonzero(inside) >= mbrs.shape[1] - 1
        assert np.count_nonzero(snapshot.mindist_from(Point(x, y)) == 0.0) <= 4
    view, row_ids = table.block_points
    _check_browse(snapshot, view, row_ids, queries, ks, lossy=lossy)


@pytest.mark.parametrize("scale", [1.0, 2.0**520])
@pytest.mark.parametrize("n", [1, 2, 98, 99, 101])
def test_the_last_run_padded_or_holding_one_block(n, scale):
    """``g = isqrt(n)``: 98 pads one slot, 99 = 9 * 11 pads none and 101
    leaves one block in the last run after nine pads.  The blocks sit
    around the origin, where a pad keyed 0 would be nearest of all.  At
    ``2**520`` every key overflows to ``inf``: a pad keyed ``inf`` would
    tie with real blocks, so pads key NaN, which partitions after them."""
    side = math.isqrt(n - 1) + 1
    cells = np.array([(i % side, i // side) for i in range(n)], dtype=float) - side / 2
    rects = np.column_stack((cells, cells + 0.5)) * scale
    rng = np.random.default_rng(n)
    points = (cells + rng.uniform(0.0, 0.5, (n, 2))) * scale
    with np.errstate(over="ignore", invalid="ignore"):
        snapshot = IndexSnapshot.from_arrays(rects, np.ones(n, dtype=np.int64))
    mbrs, cols = snapshot.block_runs
    assert cols.shape[1:] == (mbrs.shape[1], math.isqrt(n))
    assert np.isnan(cols.reshape(4, -1)[:, n:]).all()
    view = BlockPointsView(points, np.arange(n + 1))
    queries, ks = rng.uniform(-side, side, (24, 2)) * scale, rng.integers(1, 12, 24)
    for lossy in (False, True):
        with np.errstate(over="ignore"):
            _check_browse(snapshot, view, np.arange(n), queries, ks, lossy=lossy)


@pytest.mark.parametrize("capacity", [1, 3, 8])
def test_r_tree_overlapping_and_zero_area_leaves(capacity):
    """STR leaves overlap; duplicated and collinear points make leaves of
    zero width, zero height or a single point."""
    rng = np.random.default_rng(capacity)
    lattice = rng.integers(0, 12, (300, 2)).astype(float)
    line = np.column_stack((rng.integers(0, 40, 60) * 0.25, np.full(60, 5.0)))
    points = np.concatenate([lattice, lattice[:40], line])
    table = IndexTable(RTree(points, capacity=capacity, fanout=4))
    snapshot = IndexSnapshot.from_index(table.index)
    widths = snapshot.rects[:, 2:] - snapshot.rects[:, :2]
    assert (widths == 0).any()
    view, row_ids = table.block_points
    queries = rng.integers(-2, 14, (40, 2)).astype(float)
    ks = rng.integers(1, 30, 40)
    for lossy in (False, True):
        _check_browse(snapshot, view, row_ids, queries, ks, lossy=lossy)


def test_masks_that_reject_every_row_and_k_at_least_n():
    """Nothing qualifies (every block is scanned, no rows), or ``k`` asks for
    every row and more: the window doubles until it holds every block."""
    table = _uniform_table(3000, 16, seed=14)
    snapshot = table.snapshot
    view, row_ids = table.block_points
    rng = np.random.default_rng(15)
    queries = rng.uniform(0.0, 100.0, (8, 2))
    nothing = lambda rows: np.zeros(rows.shape[0], dtype=bool)  # noqa: E731
    odd = lambda rows: rows % 2 == 1  # noqa: E731
    ks = np.array([1, 5, 3000, 3001, 10, 2999, 1, 40])
    masks = [nothing, None, None, odd, nothing, odd, None, nothing]
    got = _check_browse(snapshot, view, row_ids, queries, ks, masks)
    for i in (0, 4, 7):
        assert len(got[i].mindists) == snapshot.n_blocks and got[i].row_ids.size == 0
    assert got[2].row_ids.size == 3000
    _check_browse(snapshot, view, row_ids, queries, ks, masks, lossy=True)


def test_a_tiny_index_with_a_full_slab_of_queries():
    """Ten blocks padded to 4 runs of 3: a slab holds 5461 queries, of a
    few rows each, and a second slab takes the rest."""
    table = _uniform_table(40, 10, seed=16)
    snapshot = table.snapshot
    assert snapshot.block_runs[1].shape == (4, 4, 3)
    view, row_ids = table.block_points
    rng = np.random.default_rng(17)
    m = (1 << 16) // 12 + 100
    queries, ks = rng.uniform(-10.0, 110.0, (m, 2)), rng.integers(1, 12, m)
    masks = [None] * m
    masks[5] = masks[5_500] = lambda rows: rows % 3 == 0
    _check_browse(snapshot, view, row_ids, queries, ks, masks, lossy=True)


def test_a_browse_pickles_its_snapshot_to_the_same_bytes():
    """The runs are derived: a shard payload does not grow after a browse."""
    table = _uniform_table(3000, 16, seed=18)
    snapshot = table.snapshot
    before = pickle.dumps(snapshot)
    browse(snapshot, view_gather(*table.block_points), [(50.0, 50.0)], [10])
    assert "_runs_cache" in snapshot.__dict__
    assert pickle.dumps(snapshot) == before
    assert "_runs_cache" not in pickle.loads(before).__dict__


# ----------------------------------------------------------------------
# The work of a round, pinned without a clock on the benchmark's data: an
# OSM-like table of 60,000 points at capacity 64, and the k-band and
# focal-point cycle of its ``execute_local`` requests (seed 800).


@pytest.fixture(scope="module")
def osm_table():
    points = generate_osm_like(60_000, seed=np.random.default_rng([800, 0]), structure_seed=2015)
    return SpatialTable("points", points, capacity=64)


def _requests(points: np.ndarray, n: int = 128):
    rng = np.random.default_rng([800, 11])
    bands = ((1, 4), (5, 16), (17, 64), (65, 256))
    for j in range(n):
        ks = np.rint(np.geomspace(*bands[j % 4], 4)).astype(np.int64)
        if (j // 4) % 2 == 0:
            focal = points[rng.integers(0, points.shape[0], size=4)]
        else:
            focal = np.column_stack(
                [rng.uniform(WORLD_BOUNDS.x_min, WORLD_BOUNDS.x_max, size=4),
                 rng.uniform(WORLD_BOUNDS.y_min, WORLD_BOUNDS.y_max, size=4)]
            )
        yield focal, ks


def test_a_certified_request_keys_runs_and_candidates_never_every_block(osm_table, monkeypatch):
    snapshot = osm_table.snapshot
    gather = view_gather(*osm_table.block_points)
    n = snapshot.n_blocks
    __, n_runs, g = snapshot.block_runs[1].shape
    widths = []
    real = browse_module.np.argpartition

    def argpartition(a, kth, axis=-1):
        widths.append(a.shape[axis])
        return real(a, kth, axis=axis)

    monkeypatch.setattr(browse_module.np, "argpartition", argpartition)
    one_round = 0
    for focal, ks in _requests(osm_table.points, 16):
        rounds = []
        widths.clear()
        browse(snapshot, gather, focal, ks, checkpoint=lambda: rounds.append(1))
        if len(rounds) == 1:
            one_round += 1
            # One run pass and one candidate pass: at most 8 runs of g blocks
            # plus the pads a w-block window needs, never n.
            assert len(widths) == 2 and widths[0] == n_runs
            assert widths[1] % g == 0 and widths[1] <= max(n_runs, 8 * g) < n // 4
    assert one_round >= 12


def test_the_benchmark_requests_take_a_pinned_number_of_rounds(osm_table):
    """131 rounds for 128 requests: three need a second.  The first window
    sized from the slab's median ``k`` took 164, the all-block window 163."""
    snapshot = osm_table.snapshot
    gather = view_gather(*osm_table.block_points)
    rounds = []
    for focal, ks in _requests(osm_table.points):
        browse(snapshot, gather, focal, ks, checkpoint=lambda: rounds.append(1))
    assert len(rounds) == 131
