"""Kernel input checks and snapshot-layout parity suite.

The kernels of :mod:`repro.geometry.kernels` take conforming arrays
without a copy, reject malformed shapes, and break ties stably; a
physically reordered snapshot (Hilbert layout) answers every query
bit-identically to the canonical layout — across quadtree, grid, and
R-tree substrates.  The kernels' bit parity with the scalar metrics is
``tests/test_geometry_metrics.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate_osm_like
from repro.engine.physical import execute_incremental_knn_batch
from repro.engine.queries import KnnSelectQuery
from repro.estimators import DensityBasedEstimator, StaircaseEstimator
from repro.geometry import Point
from repro.geometry.hilbert import hilbert_d, hilbert_order
from repro.geometry.kernels import (
    _as_anchor_batch,
    _as_rects,
    as_anchor,
    interval_gather,
    mindist_argsort,
    mindist_rects,
    mindist_rects_batch,
    rect_overlap_mask,
    staircase_interpolate,
    tie_stable_argsort,
)
from repro.index import GridIndex, IndexSnapshot, Quadtree, RTree
from repro.knn.distance_browsing import select_cost_profile
from repro.knn.locality import locality_block_indices, locality_size_profile
from tests.heap_oracle import IndexTable, knn_select


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    return generate_osm_like(4_000, seed=7)


@pytest.fixture(scope="module", params=["quadtree", "grid", "rtree"])
def snapshot_and_index(request, points):
    if request.param == "quadtree":
        index = Quadtree(points, capacity=64)
    elif request.param == "grid":
        index = GridIndex(points, nx=16)
    else:
        index = RTree(points, capacity=64)
    return IndexSnapshot.from_index(index), index


def _random_rects(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random rects including degenerate ones (zero area, shared edges)."""
    lo = rng.uniform(-50, 50, size=(n, 2))
    span = rng.uniform(0, 20, size=(n, 2))
    rects = np.concatenate([lo, lo + span], axis=1)
    # Degenerate cases: zero-width, zero-height, point rects, and
    # duplicated rows (exact shared edges → MINDIST ties).
    rects[::7, 2] = rects[::7, 0]
    rects[::11, 3] = rects[::11, 1]
    rects[::13, 2:4] = rects[::13, 0:2]
    rects[1::17] = rects[::17][: rects[1::17].shape[0]]
    return rects


# ----------------------------------------------------------------------
# No-copy fast paths and tie-break contract
# ----------------------------------------------------------------------
class TestDispatch:
    def test_as_anchor_no_copy(self) -> None:
        for size in (2, 4):
            arr = np.arange(size, dtype=np.float64)
            assert as_anchor(arr) is arr

    def test_as_anchor_converts_non_conforming(self) -> None:
        assert as_anchor((1, 2)).dtype == np.float64
        arr32 = np.zeros(2, dtype=np.float32)
        assert as_anchor(arr32) is not arr32

    def test_as_rects_no_copy(self) -> None:
        rects = np.zeros((5, 4), dtype=np.float64)
        assert _as_rects(rects) is rects

    def test_as_anchor_batch_no_copy(self) -> None:
        pts = np.zeros((3, 2), dtype=np.float64)
        assert _as_anchor_batch(pts) is pts

    def test_mindist_argsort_stable_ties(self) -> None:
        # Four identical rects: all MINDISTs tie; stable sort must keep
        # input order.
        rects = np.tile(np.array([[0.0, 0.0, 1.0, 1.0]]), (4, 1))
        order, mindists = mindist_argsort((2.0, 0.5), rects)
        assert order.tolist() == [0, 1, 2, 3]
        assert np.all(mindists == mindists[0])

    def test_mindist_argsort_tie_order_restores_canonical_sequence(self) -> None:
        rng = np.random.default_rng(3)
        rects = _random_rects(rng, 64)
        anchor = np.array([0.0, 0.0])
        perm = rng.permutation(64)
        tie_order = np.argsort(perm, kind="stable")
        base, base_d = mindist_argsort(anchor, rects)
        moved, moved_d = mindist_argsort(anchor, rects[perm], tie_order=tie_order)
        # Same blocks visited in the same sequence, same distances.
        assert np.array_equal(perm[moved], base)
        assert np.array_equal(moved_d, base_d)

    def test_tie_stable_argsort_matches_rowwise(self) -> None:
        rng = np.random.default_rng(4)
        values = rng.integers(0, 5, size=(6, 32)).astype(float)  # many ties
        perm = rng.permutation(32)
        tie_order = np.argsort(perm, kind="stable")
        base = np.argsort(values, axis=1, kind="stable")
        moved = tie_stable_argsort(values[:, perm], tie_order)
        assert np.array_equal(perm[moved], base)


# ----------------------------------------------------------------------
# Hilbert order
# ----------------------------------------------------------------------
class TestHilbert:
    def test_order_is_permutation(self) -> None:
        rng = np.random.default_rng(21)
        centers = rng.uniform(-10, 10, size=(500, 2))
        order = hilbert_order(centers)
        assert order.dtype == np.int64
        assert np.array_equal(np.sort(order), np.arange(500))

    def test_curve_is_bijective_on_small_grid(self) -> None:
        bits = 4
        side = 1 << bits
        gx, gy = np.meshgrid(np.arange(side), np.arange(side))
        d = hilbert_d(gx.ravel(), gy.ravel(), bits)
        assert np.array_equal(np.sort(d), np.arange(side * side, dtype=np.uint64))

    def test_curve_steps_are_adjacent(self) -> None:
        # Consecutive curve positions are 4-neighbors: the locality
        # property the layout exists for.
        bits = 5
        side = 1 << bits
        gx, gy = np.meshgrid(np.arange(side), np.arange(side))
        xs, ys = gx.ravel(), gy.ravel()
        order = np.argsort(hilbert_d(xs, ys, bits), kind="stable")
        dx = np.abs(np.diff(xs[order]))
        dy = np.abs(np.diff(ys[order]))
        assert np.all(dx + dy == 1)

    def test_degenerate_centers(self) -> None:
        # All-identical centers: zero span on both axes → input order.
        centers = np.ones((8, 2))
        assert np.array_equal(hilbert_order(centers), np.arange(8))
        assert hilbert_order(np.empty((0, 2))).shape == (0,)


# ----------------------------------------------------------------------
# Snapshot layout invariance
# ----------------------------------------------------------------------
class TestLayoutInvariance:
    def test_with_layout_round_trip(self, snapshot_and_index) -> None:
        snap, __ = snapshot_and_index
        layout = snap.with_layout(hilbert_order(snap.centers, snap.bounds))
        assert layout.layout == "hilbert"
        assert snap.tie_order is None
        assert layout.tie_order is not None
        back = layout.canonical()
        assert back.layout == "canonical"
        for col in ("rects", "counts", "centers", "block_ids"):
            assert np.array_equal(getattr(back, col), getattr(snap, col))
        with pytest.raises(ValueError, match="re-layout"):
            layout.with_layout(np.arange(layout.n_blocks))

    def test_with_layout_rejects_non_permutation(self, snapshot_and_index) -> None:
        snap, __ = snapshot_and_index
        bad = np.zeros(snap.n_blocks, dtype=np.int64)
        with pytest.raises(ValueError, match="permutation"):
            snap.with_layout(bad)

    def test_mindist_order_identical(self, snapshot_and_index) -> None:
        snap, __ = snapshot_and_index
        layout = snap.with_layout(hilbert_order(snap.centers, snap.bounds))
        anchor = np.array([310.0, 620.0])
        base_order, base_d = snap.mindist_order(anchor)
        layout_order, layout_d = layout.mindist_order(anchor)
        # Physical rows differ, but the *block* visit sequence and the
        # distances must be identical.
        assert np.array_equal(layout.block_ids[layout_order], snap.block_ids[base_order])
        assert np.array_equal(layout_d, base_d)

    def test_leaf_binning_identical(self, snapshot_and_index, points) -> None:
        snap, __ = snapshot_and_index
        layout = snap.with_layout(hilbert_order(snap.centers, snap.bounds))
        pts = points[:500]
        base_ids = snap.leaf_ids_for_points(pts)
        layout_ids = layout.leaf_ids_for_points(pts)
        # Returned values are physical rows; the layout-invariant
        # quantity is the *block* each point lands in.
        hit = base_ids >= 0
        assert np.array_equal(hit, layout_ids >= 0)
        assert np.array_equal(
            snap.block_ids[base_ids[hit]], layout.block_ids[layout_ids[hit]]
        )

    def test_estimators_identical(self, snapshot_and_index) -> None:
        snap, index = snapshot_and_index
        layout = snap.with_layout(hilbert_order(snap.centers, snap.bounds))
        queries = np.array(
            [[200.0, 300.0], [800.0, 900.0], [500.0, 500.0], [-40.0, 1700.0]]
        )
        base_density = DensityBasedEstimator(snap)
        layout_density = DensityBasedEstimator(layout)
        assert np.array_equal(
            base_density.estimate_many(queries, 25),
            layout_density.estimate_many(queries, 25),
        )
        for x, y in queries:
            q = Point(float(x), float(y))
            assert base_density.estimate(q, 25) == layout_density.estimate(q, 25)
        if isinstance(index, Quadtree):  # Staircase needs a partition index
            base_stairs = StaircaseEstimator(index, max_k=64, snapshot=snap)
            layout_stairs = StaircaseEstimator(index, max_k=64, snapshot=layout)
            ks = np.array([1, 7, 25, 64])
            assert np.array_equal(
                base_stairs.estimate_batch(queries, ks),
                layout_stairs.estimate_batch(queries, ks),
            )

    def test_knn_select_identical(self, snapshot_and_index) -> None:
        # The production browser (block stream + merge) is where layout
        # invariance matters: the engine feeds it Hilbert snapshots.
        snap, index = snapshot_and_index
        layout = snap.with_layout(hilbert_order(snap.centers, snap.bounds))
        table = IndexTable(index)
        queries = [
            KnnSelectQuery("t", q, k=40)
            for q in (Point(250.0, 400.0), Point(900.0, 100.0))
        ]
        base = execute_incremental_knn_batch(table, queries, snap)
        relaid = execute_incremental_knn_batch(table, queries, layout)
        for query, a, b in zip(queries, base, relaid):
            assert a.blocks_scanned == b.blocks_scanned
            assert np.array_equal(a.row_ids, b.row_ids)
            # ... and both are the hierarchical reference's answer.
            ref_rows, ref_cost = knn_select(index, query.query, 40)
            assert a.blocks_scanned == ref_cost
            assert np.array_equal(table.points[a.row_ids], ref_rows)

    def test_cost_profile_identical(self, snapshot_and_index) -> None:
        snap, index = snapshot_and_index
        layout = snap.with_layout(hilbert_order(snap.centers, snap.bounds))
        q = Point(400.0, 550.0)
        assert select_cost_profile(snap, index.blocks, q, 200) == select_cost_profile(
            layout, index.blocks, q, 200
        )

    def test_locality_identical(self, snapshot_and_index) -> None:
        snap, __ = snapshot_and_index
        layout = snap.with_layout(hilbert_order(snap.centers, snap.bounds))
        outer = (200.0, 200.0, 400.0, 350.0)
        assert np.array_equal(
            locality_block_indices(snap, outer, 30),
            locality_block_indices(layout, outer, 30),
        )
        assert locality_size_profile(snap, outer, 128) == locality_size_profile(
            layout, outer, 128
        )


# ----------------------------------------------------------------------
# Kernel input checks
# ----------------------------------------------------------------------
class TestDispatchValidation:
    def test_bad_shapes_rejected(self) -> None:
        rects = np.zeros((3, 4))
        with pytest.raises(ValueError):
            mindist_rects((1.0, 2.0, 3.0), rects)
        with pytest.raises(ValueError):
            mindist_rects((1.0, 2.0), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            mindist_rects_batch(np.zeros((2, 3)), rects)
        with pytest.raises(ValueError):
            rect_overlap_mask((1.0, 2.0), rects)

    def test_staircase_interpolate_length_mismatch(self) -> None:
        with pytest.raises(ValueError, match="share one length"):
            staircase_interpolate(
                np.zeros(3), np.zeros(3), 0.0, 0.0, 1.0, np.zeros(2), np.zeros(3)
            )

    def test_interval_gather_matches_searchsorted(self) -> None:
        k_end = np.array([2, 5, 30], dtype=np.int64)
        cost = np.array([1.0, 3.0, 9.0])
        ks = np.array([1, 2, 3, 5, 6, 30])
        assert np.array_equal(
            interval_gather(k_end, cost, ks),
            cost[np.searchsorted(k_end, ks, side="left")],
        )
