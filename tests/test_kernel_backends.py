"""Kernel-backend and snapshot-layout parity suite.

The backend contract (:mod:`repro.geometry.backends`): every registered
backend computes **bitwise identical** outputs to the numpy reference,
and a physically reordered snapshot (Hilbert layout) answers every
query bit-identically to the canonical layout — across quadtree, grid,
and R-tree substrates.  Numba-specific cases skip cleanly where numba
is not installed (the default container); the CI numba leg runs them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate_osm_like
from repro.engine.physical import execute_incremental_knn_batch
from repro.engine.queries import KnnSelectQuery
from repro.estimators import DensityBasedEstimator, StaircaseEstimator
from repro.geometry import Point, backends
from repro.geometry.backends import numpy_backend
from repro.geometry.hilbert import hilbert_d, hilbert_order
from repro.geometry.kernels import (
    _as_anchor_batch,
    _as_rects,
    as_anchor,
    interval_gather,
    maxdist_rects,
    maxdist_rects_batch,
    mindist_argsort,
    mindist_rects,
    mindist_rects_batch,
    rect_overlap_mask,
    staircase_interpolate,
    tie_stable_argsort,
)
from repro.index import GridIndex, IndexSnapshot, Quadtree, RTree
from repro.knn.distance_browsing import knn_select, select_cost_profile
from repro.knn.locality import locality_block_indices, locality_size_profile
from tests.heap_oracle import IndexTable


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
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_numpy_always_available(self) -> None:
        assert "numpy" in backends.available_backends()
        assert backends.get_backend("numpy") is numpy_backend

    def test_unknown_backend_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown"):
            backends.get_backend("cuda")
        with pytest.raises(ValueError, match="unknown"):
            backends.set_backend("cuda")

    def test_active_matches_module(self) -> None:
        assert backends.active().name == backends.active_backend()

    def test_numba_request_degrades_silently_when_absent(self) -> None:
        before = backends.active_backend()
        try:
            backends.set_backend("numba")
            if "numba" in backends.available_backends():
                assert backends.active_backend() == "numba"
            else:
                assert backends.active_backend() == "numpy"
        finally:
            backends.set_backend(before)

    def test_unknown_env_name_warns_and_falls_back(self, monkeypatch) -> None:
        # A config typo must not crash every entry point at import
        # time: the env path warns and runs the numpy reference.
        before = backends.active_backend()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cuda")
        try:
            with pytest.warns(RuntimeWarning, match="REPRO_KERNEL_BACKEND"):
                backends._select_at_import()
            assert backends.active_backend() == "numpy"
        finally:
            backends.set_backend(before)


# ----------------------------------------------------------------------
# Dispatch-layer fast paths and tie-break contract
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
# Cross-backend bit identity (runs in the CI numba leg)
# ----------------------------------------------------------------------
class TestNumbaParity:
    @pytest.fixture(autouse=True)
    def _require_numba(self):
        pytest.importorskip("numba")
        self.nb = backends.get_backend("numba")

    def test_distance_kernels_bit_identical(self) -> None:
        rng = np.random.default_rng(11)
        rects = _random_rects(rng, 257)
        anchors = [
            np.array([0.0, 0.0]),
            np.array([3.5, -2.0]),
            rects[5].copy(),  # anchor ON a rect boundary
            np.array([rects[9, 0], rects[9, 1], rects[9, 2], rects[9, 3]]),
            np.array([-100.0, -100.0, 100.0, 100.0]),  # contains everything
        ]
        for a in anchors:
            assert np.array_equal(
                numpy_backend.mindist_rects(a, rects), self.nb.mindist_rects(a, rects)
            )
            assert np.array_equal(
                numpy_backend.maxdist_rects(a, rects), self.nb.maxdist_rects(a, rects)
            )
        pts = rng.uniform(-60, 60, size=(33, 2))
        rect_anchors = _random_rects(rng, 33)
        for batch in (pts, rect_anchors):
            assert np.array_equal(
                numpy_backend.mindist_rects_batch(batch, rects),
                self.nb.mindist_rects_batch(batch, rects),
            )
            assert np.array_equal(
                numpy_backend.maxdist_rects_batch(batch, rects),
                self.nb.maxdist_rects_batch(batch, rects),
            )

    def test_overlap_and_gather_bit_identical(self) -> None:
        rng = np.random.default_rng(12)
        rects = _random_rects(rng, 129)
        region = np.array([-10.0, -5.0, 30.0, 25.0])
        assert np.array_equal(
            numpy_backend.rect_overlap_mask(region, rects),
            self.nb.rect_overlap_mask(region, rects),
        )
        k_end = np.array([1, 4, 9, 100], dtype=np.int64)
        cost = np.array([1.0, 2.5, 7.0, 11.0])
        ks = rng.integers(1, 101, size=64)
        assert np.array_equal(
            numpy_backend.interval_gather(k_end, cost, ks),
            self.nb.interval_gather(k_end, cost, ks),
        )

    def test_staircase_interpolate_bit_identical(self) -> None:
        rng = np.random.default_rng(13)
        xs = rng.uniform(-50, 50, size=100)
        ys = rng.uniform(-50, 50, size=100)
        c_center = rng.uniform(1, 40, size=100)
        c_corner = c_center + rng.uniform(0, 20, size=100)
        # Per-row centre and diagonal (a batch over many home leaves),
        # zero-diagonal rows among them; one shared leaf is the same
        # call with constant columns.
        cx = rng.uniform(-5, 5, size=100)
        cy = rng.uniform(-5, 5, size=100)
        diagonals = rng.choice([14.142135623730951, 0.0, 3.5], size=100)
        for centre_x, centre_y, diagonal in (
            (cx, cy, diagonals),
            (np.full(100, 1.5), np.full(100, -2.5), np.full(100, 14.142135623730951)),
            (np.full(100, 1.5), np.full(100, -2.5), np.zeros(100)),
        ):
            assert np.array_equal(
                numpy_backend.staircase_interpolate(
                    xs, ys, centre_x, centre_y, diagonal, c_center, c_corner
                ),
                self.nb.staircase_interpolate(
                    xs, ys, centre_x, centre_y, diagonal, c_center, c_corner
                ),
            )

    def test_dispatch_results_identical_under_numba(self, snapshot_and_index) -> None:
        snap, index = snapshot_and_index
        anchor = np.array([200.0, 450.0])
        region = np.array([100.0, 100.0, 600.0, 500.0])
        # The executor takes its MINDIST tableau from the dispatched
        # kernel, so the forced backend reaches execute_batch too.
        table = IndexTable(index)
        queries = [
            KnnSelectQuery("t", Point(*xy), k=k)
            for xy, k in (((250.0, 400.0), 40), ((900.0, 100.0), 7), ((-30.0, 512.0), 300))
        ]
        ref_answers = execute_incremental_knn_batch(table, queries, snap)
        ref = {
            "mindist": mindist_rects(anchor, snap.rects),
            "maxdist": maxdist_rects(anchor, snap.rects),
            "mindist_b": mindist_rects_batch(snap.centers[:50], snap.rects),
            "maxdist_b": maxdist_rects_batch(snap.rects[:50], snap.rects),
            "overlap": rect_overlap_mask(region, snap.rects),
        }
        before = backends.active_backend()
        try:
            backends.set_backend("numba")
            assert np.array_equal(ref["mindist"], mindist_rects(anchor, snap.rects))
            assert np.array_equal(ref["maxdist"], maxdist_rects(anchor, snap.rects))
            assert np.array_equal(
                ref["mindist_b"], mindist_rects_batch(snap.centers[:50], snap.rects)
            )
            assert np.array_equal(
                ref["maxdist_b"], maxdist_rects_batch(snap.rects[:50], snap.rects)
            )
            assert np.array_equal(ref["overlap"], rect_overlap_mask(region, snap.rects))
            for a, b in zip(ref_answers, execute_incremental_knn_batch(table, queries, snap)):
                assert a.blocks_scanned == b.blocks_scanned
                assert np.array_equal(a.row_ids, b.row_ids)
        finally:
            backends.set_backend(before)


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
# Dispatch-layer kernels still validate after the backend refactor
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
