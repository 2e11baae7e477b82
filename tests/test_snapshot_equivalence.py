"""Snapshot-kernel equivalence suite.

The snapshot refactor's contract: every estimator and k-NN helper that
now computes over :class:`~repro.index.snapshot.IndexSnapshot` columns
must return **bit-identical** results to the per-leaf formulation —
the scalar :mod:`repro.geometry.metrics` looped over materialized
``Rect`` objects, with Python loops doing the scanning/accumulation
logic.  The reference implementations below *are* that formulation; no
tolerance is used anywhere because the scalar forms and the kernels
compute one float (same per-axis operations, same libm ``hypot``).

Covered per layer, across quadtree / grid / R-tree substrates:

* kernels vs scalar metrics over Rect objects (point/rect anchors);
* locality (per-k, batched, profile) vs the per-leaf scan — including
  snapshots carrying zero-count blocks, which an index never yields;
* density estimates (single, batched, D_k) vs the per-leaf expansion;
* Block-Sample estimates vs summed per-leaf localities;
* Staircase / Catalog-Merge / Virtual-Grid built from raw indexes vs
  built from snapshots;
* the snapshot-fed production browser vs the hierarchical descent
  (the heap browser of ``tests/heap_oracle.py``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.datasets import generate_osm_like
from repro.engine.physical import execute_incremental_knn_batch
from repro.engine.queries import KnnSelectQuery
from repro.estimators import (
    BlockSampleEstimator,
    CatalogMergeEstimator,
    DensityBasedEstimator,
    StaircaseEstimator,
    VirtualGridEstimator,
)
from repro.geometry import (
    Point,
    Rect,
    maxdist_point_rect,
    maxdist_rect_rect,
    mindist_point_rect,
    mindist_rect_rect,
)
from repro.geometry.kernels import (
    as_anchor,
    maxdist_rects,
    maxdist_rects_batch,
    mindist_rects,
    mindist_rects_batch,
)
from repro.index import GridIndex, IndexSnapshot, Quadtree, RTree
from repro.knn import (
    locality_size,
    locality_size_profile,
    locality_sizes,
    select_cost_exact,
    select_cost_profile,
)

from tests.heap_oracle import DistanceBrowser, IndexTable, knn_select

SUBSTRATES = ["quadtree", "grid", "rtree"]


def _build(substrate: str, n: int = 2_000, seed: int = 5):
    points = generate_osm_like(n, seed=seed)
    if substrate == "quadtree":
        return Quadtree(points, capacity=64)
    if substrate == "grid":
        return GridIndex(points, nx=12)
    return RTree(points, capacity=64)


@pytest.fixture(scope="module", params=SUBSTRATES)
def index(request):
    return _build(request.param)


@pytest.fixture(scope="module")
def snapshot(index) -> IndexSnapshot:
    return IndexSnapshot.from_index(index)


@pytest.fixture(scope="module")
def rect_objects(snapshot) -> list[Rect]:
    return [Rect(*row) for row in snapshot.rects]


def _ref_mindists(anchor, rect_objects) -> np.ndarray:
    """Per-leaf MINDISTs: the scalar metric looped over Rects."""
    scalar = mindist_point_rect if isinstance(anchor, Point) else mindist_rect_rect
    return np.array([scalar(anchor, r) for r in rect_objects])


def _ref_maxdists(anchor, rect_objects) -> np.ndarray:
    scalar = maxdist_point_rect if isinstance(anchor, Point) else maxdist_rect_rect
    return np.array([scalar(anchor, r) for r in rect_objects])


def _anchors(index) -> list:
    b = index.bounds
    cx, cy = (b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0
    return [
        Point(cx, cy),
        Point(b.x_min, b.y_min),  # corner: many MINDIST ties at 0-distance
        Point(cx * 0.3, cy * 1.4),
        Rect(cx * 0.8, cy * 0.8, cx * 1.2, cy * 1.2),
        Rect(b.x_min, b.y_min, cx, cy),
    ]


# ----------------------------------------------------------------------
# Kernels vs metrics
# ----------------------------------------------------------------------
class TestKernelBitIdentity:
    def test_kernels_match_vectorized_metrics_exactly(
        self, index, snapshot, rect_objects
    ):
        for anchor in _anchors(index):
            ref_min = _ref_mindists(anchor, rect_objects)
            ref_max = _ref_maxdists(anchor, rect_objects)
            assert np.array_equal(mindist_rects(anchor, snapshot.rects), ref_min)
            assert np.array_equal(maxdist_rects(anchor, snapshot.rects), ref_max)

    def test_kernels_match_scalar_metrics_within_one_ulp(
        self, index, snapshot, rect_objects
    ):
        # One ulp was the documented tolerance while the scalar path went
        # through ``math.hypot``; scalar and batch are libm both now, so
        # the batch kernel's rows meet the scalar loop with no tolerance.
        for anchor in _anchors(index):
            stack = as_anchor(anchor)[None, :]
            assert np.array_equal(
                mindist_rects_batch(stack, snapshot.rects)[0],
                _ref_mindists(anchor, rect_objects),
            )
            assert np.array_equal(
                maxdist_rects_batch(stack, snapshot.rects)[0],
                _ref_maxdists(anchor, rect_objects),
            )

    def test_mindist_order_is_the_stable_sort_of_the_reference(
        self, index, snapshot, rect_objects
    ):
        for anchor in _anchors(index):
            order, sorted_min = snapshot.mindist_order(anchor)
            ref = _ref_mindists(anchor, rect_objects)
            ref_order = sorted(range(ref.shape[0]), key=lambda i: (ref[i], i))
            assert order.tolist() == ref_order
            assert np.array_equal(sorted_min, ref[ref_order])


# ----------------------------------------------------------------------
# Locality
# ----------------------------------------------------------------------
def _ref_locality_size(rect_objects, counts, outer: Rect, k: int) -> int:
    """The per-leaf MINDIST-order scan of Section 4, Python loops."""
    mindists = _ref_mindists(outer, rect_objects)
    maxdists = _ref_maxdists(outer, rect_objects)
    order = sorted(range(len(rect_objects)), key=lambda i: (mindists[i], i))
    total = 0
    marked = -math.inf
    for i in order:
        marked = max(marked, float(maxdists[i]))
        total += int(counts[i])
        if total >= k:
            return sum(1 for j in order if mindists[j] <= marked)
    return len(rect_objects)  # fewer than k inner points: everything


class TestLocalityEquivalence:
    KS = (1, 3, 17, 100, 1_000, 10_000_000)

    def test_per_k_matches_the_per_leaf_scan(self, snapshot, rect_objects):
        outers = [Rect(*row) for row in snapshot.rects[::7][:12]]
        for outer in outers:
            for k in self.KS:
                assert locality_size(snapshot, outer, k) == _ref_locality_size(
                    rect_objects, snapshot.counts, outer, k
                )

    def test_batched_matches_per_rect(self, snapshot):
        outer_rects = snapshot.rects[::5][:40]
        for k in self.KS:
            batched = locality_sizes(snapshot, outer_rects, k)
            assert batched.tolist() == [
                locality_size(snapshot, row, k) for row in outer_rects
            ]

    def test_profile_agrees_with_per_k(self, snapshot):
        outer = Rect(*snapshot.rects[3])
        profile = locality_size_profile(snapshot, outer, 500)
        assert profile
        for k_start, k_end, size in profile:
            for k in {k_start, k_end}:
                assert locality_size(snapshot, outer, k) == size


class TestZeroCountBlocks:
    """An array-built snapshot may carry empty blocks; a gathered one cannot."""

    @pytest.fixture(scope="class")
    def sparse(self) -> IndexSnapshot:
        # Interleave empty blocks among counted ones, including an empty
        # block nearest the anchor (mark-raising before any count
        # accrues) and one far out past the counted mass.
        rects = np.array(
            [
                [0.0, 0.0, 1.0, 1.0],  # empty, nearest
                [1.0, 0.0, 2.0, 1.0],
                [2.0, 0.0, 3.0, 1.0],  # empty
                [3.0, 0.0, 4.0, 1.0],
                [4.0, 0.0, 5.0, 1.0],
                [9.0, 0.0, 10.0, 1.0],  # empty, far
            ]
        )
        counts = np.array([0, 4, 0, 4, 4, 0])
        return IndexSnapshot.from_arrays(rects, counts)

    def test_per_k_matches_the_per_leaf_scan(self, sparse):
        rect_objects = [Rect(*row) for row in sparse.rects]
        outer = Rect(0.2, 0.2, 0.8, 0.8)
        for k in range(1, 14):
            assert locality_size(sparse, outer, k) == _ref_locality_size(
                rect_objects, sparse.counts, outer, k
            )

    def test_profile_agrees_with_per_k(self, sparse):
        outer = Rect(0.2, 0.2, 0.8, 0.8)
        profile = locality_size_profile(sparse, outer, 12)
        assert profile, "profile must cover k >= 1"
        covered = set()
        for k_start, k_end, size in profile:
            for k in range(k_start, k_end + 1):
                assert locality_size(sparse, outer, k) == size
                covered.add(k)
        assert covered == set(range(1, 13))

    def test_batched_matches_per_rect(self, sparse):
        for k in (1, 5, 12, 13):
            assert locality_sizes(sparse, sparse.rects, k).tolist() == [
                locality_size(sparse, row, k) for row in sparse.rects
            ]


# ----------------------------------------------------------------------
# Density
# ----------------------------------------------------------------------
def _ref_density(rect_objects, counts, areas, query: Point, k: int):
    """The per-leaf expanding scan of Tao et al., Python-float loop."""
    mindists = _ref_mindists(query, rect_objects)
    order = sorted(range(len(rect_objects)), key=lambda i: (mindists[i], i))
    sorted_min = [float(mindists[i]) for i in order]
    cum_count = 0.0
    cum_area = 0.0
    d_k = math.inf
    stop = len(order) - 1
    for j, i in enumerate(order):
        cum_count += float(counts[i])
        cum_area += float(areas[i])
        if cum_area > 0 and cum_count > 0:
            d_k = math.sqrt(k / (math.pi * (cum_count / cum_area)))
        next_min = sorted_min[j + 1] if j + 1 < len(order) else math.inf
        if next_min >= d_k:
            stop = j
            break
    if not math.isfinite(d_k):
        d_k = sorted_min[min(stop + 1, len(order) - 1)]
    cost = sum(1 for d in sorted_min if d < d_k)
    return d_k, float(max(cost, 1))


class TestDensityEquivalence:
    def test_estimate_matches_the_per_leaf_expansion(
        self, index, snapshot, rect_objects
    ):
        estimator = DensityBasedEstimator(snapshot)
        queries = [a for a in _anchors(index) if isinstance(a, Point)]
        for query in queries:
            for k in (1, 16, 256, 4_096):
                ref_dk, ref_cost = _ref_density(
                    rect_objects, snapshot.counts, snapshot.areas, query, k
                )
                assert estimator.estimate_dk(query, k) == ref_dk
                assert estimator.estimate(query, k) == ref_cost

    def test_estimate_many_matches_per_query(self, index, snapshot):
        estimator = DensityBasedEstimator(snapshot)
        rng = np.random.default_rng(2)
        b = index.bounds
        queries = np.column_stack(
            [
                rng.uniform(b.x_min, b.x_max, 64),
                rng.uniform(b.y_min, b.y_max, 64),
            ]
        )
        for k in (1, 32, 512):
            batched = estimator.estimate_many(queries, k)
            assert batched.tolist() == [
                estimator.estimate(Point(x, y), k) for x, y in queries
            ]

    def test_zero_area_blocks_match_the_per_leaf_expansion(self):
        # Degenerate geometry: every block is a point or a segment, so the
        # combined density is never defined and D_k falls back to the
        # farthest examined MINDIST, in the batch as in the scalar view.
        degenerate = IndexSnapshot.from_arrays(
            [
                [0.0, 0.0, 0.0, 0.0],
                [1.0, 0.0, 1.0, 0.0],
                [2.0, 0.0, 3.0, 0.0],
                [5.0, 5.0, 5.0, 5.0],
            ],
            [3, 2, 4, 1],
        )
        rect_objects = [Rect(*row) for row in degenerate.rects]
        estimator = DensityBasedEstimator(degenerate)
        queries = np.array([[0.0, 0.0], [1.5, 0.5], [4.0, 4.0], [-2.0, 1.0]])
        for k in (1, 5, 100):
            ref = [
                _ref_density(rect_objects, degenerate.counts, degenerate.areas, Point(x, y), k)
                for x, y in queries
            ]
            points = [Point(x, y) for x, y in queries]
            assert [estimator.estimate_dk(p, k) for p in points] == [d for d, __ in ref]
            assert [estimator.estimate(p, k) for p in points] == [c for __, c in ref]
            assert estimator.estimate_many(queries, k).tolist() == [c for __, c in ref]

    def test_count_index_and_snapshot_inputs_agree(self, index, snapshot):
        # The Count-Index is the snapshot: a shared one and one the
        # estimator gathers from the raw index answer alike.
        via_snapshot = DensityBasedEstimator(snapshot)
        via_index = DensityBasedEstimator(index)
        q = Point(*snapshot.centers[0])
        for k in (4, 64):
            assert via_snapshot.estimate(q, k) == via_index.estimate(q, k)


# ----------------------------------------------------------------------
# Block-Sample
# ----------------------------------------------------------------------
class TestBlockSampleEquivalence:
    def test_estimate_matches_summed_per_leaf_localities(self):
        from repro.estimators.block_sample import sample_block_indices

        outer = _build("quadtree", n=1_200, seed=1)
        inner = _build("quadtree", n=1_200, seed=2)
        outer_snap = IndexSnapshot.from_index(outer)
        inner_snap = IndexSnapshot.from_index(inner)
        inner_rects = [Rect(*row) for row in inner_snap.rects]
        estimator = BlockSampleEstimator(outer_snap, inner_snap, sample_size=10)
        sample = sample_block_indices(outer_snap.n_blocks, 10)
        scale = outer_snap.n_blocks / sample.shape[0]
        for k in (1, 8, 64, 300):
            reference = (
                sum(
                    _ref_locality_size(
                        inner_rects, inner_snap.counts, Rect(*outer_snap.rects[i]), k
                    )
                    for i in sample
                )
                * scale
            )
            assert estimator.estimate(k) == reference


# ----------------------------------------------------------------------
# Catalog-backed estimators: raw-index input vs snapshot input
# ----------------------------------------------------------------------
class TestCatalogEstimatorInputForms:
    def test_catalog_merge(self):
        outer = _build("quadtree", n=800, seed=3)
        inner = _build("quadtree", n=800, seed=4)
        from_index = CatalogMergeEstimator(outer, inner, sample_size=8, max_k=128)
        from_snap = CatalogMergeEstimator(
            IndexSnapshot.from_index(outer),
            IndexSnapshot.from_index(inner),
            sample_size=8,
            max_k=128,
        )
        for k in (1, 9, 77, 128):
            assert from_index.estimate(k) == from_snap.estimate(k)

    def test_virtual_grid(self):
        outer = _build("quadtree", n=800, seed=3)
        inner = _build("quadtree", n=800, seed=4)
        bounds = outer.bounds.union(inner.bounds)
        kwargs = dict(bounds=bounds, grid_size=4, max_k=128)
        from_index = VirtualGridEstimator(inner, **kwargs).for_outer(outer)
        from_snap = VirtualGridEstimator(
            IndexSnapshot.from_index(inner), **kwargs
        ).for_outer(IndexSnapshot.from_index(outer))
        for k in (1, 9, 77, 128):
            assert from_index.estimate(k) == from_snap.estimate(k)

    def test_staircase_with_prebuilt_snapshot(self):
        index = _build("quadtree", n=800, seed=6)
        snapshot = IndexSnapshot.from_index(index)
        plain = StaircaseEstimator(index, max_k=128)
        seeded = StaircaseEstimator(index, max_k=128, snapshot=snapshot)
        q = Point(*snapshot.centers[1])
        for k in (1, 17, 128):
            assert plain.estimate(q, k) == seeded.estimate(q, k)


# ----------------------------------------------------------------------
# Distance browsing
# ----------------------------------------------------------------------
class TestSnapshotSeededBrowsing:
    """The snapshot-fed production browser vs the hierarchical reference."""

    @staticmethod
    def _stream_select(index, snapshot, query, k):
        table = IndexTable(index)
        (result,) = execute_incremental_knn_batch(
            table, [KnnSelectQuery("t", query, k)], snapshot
        )
        return table.points[result.row_ids], result.blocks_scanned

    def test_knn_select_results_and_cost_are_unchanged(self, index, snapshot):
        b = index.bounds
        query = Point((b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0)
        for k in (1, 10, 100):
            plain_nn, plain_cost = knn_select(index, query, k)
            seeded_nn, seeded_cost = self._stream_select(index, snapshot, query, k)
            assert np.array_equal(plain_nn, seeded_nn)
            assert plain_cost == seeded_cost

    def test_browsers_yield_the_same_stream(self, index, snapshot):
        query = Point(*snapshot.centers[0])
        plain = DistanceBrowser(index, query)
        seeded_nn, seeded_cost = self._stream_select(index, snapshot, query, 50)
        for x, y in seeded_nn:
            assert plain.next_nearest()[1:] == (x, y)
        assert plain.blocks_scanned == seeded_cost

    def test_cost_machinery_accepts_any_summary_form(self, index, snapshot):
        query = Point(*snapshot.centers[0])
        assert select_cost_exact(
            snapshot, index.blocks, query, 25
        ) == select_cost_exact(index, index.blocks, query, 25)
        assert select_cost_profile(
            snapshot, index.blocks, query, 64
        ) == select_cost_profile(index, index.blocks, query, 64)
