"""Equivalence and regression tests for the preprocessing perf layer.

The shared-anchor, batched, and multi-process builds are only
admissible because they produce bit-for-bit the same catalogs as the
per-anchor reference builds (``tests/reference_builds.py``, assembled
from the paper-faithful public pieces); this suite asserts that
equivalence at the ``to_store`` byte level, plus the instrumentation
counters and the degenerate-geometry regressions that ride along.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog import IntervalCatalog, merge_max, merge_sum
from repro.datasets import generate_osm_like
from repro.estimators import (
    CatalogMergeEstimator,
    StaircaseEstimator,
    VirtualGridEstimator,
)
from repro.geometry import Point, Rect, mindist_point_rect
from repro.geometry.kernels import mindist_rects, mindist_rects_batch
from repro.index import IndexSnapshot, Quadtree
from repro.knn.locality import locality_size, locality_size_profile
from repro.perf import (
    BlockPointsView,
    PreprocessingStats,
    locality_size_profiles,
    resolve_workers,
    select_cost_profiles,
)
from tests.reference_builds import catalog_merge_store, plane_sweep, staircase_store

MAX_K = 128


@pytest.fixture(scope="module")
def tree():
    return Quadtree(generate_osm_like(3_000, seed=11), capacity=64)


@pytest.fixture(scope="module")
def inner_counts():
    return IndexSnapshot.from_index(Quadtree(generate_osm_like(3_000, seed=12), capacity=64))


# ----------------------------------------------------------------------
# Tentpole: serial / dedup / parallel builds are byte-identical
# ----------------------------------------------------------------------
class TestStaircaseEquivalence:
    @pytest.fixture(scope="class")
    def reference_bytes(self, tree):
        return staircase_store(tree, MAX_K).to_bytes()

    def test_dedup_build_matches_reference_bytes(self, tree, reference_bytes):
        shared = StaircaseEstimator(tree, max_k=MAX_K)
        assert shared.to_store().to_bytes() == reference_bytes

    def test_parallel_build_matches_reference_bytes(self, tree, reference_bytes):
        parallel = StaircaseEstimator(tree, max_k=MAX_K, workers=2)
        assert parallel.to_store().to_bytes() == reference_bytes

    def test_center_only_variant_equivalent(self, tree):
        reference = staircase_store(tree, MAX_K, variant="center")
        shared = StaircaseEstimator(tree, max_k=MAX_K, variant="center")
        assert shared.to_store().to_bytes() == reference.to_bytes()

    def test_dedup_counters(self, tree):
        shared = StaircaseEstimator(tree, max_k=MAX_K)
        stats = shared.preprocessing_stats
        n_leaves = len(tree.leaves)
        assert stats.anchors_total == 5 * n_leaves
        # Interior corners are shared by sibling leaves, so dedup must
        # actually collapse anchors on any multi-leaf quadtree.
        assert n_leaves > 1
        assert stats.anchors_deduped > 0
        assert stats.profiles_computed == stats.anchors_unique
        assert stats.wall_seconds > 0
        assert set(stats.phase_seconds) == {"collect", "profiles", "assemble"}

    def test_workers_recorded(self, tree):
        est = StaircaseEstimator(tree, max_k=MAX_K, workers=2)
        assert est.workers == 2
        assert est.preprocessing_stats.workers == 2


class TestJoinEquivalence:
    def test_catalog_merge_fast_matches_reference_bytes(self, tree, inner_counts):
        reference = catalog_merge_store(tree, inner_counts, sample_size=50, max_k=MAX_K)
        fast = CatalogMergeEstimator(tree, inner_counts, sample_size=50, max_k=MAX_K)
        parallel = CatalogMergeEstimator(
            tree, inner_counts, sample_size=50, max_k=MAX_K, workers=2
        )
        assert fast.to_store().to_bytes() == reference.to_bytes()
        assert parallel.to_store().to_bytes() == reference.to_bytes()

    def test_virtual_grid_parallel_matches_serial_bytes(self, tree, inner_counts):
        bounds = tree.bounds
        serial = VirtualGridEstimator(
            inner_counts, bounds=bounds, grid_size=4, max_k=MAX_K
        )
        parallel = VirtualGridEstimator(
            inner_counts, bounds=bounds, grid_size=4, max_k=MAX_K, workers=2
        )
        assert parallel.to_store().to_bytes() == serial.to_store().to_bytes()

    def test_locality_profiles_parallel_order(self, inner_counts):
        rects = [
            Rect(x, y, x + 30.0, y + 20.0)
            for x, y in [(0.0, 0.0), (100.0, 400.0), (512.0, 512.0), (900.0, 30.0)]
        ]
        serial = locality_size_profiles(inner_counts, rects, MAX_K)
        parallel = locality_size_profiles(inner_counts, rects, MAX_K, workers=2)
        assert serial == parallel


# ----------------------------------------------------------------------
# The batched building blocks match their per-item references
# ----------------------------------------------------------------------
class TestBlockPointsView:
    def test_from_no_blocks(self):
        view = BlockPointsView.from_blocks([])
        assert view.points.shape == (0, 2)
        assert view.offsets.tolist() == [0]


class TestMindistBatching:
    def test_rows_match_per_point_path(self, inner_counts):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-50, 1050, size=(40, 2))
        matrix = mindist_rects_batch(pts, inner_counts.rects)
        for i, (x, y) in enumerate(pts):
            expected = mindist_rects((float(x), float(y)), inner_counts.rects)
            assert np.array_equal(matrix[i], expected)

    def test_single_rect_matches_scalar(self):
        rect = Rect(0.0, 0.0, 10.0, 4.0)
        bounds = np.array([rect.as_tuple()])
        for p in [Point(-3.0, 2.0), Point(5.0, 5.0), Point(11.0, -1.0), Point(5.0, 2.0)]:
            matrix = mindist_rects_batch(np.array([[p.x, p.y]]), bounds)
            assert matrix[0, 0] == mindist_point_rect(p, rect)


class TestMergeFast:
    @staticmethod
    def _random_catalog(rng, max_k):
        n_steps = int(rng.integers(1, 8))
        k_ends = np.sort(rng.choice(np.arange(1, max_k), size=n_steps, replace=False))
        k_ends = np.concatenate([k_ends, [max_k]])
        profile = []
        k_start = 1
        cost = 0.0
        for k_end in k_ends:
            cost += float(rng.integers(1, 5))
            profile.append((k_start, int(k_end), cost))
            k_start = int(k_end) + 1
        return IntervalCatalog.from_profile(profile)

    @pytest.mark.parametrize("seed", range(5))
    def test_fast_merges_equal_plane_sweep(self, seed):
        rng = np.random.default_rng(seed)
        catalogs = [self._random_catalog(rng, 64) for __ in range(int(rng.integers(2, 6)))]
        assert merge_max(catalogs) == plane_sweep(catalogs, max)
        assert merge_sum(catalogs) == plane_sweep(catalogs, sum)

    def test_single_catalog_coalesces(self):
        catalog = IntervalCatalog([(1, 4, 2.0), (5, 9, 2.0), (10, 16, 3.0)])
        assert merge_max([catalog]) == plane_sweep([catalog], max)
        assert merge_sum([catalog]) == plane_sweep([catalog], sum)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_max([])
        with pytest.raises(ValueError):
            merge_sum([])


# ----------------------------------------------------------------------
# Worker plumbing and instrumentation
# ----------------------------------------------------------------------
class TestWorkerPlumbing:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 0
        assert resolve_workers(0) == 0
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_select_profiles_empty_anchor_list(self, tree):
        counts = IndexSnapshot.from_index(tree)
        view = BlockPointsView.from_blocks(tree.blocks)
        assert select_cost_profiles(counts, view, [], MAX_K) == []
        assert select_cost_profiles(counts, view, [], MAX_K, workers=2) == []

    def test_stats_merged(self):
        a = PreprocessingStats(
            technique="staircase",
            workers=2,
            anchors_total=10,
            anchors_unique=6,
            profiles_computed=6,
            phase_seconds={"profiles": 1.0},
            wall_seconds=1.5,
        )
        b = PreprocessingStats(
            technique="catalog-merge",
            anchors_total=4,
            anchors_unique=4,
            profiles_computed=4,
            phase_seconds={"profiles": 0.5, "merge": 0.25},
            wall_seconds=1.0,
        )
        merged = PreprocessingStats.merged([a, b])
        assert merged.workers == 2
        assert merged.anchors_total == 14
        assert merged.anchors_deduped == 4
        assert merged.wall_seconds == 2.5
        assert merged.phase_seconds == {"profiles": 1.5, "merge": 0.25}

    def test_stats_as_dict_flattens(self):
        stats = PreprocessingStats(
            technique="staircase", anchors_total=5, anchors_unique=3,
            phase_seconds={"profiles": 0.5},
        )
        flat = stats.as_dict()
        assert flat["anchors_deduped"] == 2.0
        assert flat["profiles_seconds"] == 0.5
        assert all(isinstance(v, float) for v in flat.values())


# ----------------------------------------------------------------------
# Degenerate-geometry and empty-input regressions
# ----------------------------------------------------------------------
class TestDegenerateInputs:
    def test_single_leaf_aux_index(self):
        # Fewer points than capacity: the quadtree never splits, so the
        # shared-anchor build sees one leaf and zero shareable corners.
        pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 1.0]])
        tree = Quadtree(pts, capacity=16)
        assert len(tree.leaves) == 1
        reference = staircase_store(tree, 8)
        shared = StaircaseEstimator(tree, max_k=8)
        assert shared.to_store().to_bytes() == reference.to_bytes()
        assert shared.preprocessing_stats.anchors_deduped == 0
        reloaded = StaircaseEstimator.from_store(tree, reference)
        assert shared.estimate(Point(3.0, 2.0), 2) == reloaded.estimate(Point(3.0, 2.0), 2)

    def test_all_identical_points(self):
        # Every data point coincides: one block, tied distances
        # everywhere.  The shared build must survive and match the
        # reference bit for bit.
        pts = np.full((10, 2), 7.0)
        tree = Quadtree(pts, capacity=16)
        reference = staircase_store(tree, 8)
        shared = StaircaseEstimator(tree, max_k=8)
        assert shared.to_store().to_bytes() == reference.to_bytes()
        query = Point(7.0, 7.0)
        reloaded = StaircaseEstimator.from_store(tree, reference)
        assert shared.estimate(query, 4) == reloaded.estimate(query, 4) == 1.0

    def test_lookup_many_empty(self):
        catalog = IntervalCatalog([(1, 10, 3.0)])
        out = catalog.lookup_many([])
        assert isinstance(out, np.ndarray)
        assert out.shape == (0,)

    def test_lookup_many_empty_ndarray(self):
        catalog = IntervalCatalog([(1, 10, 3.0)])
        out = catalog.lookup_many(np.empty(0, dtype=np.int64))
        assert out.shape == (0,)


# ----------------------------------------------------------------------
# Locality semantics: the staircase path equals the per-k oracle
# ----------------------------------------------------------------------
class TestLocalitySemantics:
    def test_locality_profile_matches_per_k(self, inner_counts):
        """The profile (Procedure 2) and per-k locality agree for every
        k — the zero-count-block divergence documented in
        ``repro.knn.locality`` cannot occur because a snapshot gathered
        from an index holds non-empty blocks only."""
        rng = np.random.default_rng(17)
        total = int(inner_counts.total_count)
        max_k = min(total, 400)
        for __ in range(6):
            x, y = rng.uniform(0, 1000, size=2)
            rect = Rect(x, y, x + rng.uniform(1, 80), y + rng.uniform(1, 80))
            profile = locality_size_profile(inner_counts, rect, max_k)
            catalog = IntervalCatalog.from_profile(profile, max_k=max_k)
            for k in range(1, max_k + 1):
                assert catalog.lookup(k) == locality_size(inner_counts, rect, k)


# ----------------------------------------------------------------------
# Instrumentation surfacing: EXPLAIN, fallback chains, CLI flags
# ----------------------------------------------------------------------
class TestSurfacing:
    def test_plan_explanation_carries_preprocessing(self):
        from repro.engine.planner import explain_select_batch
        from repro.engine.queries import KnnSelectQuery
        from repro.engine.stats import SpatialTable, StatisticsManager

        stats = StatisticsManager(max_k=64)
        stats.register(SpatialTable("places", generate_osm_like(2_000, seed=3), capacity=64))
        (expl,) = explain_select_batch(
            stats, [KnnSelectQuery(table="places", query=Point(500, 500), k=16)]
        )
        assert expl.preprocessing["anchors_deduped"] > 0
        assert expl.preprocessing["wall_seconds"] > 0
        assert "preprocessing:" in str(expl)

    def test_fallback_chain_merges_tier_stats(self, tree):
        from repro.resilience.fallback import FallbackSelectEstimator

        chain = FallbackSelectEstimator(
            tiers=[("staircase", lambda: StaircaseEstimator(tree, max_k=MAX_K))],
            guaranteed_bound=float(tree.num_blocks),
        )
        assert chain.preprocessing_stats is None  # nothing built yet
        chain.estimate(Point(500, 500), 8)
        merged = chain.preprocessing_stats
        assert merged is not None
        assert merged.anchors_deduped > 0
        assert merged.wall_seconds > 0

    def test_cli_accepts_worker_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["estimate-select", "pts.csv", "--x", "1", "--y", "2", "-k", "4",
             "--workers", "3"]
        )
        assert args.workers == 3
        assert not hasattr(args, "no_dedup")  # the reference build left src/
        args = parser.parse_args(
            ["estimate-join", "a.csv", "b.csv", "-k", "4", "--workers", "2"]
        )
        assert args.workers == 2

    def test_statistics_manager_threads_workers(self):
        from repro.engine.stats import SpatialTable, StatisticsManager

        stats = StatisticsManager(max_k=32, workers=1)
        stats.register(SpatialTable("t", generate_osm_like(800, seed=4), capacity=64))
        est = stats.select_estimator("t")
        assert est.workers == 1
        with pytest.raises(ValueError):
            StatisticsManager(workers=-2)
