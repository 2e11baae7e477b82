"""Tests for region-pruned browsing and statistics persistence."""

import numpy as np
import pytest

from repro.engine import (
    KnnSelectQuery,
    SpatialEngine,
    SpatialTable,
    StatisticsManager,
)
from repro.engine.physical import (
    IncrementalKnnOperator,
    RegionPrunedKnnOperator,
)
from repro.geometry import Point, Rect
from repro.knn import brute_force_knn


@pytest.fixture(scope="module")
def engine():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 100, size=(8_000, 2))
    eng = SpatialEngine(StatisticsManager(max_k=256))
    eng.register(SpatialTable("places", pts, capacity=64))
    return eng


class TestRegionPrunedKnn:
    def test_correct_results(self, engine):
        table = engine.stats.table("places")
        region = Rect(40, 40, 60, 60)
        query = KnnSelectQuery("places", Point(50, 50), k=7, region=region)
        result = RegionPrunedKnnOperator(table, query).execute()
        pts = table.points
        inside = pts[
            (pts[:, 0] >= 40) & (pts[:, 0] <= 60) & (pts[:, 1] >= 40) & (pts[:, 1] <= 60)
        ]
        want = brute_force_knn(inside, Point(50, 50), 7)
        got_d = np.hypot(pts[result.row_ids, 0] - 50, pts[result.row_ids, 1] - 50)
        want_d = np.hypot(want[:, 0] - 50, want[:, 1] - 50)
        assert np.allclose(np.sort(got_d), want_d)

    def test_scans_no_more_than_plain_browsing(self, engine):
        table = engine.stats.table("places")
        # A far-away region: plain browsing wades through everything in
        # between; pruned browsing goes straight to the region's blocks.
        region = Rect(80, 80, 95, 95)
        query = KnnSelectQuery("places", Point(5, 5), k=5, region=region)
        pruned = RegionPrunedKnnOperator(table, query).execute()
        plain = IncrementalKnnOperator(table, query).execute()
        assert pruned.blocks_scanned < plain.blocks_scanned
        assert pruned.n_results == plain.n_results == 5

    def test_cost_bounded_by_region_blocks(self, engine):
        table = engine.stats.table("places")
        region = Rect(80, 80, 95, 95)
        query = KnnSelectQuery("places", Point(5, 5), k=5, region=region)
        result = RegionPrunedKnnOperator(table, query).execute()
        assert result.blocks_scanned <= table.snapshot.overlapping(region).shape[0]

    def test_requires_region(self, engine):
        table = engine.stats.table("places")
        with pytest.raises(ValueError):
            RegionPrunedKnnOperator(
                table, KnnSelectQuery("places", Point(0, 0), k=1)
            )

    def test_planner_picks_pruned_for_remote_region(self, engine):
        query = KnnSelectQuery(
            "places", Point(5, 5), k=5, region=Rect(80, 80, 95, 95)
        )
        result, explanation = engine.execute(query)
        assert explanation.chosen == RegionPrunedKnnOperator.name
        assert RegionPrunedKnnOperator.name in explanation.alternatives

    def test_planner_omits_pruned_without_region(self, engine):
        explanation = engine.explain(KnnSelectQuery("places", Point(5, 5), k=5))
        assert RegionPrunedKnnOperator.name not in explanation.alternatives


class TestStatisticsPersistence:
    def test_save_and_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 100, size=(3_000, 2))
        stats = StatisticsManager(max_k=64)
        stats.register(SpatialTable("t", pts, capacity=64))
        estimator = stats.select_estimator("t")  # force the build
        q = Point(50, 50)
        want = estimator.estimate(q, 32)
        assert stats.save_select_catalogs(tmp_path) == ["t"]

        fresh = StatisticsManager(max_k=64)
        fresh.register(SpatialTable("t", pts, capacity=64))
        assert fresh.load_select_catalogs(tmp_path) == ["t"]
        loaded = fresh.select_estimator("t")
        assert loaded.preprocessing_seconds == 0.0  # no rebuild happened
        assert loaded.estimate(q, 32) == want

    def test_missing_files_skipped(self, tmp_path):
        stats = StatisticsManager(max_k=64)
        stats.register(
            SpatialTable("u", np.random.default_rng(2).uniform(0, 10, (200, 2)),
                         capacity=32)
        )
        assert stats.load_select_catalogs(tmp_path) == []

    def test_stale_store_skipped(self, tmp_path):
        rng = np.random.default_rng(3)
        stats = StatisticsManager(max_k=64)
        stats.register(SpatialTable("v", rng.uniform(0, 10, (500, 2)), capacity=32))
        stats.select_estimator("v")
        stats.save_select_catalogs(tmp_path)

        other = StatisticsManager(max_k=64)
        other.register(SpatialTable("v", rng.uniform(0, 10, (100, 2)), capacity=32))
        # Different index shape: the persisted catalogs no longer apply.
        assert other.load_select_catalogs(tmp_path) == []
