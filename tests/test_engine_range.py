"""Tests for the engine's range-query path."""

import numpy as np
import pytest

from repro.engine import RangeQuery, SpatialEngine, SpatialTable, column
from repro.geometry import Rect


@pytest.fixture(scope="module")
def engine():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 100, size=(5_000, 2))
    eng = SpatialEngine()
    eng.register(
        SpatialTable("places", pts, {"price": rng.uniform(0, 100, 5_000)}, capacity=64)
    )
    return eng


class TestRangeExecution:
    def test_exact_results(self, engine):
        table = engine.stats.table("places")
        region = Rect(20, 30, 60, 70)
        result, explanation = engine.execute(RangeQuery("places", region))
        pts = table.points
        want = np.flatnonzero(
            (pts[:, 0] >= 20) & (pts[:, 0] <= 60) & (pts[:, 1] >= 30) & (pts[:, 1] <= 70)
        )
        assert np.array_equal(np.sort(result.row_ids), want)
        assert explanation.chosen == "index-range-scan"

    def test_cost_equals_overlapping_blocks(self, engine):
        table = engine.stats.table("places")
        region = Rect(0, 0, 25, 25)
        result, explanation = engine.execute(RangeQuery("places", region))
        overlapping = table.snapshot.overlapping(region).shape[0]
        assert result.blocks_scanned == overlapping
        assert explanation.cost_of("index-range-scan") == overlapping

    def test_with_predicate(self, engine):
        table = engine.stats.table("places")
        region = Rect(10, 10, 90, 90)
        result, __ = engine.execute(
            RangeQuery("places", region, predicate=column("price") < 20)
        )
        assert np.all(table.column_values("price")[result.row_ids] < 20)

    def test_empty_region(self, engine):
        result, __ = engine.execute(
            RangeQuery("places", Rect(200, 200, 300, 300))
        )
        assert result.n_results == 0
        assert result.blocks_scanned == 0

    def test_range_cost_is_cheap_vs_full_scan(self, engine):
        """The paper's contrast: range cost is fixed and small, because
        the region prunes the index exactly."""
        table = engine.stats.table("places")
        result, __ = engine.execute(RangeQuery("places", Rect(0, 0, 20, 20)))
        assert result.blocks_scanned < table.index.num_blocks / 2
