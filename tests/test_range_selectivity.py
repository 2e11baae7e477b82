"""Tests for the Count-Index range-count/selectivity estimator."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.index import IndexSnapshot, Quadtree


class TestRangeCount:
    def test_whole_space_counts_everything(self, osm_quadtree, osm_count_index):
        region = osm_quadtree.bounds
        assert osm_count_index.estimate_range_count(region) == pytest.approx(
            osm_quadtree.num_points, rel=1e-9
        )

    def test_empty_region(self, osm_count_index):
        assert osm_count_index.estimate_range_count(Rect(-10, -10, -5, -5)) == 0.0

    def test_monotone_in_region(self, osm_count_index):
        small = Rect(200, 200, 400, 400)
        large = Rect(100, 100, 500, 500)
        assert osm_count_index.estimate_range_count(
            small
        ) <= osm_count_index.estimate_range_count(large)

    def test_accurate_on_uniform_data(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 100, size=(20_000, 2))
        ci = IndexSnapshot.from_index(Quadtree(pts, capacity=256))
        region = Rect(10, 20, 60, 70)
        actual = int(
            np.sum(
                (pts[:, 0] >= 10) & (pts[:, 0] <= 60)
                & (pts[:, 1] >= 20) & (pts[:, 1] <= 70)
            )
        )
        estimated = ci.estimate_range_count(region)
        assert estimated == pytest.approx(actual, rel=0.05)

    def test_reasonable_on_clustered_data(self, osm_points, osm_count_index):
        region = Rect(250, 250, 750, 750)
        actual = int(
            np.sum(
                (osm_points[:, 0] >= 250) & (osm_points[:, 0] <= 750)
                & (osm_points[:, 1] >= 250) & (osm_points[:, 1] <= 750)
            )
        )
        estimated = osm_count_index.estimate_range_count(region)
        # Blocks adapt to density, so even clustered data estimates well.
        assert estimated == pytest.approx(actual, rel=0.25)

    def test_degenerate_block_counts_fully_when_hit(self):
        # A zero-area block (all points identical) contributes its full
        # count when the region touches it.
        ci = IndexSnapshot.from_arrays(np.array([[5.0, 5.0, 5.0, 5.0]]), np.array([7]))
        assert ci.estimate_range_count(Rect(0, 0, 10, 10)) == 7.0
        assert ci.estimate_range_count(Rect(6, 6, 10, 10)) == 0.0


class TestRangeSelectivity:
    def test_bounds(self, osm_quadtree, osm_count_index):
        sel = osm_count_index.estimate_range_selectivity(Rect(400, 400, 600, 600))
        assert 0.0 <= sel <= 1.0

    def test_whole_space_is_one(self, osm_quadtree, osm_count_index):
        assert osm_count_index.estimate_range_selectivity(
            osm_quadtree.bounds
        ) == pytest.approx(1.0)

    def test_empty_index(self):
        ci = IndexSnapshot.from_arrays(np.empty((0, 4)), np.empty(0, dtype=int))
        assert ci.estimate_range_selectivity(Rect(0, 0, 1, 1)) == 0.0
