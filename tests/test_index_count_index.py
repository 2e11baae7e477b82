"""Unit tests for the Count-Index (§2), which is the ``IndexSnapshot``."""

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.index import IndexSnapshot

from_arrays = IndexSnapshot.from_arrays


class TestConstruction:
    def test_from_index(self, osm_quadtree, osm_count_index):
        assert osm_count_index.n_blocks == osm_quadtree.num_blocks
        assert osm_count_index.total_count == osm_quadtree.num_points

    def test_from_blocks(self, osm_quadtree):
        blocks = osm_quadtree.blocks
        ci = from_arrays([b.rect.as_tuple() for b in blocks], [b.count for b in blocks])
        assert ci.n_blocks == osm_quadtree.num_blocks
        assert ci.total_count == osm_quadtree.num_points

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            from_arrays(np.array([[0, 0, 1, 1]]), np.array([1, 2]))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            from_arrays(np.array([[2, 0, 1, 1]]), np.array([3]))

    def test_empty_index_allowed(self):
        ci = from_arrays(np.empty((0, 4)), np.empty(0, dtype=int))
        assert ci.n_blocks == 0
        assert ci.total_count == 0


class TestStatistics:
    def test_areas_and_diagonals(self):
        ci = from_arrays(np.array([[0.0, 0.0, 3.0, 4.0]]), np.array([10]))
        assert ci.areas[0] == 12.0
        assert ci.diagonals[0] == 5.0

    def test_densities(self):
        ci = from_arrays(np.array([[0.0, 0.0, 2.0, 5.0]]), np.array([20]))
        assert ci.densities()[0] == pytest.approx(2.0)

    def test_degenerate_density_is_inf(self):
        ci = from_arrays(np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([5]))
        assert np.isinf(ci.densities()[0])

    def test_rect_of(self):
        ci = from_arrays(np.array([[0.0, 1.0, 2.0, 3.0]]), np.array([1]))
        assert Rect(*ci.rects[0]) == Rect(0, 1, 2, 3)

    def test_storage_bytes_linear_in_blocks(self, osm_count_index):
        # rects (32) + counts (8) + centers (16) + block ids (8) per block
        assert osm_count_index.storage_bytes() == osm_count_index.n_blocks * 64


class TestScans:
    def test_mindist_order_from_point_sorted(self, osm_count_index):
        order, mindists = osm_count_index.mindist_order(Point(500, 500))
        assert np.all(np.diff(mindists) >= 0)
        assert sorted(order.tolist()) == list(range(osm_count_index.n_blocks))

    def test_mindist_order_from_rect_sorted(self, osm_count_index):
        order, mindists = osm_count_index.mindist_order(Rect(100, 100, 200, 200))
        assert np.all(np.diff(mindists) >= 0)
        assert order.shape[0] == osm_count_index.n_blocks

    def test_containing_block_has_zero_mindist(self, osm_quadtree, osm_count_index):
        pts = osm_quadtree.all_points()
        p = Point(float(pts[0, 0]), float(pts[0, 1]))
        __, mindists = osm_count_index.mindist_order(p)
        assert mindists[0] == 0.0

    def test_maxdist_dominates_mindist(self, osm_count_index):
        p = Point(321.0, 654.0)
        assert np.all(
            osm_count_index.maxdist_from(p)
            >= osm_count_index.mindist_from(p) - 1e-12
        )

    def test_overlapping_matches_rect_intersects(self, osm_quadtree, osm_count_index):
        region = Rect(200, 200, 400, 350)
        overlapping = set(osm_count_index.overlapping(region).tolist())
        for block in osm_quadtree.blocks:
            assert (block.block_id in overlapping) == block.rect.intersects(region)

    def test_overlapping_empty_region(self, osm_count_index):
        hits = osm_count_index.overlapping(Rect(-100, -100, -90, -90))
        assert hits.size == 0
