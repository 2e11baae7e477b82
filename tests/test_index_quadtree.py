"""Unit and property tests for the PR quadtree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import Point, Rect
from repro.index import Quadtree


def point_arrays(max_n=200):
    return arrays(
        float,
        st.tuples(st.integers(0, max_n), st.just(2)),
        elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )


class TestConstruction:
    def test_empty(self):
        tree = Quadtree(np.empty((0, 2)))
        assert tree.num_points == 0
        assert tree.num_blocks == 0
        assert tree.root.is_leaf

    def test_single_point(self):
        tree = Quadtree([[1.0, 2.0]])
        assert tree.num_points == 1
        assert tree.num_blocks == 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Quadtree([[0.0, 0.0]], capacity=0)

    def test_rejects_bad_max_depth(self):
        with pytest.raises(ValueError):
            Quadtree([[0.0, 0.0]], max_depth=0)

    def test_rejects_points_outside_bounds(self):
        with pytest.raises(ValueError):
            Quadtree([[5.0, 5.0]], bounds=Rect(0, 0, 1, 1))

    def test_rejects_nan_points(self):
        with pytest.raises(ValueError):
            Quadtree([[float("nan"), 0.0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Quadtree(np.zeros((4, 3)))

    def test_duplicates_respect_max_depth(self):
        # 10 identical points with capacity 2 can never split apart;
        # max_depth caps the recursion and leaves an over-full block.
        pts = np.tile([[5.0, 5.0]], (10, 1))
        tree = Quadtree(pts, capacity=2, max_depth=5)
        assert tree.num_points == 10
        assert tree.depth() <= 5


class TestInvariants:
    def test_no_point_lost(self, osm_points, osm_quadtree):
        assert osm_quadtree.num_points == osm_points.shape[0]

    def test_capacity_respected(self, osm_quadtree):
        for block in osm_quadtree.blocks:
            assert block.count <= osm_quadtree.capacity

    def test_points_inside_their_block(self, osm_quadtree):
        for block in osm_quadtree.blocks:
            r = block.rect
            pts = block.points
            assert np.all(pts[:, 0] >= r.x_min - 1e-9)
            assert np.all(pts[:, 0] <= r.x_max + 1e-9)
            assert np.all(pts[:, 1] >= r.y_min - 1e-9)
            assert np.all(pts[:, 1] <= r.y_max + 1e-9)

    def test_leaf_regions_tile_bounds(self, osm_quadtree):
        total = sum(leaf.rect.area for leaf in osm_quadtree.leaves)
        assert total == pytest.approx(osm_quadtree.bounds.area, rel=1e-9)

    def test_block_ids_dense_and_ordered(self, osm_quadtree):
        ids = [b.block_id for b in osm_quadtree.blocks]
        assert ids == list(range(len(ids)))

    def test_blocks_slice_the_one_array_the_points_view_reads(self, osm_points, osm_quadtree):
        """The tree holds its points once: every block's points and both
        columns of ``points_view`` are views of one block-ordered array."""
        view = osm_quadtree.points_view
        (base,) = {id(view.xs.base), id(view.ys.base)}
        bounds = view.offsets.tolist()
        for block in osm_quadtree.blocks:
            assert id(block.points.base) == base
            lo, hi = bounds[block.block_id], bounds[block.block_id + 1]
            assert np.array_equal(block.points, np.column_stack((view.xs, view.ys))[lo:hi])
            rows = osm_quadtree.row_ids_for(block.block_id)
            assert np.array_equal(block.points, osm_points[rows])
        assert view.xs.base.shape == osm_points.shape

    def test_multiset_of_points_preserved(self, osm_points, osm_quadtree):
        collected = osm_quadtree.all_points()
        assert collected.shape == osm_points.shape
        original = np.sort(osm_points.view([("x", float), ("y", float)]).ravel())
        rebuilt = np.sort(collected.view([("x", float), ("y", float)]).ravel())
        assert np.array_equal(original, rebuilt)

    @settings(max_examples=25, deadline=None)
    @given(point_arrays())
    def test_property_partition(self, pts):
        tree = Quadtree(pts, capacity=8)
        assert tree.num_points == pts.shape[0]
        for block in tree.blocks:
            assert block.count <= 8 or tree.depth() >= 32


class TestLeafFor:
    def test_every_data_point_maps_to_nonempty_leaf(self, osm_quadtree):
        rng = np.random.default_rng(0)
        pts = osm_quadtree.all_points()
        for i in rng.integers(0, pts.shape[0], size=100):
            p = Point(float(pts[i, 0]), float(pts[i, 1]))
            leaf = osm_quadtree.leaf_for(p)
            assert leaf.is_leaf
            assert leaf.rect.contains_point(p)
            block = osm_quadtree.block_for(p)
            assert block is not None and block.count > 0

    def test_random_location_always_resolves(self, osm_quadtree):
        rng = np.random.default_rng(1)
        b = osm_quadtree.bounds
        for __ in range(100):
            p = Point(
                float(rng.uniform(b.x_min, b.x_max)),
                float(rng.uniform(b.y_min, b.y_max)),
            )
            leaf = osm_quadtree.leaf_for(p)
            assert leaf.rect.contains_point(p)

    def test_outside_bounds_raises(self, osm_quadtree):
        b = osm_quadtree.bounds
        with pytest.raises(ValueError):
            osm_quadtree.leaf_for(Point(b.x_max + 1, b.y_max + 1))

    def test_center_resolution_consistent_with_split(self):
        tree = Quadtree(
            [[1, 1], [9, 1], [1, 9], [9, 9], [5, 5]],
            bounds=Rect(0, 0, 10, 10),
            capacity=1,
        )
        # The exact center belongs to the NE quadrant (>= comparisons).
        leaf = tree.leaf_for(Point(5.0, 5.0))
        assert leaf.rect.contains_point(Point(5.0, 5.0))
        assert leaf.rect.x_min >= 5.0 and leaf.rect.y_min >= 5.0


class TestStructure:
    def test_internal_nodes_have_four_children(self, osm_quadtree):
        def check(node):
            if node.is_leaf:
                assert node.block is None or node.block.count > 0
                return
            assert len(node.children) == 4
            assert node.block is None
            for child in node.children:
                check(child)

        check(osm_quadtree.root)

    def test_children_tile_parent(self):
        tree = Quadtree(
            np.random.default_rng(0).uniform(0, 100, size=(500, 2)), capacity=16
        )

        def check(node):
            if node.is_leaf:
                return
            area = sum(c.rect.area for c in node.children)
            assert area == pytest.approx(node.rect.area, rel=1e-9)
            for child in node.children:
                assert node.rect.contains_rect(child.rect)
                check(child)

        check(tree.root)

    def test_range_query_blocks(self, osm_quadtree):
        region = Rect(100, 100, 300, 300)
        hits = osm_quadtree.range_query_blocks(region)
        hit_ids = {b.block_id for b in hits}
        for block in osm_quadtree.blocks:
            assert (block.block_id in hit_ids) == block.rect.intersects(region)
