"""Tests for the hierarchical Count-Index and its lazy MINDIST scan."""

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.index import HierarchicalCountIndex, IndexSnapshot, Quadtree, RTree


@pytest.fixture(scope="module")
def tree():
    from repro.datasets import generate_osm_like

    return Quadtree(generate_osm_like(4_000, seed=17), capacity=64)


@pytest.fixture(scope="module")
def hier(tree):
    return HierarchicalCountIndex(tree)


class TestMirror:
    def test_counts_preserved(self, tree, hier):
        assert hier.total_count == tree.num_points
        assert hier.n_blocks == tree.num_blocks

    def test_node_count_at_least_blocks(self, tree, hier):
        assert hier.n_nodes() >= tree.num_blocks

    def test_storage_accounting(self, hier):
        assert hier.storage_bytes() == hier.n_nodes() * 40

    def test_mirrors_rtree_too(self):
        rng = np.random.default_rng(0)
        rtree = RTree(rng.uniform(0, 10, size=(1_000, 2)), capacity=64)
        hier = HierarchicalCountIndex(rtree)
        assert hier.total_count == 1_000
        assert hier.n_blocks == rtree.num_blocks


class TestScan:
    def test_scan_order_matches_flat_index(self, tree, hier):
        flat = IndexSnapshot.from_index(tree)
        rng = np.random.default_rng(1)
        for __ in range(5):
            q = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            lazy = list(hier.mindist_scan(q))
            __, flat_mindists = flat.mindist_order(q)
            lazy_mindists = [m for __, __, m in lazy]
            # Same multiset of MINDISTs in the same (sorted) order; block
            # identity at ties can differ between the two scans.
            assert np.allclose(lazy_mindists, flat_mindists)
            assert len(lazy) == flat.n_blocks

    def test_scan_from_rect(self, tree, hier):
        flat = IndexSnapshot.from_index(tree)
        rect = Rect(100, 100, 200, 200)
        lazy_mindists = [m for __, __, m in hier.mindist_scan(rect)]
        __, flat_mindists = flat.mindist_order(rect)
        assert np.allclose(lazy_mindists, flat_mindists)

    def test_scan_covers_each_block_once(self, tree, hier):
        seen = [idx for idx, __, __ in hier.mindist_scan(Point(500, 500))]
        assert sorted(seen) == list(range(tree.num_blocks))

    def test_lazy_consumption_is_partial(self, hier):
        scan = hier.mindist_scan(Point(500, 500))
        first = next(scan)
        assert first[2] >= 0.0  # generator yields without full expansion


class TestExpandUntil:
    def test_covers_k_points(self, tree, hier):
        flat = IndexSnapshot.from_index(tree)
        for k in (1, 50, 500):
            blocks, last = hier.expand_until(Point(500, 500), k)
            covered = int(flat.counts[blocks].sum())
            assert covered >= min(k, hier.total_count)

    def test_prefix_is_minimal(self, tree, hier):
        flat = IndexSnapshot.from_index(tree)
        blocks, __ = hier.expand_until(Point(500, 500), 100)
        without_last = int(flat.counts[blocks[:-1]].sum())
        assert without_last < 100

    def test_k_beyond_population(self, hier):
        blocks, __ = hier.expand_until(Point(500, 500), hier.total_count * 2)
        assert len(blocks) == hier.n_blocks

    def test_rejects_k_zero(self, hier):
        with pytest.raises(ValueError):
            hier.expand_until(Point(0, 0), 0)

    def test_empty_index(self):
        empty = HierarchicalCountIndex(Quadtree(np.empty((0, 2))))
        blocks, last = empty.expand_until(Point(0, 0), 5)
        assert blocks == [] and last == 0.0
