"""Tests for the mutable quadtree."""

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.index import MutableQuadtree, Quadtree
from repro.knn import brute_force_knn, knn_select


def fresh_tree(n=500, seed=0, capacity=16):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, size=(n, 2))
    return MutableQuadtree(pts, bounds=Rect(0, 0, 100, 100), capacity=capacity), pts


class TestInsert:
    def test_bulk_load_counts(self):
        tree, pts = fresh_tree()
        assert tree.num_points == 500
        assert tree.num_blocks > 1

    def test_insert_increments(self):
        tree, __ = fresh_tree(n=10)
        tree.insert(50.0, 50.0)
        assert tree.num_points == 11

    def test_insert_outside_bounds_rejected(self):
        tree, __ = fresh_tree(n=1)
        with pytest.raises(ValueError):
            tree.insert(200.0, 50.0)

    def test_split_on_overflow(self):
        tree = MutableQuadtree(bounds=Rect(0, 0, 10, 10), capacity=4)
        rng = np.random.default_rng(1)
        for __ in range(40):
            tree.insert(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        assert all(b.count <= 4 for b in tree.blocks)
        assert tree.num_points == 40

    def test_duplicates_capped_by_depth(self):
        tree = MutableQuadtree(bounds=Rect(0, 0, 1, 1), capacity=2, max_depth=4)
        for __ in range(20):
            tree.insert(0.3, 0.3)
        assert tree.num_points == 20  # depth cap leaves an overfull leaf

    def test_matches_static_build(self):
        """Incremental inserts and the bulk constructor must agree on
        the point multiset (block shapes may differ by split order)."""
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 100, size=(300, 2))
        mutable = MutableQuadtree(bounds=Rect(0, 0, 100, 100), capacity=16)
        for x, y in pts:
            mutable.insert(float(x), float(y))
        static = Quadtree(pts, bounds=Rect(0, 0, 100, 100), capacity=16)
        a = np.sort(mutable.all_points().view([("x", float), ("y", float)]).ravel())
        b = np.sort(static.all_points().view([("x", float), ("y", float)]).ravel())
        assert np.array_equal(a, b)


class TestDelete:
    def test_delete_existing(self):
        tree, pts = fresh_tree()
        x, y = float(pts[0, 0]), float(pts[0, 1])
        assert tree.delete(x, y)
        assert tree.num_points == 499

    def test_delete_missing(self):
        tree, __ = fresh_tree()
        assert not tree.delete(-1.0, -1.0)
        assert not tree.delete(55.5, 44.4)

    def test_merge_on_underflow(self):
        tree = MutableQuadtree(bounds=Rect(0, 0, 10, 10), capacity=4)
        rng = np.random.default_rng(3)
        inserted = [
            (float(rng.uniform(0, 10)), float(rng.uniform(0, 10))) for __ in range(40)
        ]
        for x, y in inserted:
            tree.insert(x, y)
        blocks_before = tree.num_blocks
        for x, y in inserted[:36]:
            assert tree.delete(x, y)
        assert tree.num_points == 4
        assert tree.num_blocks < blocks_before

    def test_delete_then_reinsert_roundtrip(self):
        tree, pts = fresh_tree(n=50)
        for x, y in pts[:20]:
            assert tree.delete(float(x), float(y))
        for x, y in pts[:20]:
            tree.insert(float(x), float(y))
        assert tree.num_points == 50


def dirty_keys(tree, since):
    bounds, __ = tree.dirty_region_items_since(since)
    return {tuple(row) for row in bounds.tolist()}


class TestDirtyTracking:
    def test_bulk_load_is_clean(self):
        tree, __ = fresh_tree()
        assert dirty_keys(tree, tree.log_floor) == set()
        assert tree.mutations_since_clear == 0

    def test_mutations_tracked(self):
        tree, pts = fresh_tree(n=50)
        watermark = tree.data_generation
        region = tree.insert(10.0, 10.0)
        assert region.contains_point(Point(10.0, 10.0))
        x, y = float(pts[0, 0]), float(pts[0, 1])
        deleted_from = tree.leaf_for(Point(x, y)).rect.as_tuple()
        tree.delete(x, y)
        assert tree.mutations_since_clear == 2
        assert {region.as_tuple(), deleted_from} <= dirty_keys(tree, watermark)

    def test_clear(self):
        tree, __ = fresh_tree(n=20)
        tree.insert(1.0, 1.0)
        tree.clear_dirty()
        assert tree.mutations_since_clear == 0


class TestGenerationLog:
    def test_bulk_load_generation_and_empty_log(self):
        tree, __ = fresh_tree(n=50)
        assert tree.data_generation == 50
        # Bulk load is "clean": the floor starts at the load generation,
        # so consumers can only watermark from the loaded state forward.
        assert tree.log_floor == tree.data_generation
        bounds, gens = tree.dirty_region_items_since(tree.data_generation)
        assert bounds.shape == (0, 4)
        assert gens.shape == (0,)

    def test_dirty_log_records_mutated_regions(self):
        tree, pts = fresh_tree(n=50)
        watermark = tree.data_generation
        region = tree.insert(10.0, 10.0)
        bounds, gens = tree.dirty_region_items_since(watermark)
        assert bounds.shape[0] >= 1
        assert (gens > watermark).all()
        # The insert's region is in the log, coalesced by bounds.
        keys = {tuple(row) for row in bounds}
        assert tuple(float(v) for v in region.as_tuple()) in keys

    def test_dirty_log_keeps_latest_generation_per_region(self):
        tree, __ = fresh_tree(n=50)
        watermark = tree.data_generation
        tree.insert(10.0, 10.0)
        gen_between = tree.data_generation
        tree.insert(10.0, 10.0)  # same leaf, later generation
        bounds, gens = tree.dirty_region_items_since(gen_between)
        # The coalesced entry carries the *latest* mutation generation,
        # so it is still visible to a consumer at gen_between.
        assert bounds.shape[0] >= 1
        assert gens.max() == tree.data_generation

    def test_dirty_log_records_split_leaf(self):
        tree = MutableQuadtree(bounds=Rect(0, 0, 10, 10), capacity=2)
        tree.insert(1.0, 1.0)
        watermark = tree.data_generation
        old_leaf = tree.leaf_for(Point(1.0, 1.0)).rect.as_tuple()
        # Overflow the leaf: it splits and stops being a leaf region.
        # The insert notes the leaf it killed, so a consumer splices
        # the leaf's new children in under that region.
        tree.insert(1.1, 1.1)
        tree.insert(1.2, 1.2)
        assert old_leaf in dirty_keys(tree, watermark)
        assert old_leaf not in {leaf.rect.as_tuple() for leaf in tree.leaves}
        under = tree.leaves_under(old_leaf)
        assert len(under) > 1
        assert all(Rect(*old_leaf).contains_rect(leaf.rect) for leaf in under)

    def test_dirty_log_records_merge_parent(self):
        tree = MutableQuadtree(bounds=Rect(0, 0, 10, 10), capacity=2)
        pts = [(1.0, 1.0), (1.1, 1.1), (1.2, 1.2)]
        for x, y in pts:
            tree.insert(x, y)
        split = {leaf.rect.as_tuple() for leaf in tree.leaves}
        watermark = tree.data_generation
        for x, y in pts[1:]:
            tree.delete(x, y)
        # The children died in a merge; the region that absorbed them
        # is noted and contains every one of them.
        dead = split - {leaf.rect.as_tuple() for leaf in tree.leaves}
        assert dead
        noted = [Rect(*key) for key in dirty_keys(tree, watermark)]
        assert all(any(r.contains_rect(Rect(*key)) for r in noted) for key in dead)

    def test_prune_raises_floor_and_old_watermarks_error(self):
        tree, __ = fresh_tree(n=50)
        watermark = tree.data_generation
        tree.insert(10.0, 10.0)
        tree.prune_logs()
        assert tree.log_floor == tree.data_generation
        with pytest.raises(ValueError, match="pruned"):
            tree.dirty_region_items_since(watermark)
        # At-floor watermarks still answer (emptily, post-prune).
        bounds, __ = tree.dirty_region_items_since(tree.log_floor)
        assert bounds.shape[0] == 0

    def test_partial_prune_keeps_newer_history(self):
        tree, __ = fresh_tree(n=50)
        tree.insert(10.0, 10.0)
        mid = tree.data_generation
        tree.insert(90.0, 90.0)
        tree.prune_logs(before_generation=mid)
        assert tree.log_floor == mid
        bounds, gens = tree.dirty_region_items_since(mid)
        assert bounds.shape[0] >= 1
        assert (gens > mid).all()

    def test_clear_dirty_prunes_but_keeps_generation(self):
        tree, __ = fresh_tree(n=20)
        tree.insert(1.0, 1.0)
        generation = tree.data_generation
        tree.clear_dirty()
        assert tree.data_generation == generation  # never reset
        assert tree.log_floor == generation


class TestLeavesUnder:
    def test_every_node_is_a_run_of_the_leaf_order(self):
        tree, __ = fresh_tree(n=400, capacity=8)
        leaves = [leaf.rect.as_tuple() for leaf in tree.leaves]
        stack = [tree.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            run = [leaf.rect.as_tuple() for leaf in tree.leaves_under(node.rect.as_tuple())]
            first = leaves.index(run[0])
            assert leaves[first : first + len(run)] == run
            assert all(node.rect.contains_rect(Rect(*key)) for key in run)

    def test_a_region_that_is_no_node_raises(self):
        tree, __ = fresh_tree(n=100, capacity=8)
        with pytest.raises(ValueError, match="no quadtree node"):
            tree.leaves_under((0.0, 0.0, 30.0, 30.0))
        with pytest.raises(ValueError, match="no quadtree node"):
            tree.leaves_under((200.0, 200.0, 300.0, 300.0))


class TestMergeEdgeCases:
    def test_capacity_one_never_merges(self):
        """``capacity // 2 == 0`` at capacity=1: the underflow threshold
        is zero, so a non-empty subtree can never merge — the structure
        only shrinks by emptying leaves, never by collapsing them.
        (``num_blocks`` counts non-empty leaves, so the structural claim
        is on ``tree.leaves``.)"""
        tree = MutableQuadtree(bounds=Rect(0, 0, 8, 8), capacity=1)
        pts = [(1.0, 1.0), (7.0, 1.0), (1.0, 7.0), (7.0, 7.0), (3.0, 3.0)]
        for x, y in pts:
            tree.insert(x, y)
        leaves_split = len(tree.leaves)
        assert leaves_split > 1
        for x, y in pts[1:]:
            assert tree.delete(x, y)
        assert tree.num_points == 1
        # No merge happened: every split leaf survives, now empty.
        assert len(tree.leaves) == leaves_split
        assert tree.num_blocks == 1  # only the survivor's leaf is non-empty

    def test_cascaded_merge_collapses_to_root(self):
        """Deleting a deep pile cascades merges up the whole path."""
        tree = MutableQuadtree(bounds=Rect(0, 0, 16, 16), capacity=4)
        rng = np.random.default_rng(6)
        pile = [
            (float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.5)))
            for __ in range(30)
        ]
        for x, y in pile:
            tree.insert(x, y)
        assert tree.num_blocks > 1  # deep split chain
        for x, y in pile[:-1]:
            assert tree.delete(x, y)
        assert tree.num_points == 1
        assert tree.num_blocks == 1  # cascade collapsed back to the root

    def test_merge_skipped_when_sibling_is_internal(self):
        """A parent with an internal child never merges, even if the
        total point count is under the threshold's reach — only
        all-leaf parents collapse."""
        tree = MutableQuadtree(bounds=Rect(0, 0, 16, 16), capacity=4)
        # Deep pile in one quadrant keeps that child internal.
        pile = [(0.1 + 0.01 * i, 0.1 + 0.01 * i) for i in range(12)]
        for x, y in pile:
            tree.insert(x, y)
        # A few points elsewhere, then delete them to trigger underflow
        # checks on their parents.
        extras = [(15.0, 15.0), (15.0, 1.0), (1.0, 15.0)]
        for x, y in extras:
            tree.insert(x, y)
        for x, y in extras:
            assert tree.delete(x, y)
        assert tree.num_points == len(pile)
        # The deep quadrant's structure survived (still multiple leaves).
        assert tree.num_blocks > 1
        # And every pile point is still findable.
        for x, y in pile:
            leaf = tree.leaf_for(Point(x, y))
            assert leaf.rect.contains_point(Point(x, y))


class TestAsKnnSubstrate:
    def test_knn_after_mutations(self):
        tree, pts = fresh_tree(n=400, capacity=16)
        rng = np.random.default_rng(4)
        live = [tuple(p) for p in pts]
        for __ in range(100):
            x, y = float(rng.uniform(0, 100)), float(rng.uniform(0, 100))
            tree.insert(x, y)
            live.append((x, y))
        for x, y in live[:80]:
            assert tree.delete(x, y)
        live = live[80:]
        q = Point(50, 50)
        got, cost = knn_select(tree, q, 7)
        want = brute_force_knn(np.array(live), q, 7)
        d_got = np.hypot(got[:, 0] - 50, got[:, 1] - 50)
        d_want = np.hypot(want[:, 0] - 50, want[:, 1] - 50)
        assert np.allclose(d_got, d_want)
        assert cost >= 1

    def test_leaf_for_contains(self):
        tree, __ = fresh_tree()
        leaf = tree.leaf_for(Point(42.0, 58.0))
        assert leaf.rect.contains_point(Point(42.0, 58.0))

    def test_block_ids_contiguous(self):
        tree, __ = fresh_tree()
        tree.insert(1.0, 2.0)
        ids = [b.block_id for b in tree.blocks]
        assert ids == list(range(len(ids)))
