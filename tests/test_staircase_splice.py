"""An incremental Staircase refresh costs what the mutations touched.

A refresh keeps every anchor whose own coverage disc misses the dirty
regions, profiles the rest and the anchors of new leaves, and splices
the leaves and blocks under each maximal dirty region into the leaf
table, the block summary and the points view.  These tests hold the
spliced state to a gather over the whole tree after every refresh
(``tests/reference_builds.assert_matches_gather``) and the catalogs to
a fresh build, under split and merge cascades, emptied trees, pruned
logs and restored stores; and they check that the work is the
mutations': no whole-tree walk, one profile per anchor whose disc
reaches a dirty region, and no more leaves re-assembled than the
per-leaf rule re-assembled.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_osm_like
from repro.estimators import MaintainedStaircaseEstimator, StaircaseEstimator
from repro.estimators import staircase
from repro.geometry import Rect
from repro.geometry.kernels import mindist_rects_batch
from repro.index import IndexSnapshot, MutableQuadtree
from repro.perf import parallel
from tests.reference_builds import assert_matches_gather

BOUNDS = Rect(0.0, 0.0, 16.0, 16.0)
VARIANTS = ("center+corners", "center")
MAX_K = 6


class Churned:
    """A tree, one maintained estimator per variant and a restored one."""

    def __init__(self, points, capacity=2, max_depth=5):
        self.tree = MutableQuadtree(points, bounds=BOUNDS, capacity=capacity, max_depth=max_depth)
        self.live = [tuple(p) for p in np.asarray(points, dtype=float).reshape(-1, 2).tolist()]
        self.maintained = {
            variant: StaircaseEstimator(
                self.tree, aux_index=self.tree, max_k=MAX_K, variant=variant
            )
            for variant in VARIANTS
        }
        self.restored = StaircaseEstimator.from_store(
            self.tree, self.maintained["center+corners"].to_store(), aux_index=self.tree
        )

    def insert(self, x, y, times=1):
        for __ in range(times):
            self.tree.insert(x, y)
            self.live.append((x, y))

    def delete(self, start, count):
        for __ in range(min(count, len(self.live))):
            x, y = self.live.pop(start % len(self.live))
            assert self.tree.delete(x, y)

    def refresh_and_check(self):
        for variant, estimator in self.maintained.items():
            estimator.refresh_incremental()
            assert_matches_gather(estimator, self.tree)
            # No two live slots share an anchor (the slot table's update
            # keeps one slot per point and rewrites no other leaf's ids).
            live = np.unique(estimator._anchor_ids)
            assert np.unique(estimator._anchors[live], axis=0).shape[0] == live.shape[0]
            fresh = StaircaseEstimator(self.tree, aux_index=self.tree, max_k=MAX_K, variant=variant)
            assert estimator.to_store().to_bytes() == fresh.to_store().to_bytes()
        self.restored.refresh_incremental()
        assert self.restored.to_store().to_bytes() == (
            self.maintained["center+corners"].to_store().to_bytes()
        )


coordinate = st.integers(0, 32).map(lambda i: i / 2.0)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), coordinate, coordinate, st.integers(1, 6)),
        st.tuples(st.just("delete"), st.integers(0, 1_000), st.integers(1, 12)),
        st.tuples(st.just("refresh")),
        st.tuples(st.just("clear_dirty")),
        st.tuples(st.just("prune_logs")),
    ),
    max_size=30,
)


class TestSpliceEqualsGather:
    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.lists(st.tuples(coordinate, coordinate), max_size=24),
        ops=operations,
    )
    def test_any_churn(self, initial, ops):
        # Half-integer lattice points pile up into duplicates (split
        # cascades down to max_depth) and land on quadrant boundaries;
        # long deletes merge back up to the root and empty the tree.
        churned = Churned(initial)
        for op in ops:
            if op[0] == "insert":
                churned.insert(*op[1:])
            elif op[0] == "delete":
                churned.delete(*op[1:])
            elif op[0] == "refresh":
                churned.refresh_and_check()
            else:
                # Pruning past the watermarks forces the gathered path.
                getattr(churned.tree, op[0])()
        churned.refresh_and_check()

    def test_split_cascade_to_max_depth(self):
        churned = Churned([(1.0, 1.0), (9.0, 9.0)])
        churned.insert(3.25, 3.25, times=5)  # one pile, capacity 2: splits to max_depth
        churned.refresh_and_check()
        depth_cap = [leaf for leaf in churned.tree.leaves if len(leaf.points_list) > 2]
        assert depth_cap and depth_cap[0].depth == 5
        churned.delete(2, 5)
        churned.refresh_and_check()

    def test_merge_cascade_then_empty_then_refill(self):
        rng = np.random.default_rng(3)
        churned = Churned(rng.uniform(0.0, 4.0, size=(20, 2)))
        churned.refresh_and_check()
        churned.delete(0, 19)  # merges cascade back towards the root
        churned.refresh_and_check()
        churned.delete(0, 1)  # the tree is empty
        churned.refresh_and_check()
        assert churned.tree.num_points == 0
        churned.insert(2.5, 2.5, times=4)  # re-inserting into a merged region
        churned.insert(12.0, 3.0)
        churned.refresh_and_check()

    def test_pruned_log_gathers_and_next_refresh_splices_again(self):
        churned = Churned(np.random.default_rng(5).uniform(0.0, 16.0, size=(60, 2)))
        churned.insert(4.0, 4.0)
        churned.tree.clear_dirty()
        estimator = churned.maintained["center+corners"]
        with mock.patch.object(
            StaircaseEstimator, "_splice", side_effect=AssertionError("spliced a pruned log")
        ):
            churned.refresh_and_check()
        assert estimator.preprocessing_stats.anchors_total == 5 * len(estimator._leaf_keys)
        churned.insert(12.0, 12.0)
        with mock.patch.object(IndexSnapshot, "from_index", side_effect=AssertionError):
            estimator.refresh_incremental()
        assert_matches_gather(estimator, churned.tree)


@pytest.fixture(scope="module")
def big_tree_points():
    return generate_osm_like(20_000, seed=11)


def forbid_whole_tree_walks():
    """Patch every whole-tree pass an incremental refresh must not make."""
    walk = AssertionError("walked the whole tree")
    return [
        *(
            mock.patch.object(
                MutableQuadtree, name, new_callable=mock.PropertyMock, side_effect=walk
            )
            for name in ("blocks", "leaves")
        ),
        mock.patch.object(IndexSnapshot, "from_index", side_effect=walk),
        mock.patch.object(staircase, "partition_bounds", side_effect=walk),
        mock.patch("repro.index.snapshot.partition_bounds", side_effect=walk),
    ]


class TestWorkIsProportional:
    def test_refresh_walks_no_whole_tree_and_profiles_what_the_rule_names(self, big_tree_points):
        bounds = Rect(0.0, 0.0, 1000.0, 1000.0)
        tree = MutableQuadtree(big_tree_points, bounds=bounds, capacity=16)
        estimator = MaintainedStaircaseEstimator(tree, max_k=32)
        rng = np.random.default_rng(8)
        for phase in range(4):
            old_anchors = {
                tuple(a): r
                for a, r in zip(estimator._anchors.tolist(), estimator._staircases.radii.tolist())
            }
            old_keys = list(estimator._leaf_keys)
            old_rects = estimator._leaf_rects
            old_coverage = estimator._staircases.radii[estimator._anchor_ids].max(axis=1)
            watermark = tree.data_generation
            for x, y in rng.uniform(0.0, 1000.0, size=(3, 2)):
                tree.insert(float(x), float(y))
            assert tree.delete(*big_tree_points[1_000 * phase].tolist())
            patches = forbid_whole_tree_walks()
            for patch in patches:
                patch.start()
            try:
                report = estimator.refresh_incremental()
            finally:
                for patch in patches:
                    patch.stop()
            assert report.mode == "incremental"
            assert_matches_gather(estimator, tree)

            dirty, __ = tree.dirty_region_items_since(watermark)
            fresh = StaircaseEstimator(tree, aux_index=tree, max_k=32)
            assert estimator.to_store().to_bytes() == fresh.to_store().to_bytes()
            # One profile per anchor of the new table that is new or
            # whose own disc reaches a dirty region.
            near = mindist_rects_batch(fresh._anchors, dirty).min(axis=1)
            expected = sum(
                1
                for anchor, reach in zip(map(tuple, fresh._anchors.tolist()), near.tolist())
                if anchor not in old_anchors or reach <= old_anchors[anchor]
            )
            assert estimator.preprocessing_stats.profiles_computed == expected
            # The per-leaf rule rebuilt every leaf whose rect came within
            # its largest anchor radius of a dirty region, and every new key.
            stale = (mindist_rects_batch(old_rects, dirty) <= old_coverage[:, None]).any(axis=1)
            kept = {key for key, gone in zip(old_keys, stale.tolist()) if not gone}
            per_leaf_rule = sum(1 for key in estimator._leaf_keys if key not in kept)
            assert report.catalogs_rebuilt <= per_leaf_rule
            if phase == 0:
                assert report.catalogs_rebuilt < per_leaf_rule

    def test_an_interior_corner_is_profiled_once(self):
        tree = MutableQuadtree(
            np.random.default_rng(1).uniform(0.0, 16.0, size=(40, 2)), bounds=BOUNDS, capacity=8
        )
        estimator = StaircaseEstimator(tree, aux_index=tree, max_k=4)
        leaf = max(tree.leaves, key=lambda node: len(node.points_list))
        x_min, y_min, x_max, y_max = leaf.rect.as_tuple()
        middle = ((x_min + x_max) / 2.0, (y_min + y_max) / 2.0)
        seen = []
        profile = staircase.profile_staircases

        def spy(snapshot, view, anchors, max_k, workers):
            seen.append(np.array(anchors))
            return profile(snapshot, view, anchors, max_k, workers)

        rng = np.random.default_rng(2)
        for __ in range(8 - len(leaf.points_list) + 1):
            tree.insert(float(rng.uniform(x_min, x_max)), float(rng.uniform(y_min, y_max)))
        with mock.patch.object(staircase, "profile_staircases", spy):
            estimator.refresh_incremental()
        # The leaf split: its center is now a corner of four leaves.
        corners = [
            {(x0, y0), (x1, y0), (x0, y1), (x1, y1)} for x0, y0, x1, y1 in estimator._leaf_keys
        ]
        assert sum(middle in leaf_corners for leaf_corners in corners) == 4
        (anchors,) = seen
        assert np.unique(anchors, axis=0).shape[0] == anchors.shape[0]
        assert (anchors == middle).all(axis=1).sum() == 1
        assert_matches_gather(estimator, tree)


class TestWorkersStayInProcess:
    def test_a_small_refresh_starts_no_process(self):
        bounds = Rect(0.0, 0.0, 1000.0, 1000.0)
        points = generate_osm_like(1_000, seed=4)
        tree = MutableQuadtree(points, bounds=bounds, capacity=16)
        estimator = MaintainedStaircaseEstimator(tree, max_k=32, workers=2)
        serial_tree = MutableQuadtree(points, bounds=bounds, capacity=16)
        serial = MaintainedStaircaseEstimator(serial_tree, max_k=32)
        rng = np.random.default_rng(2)
        with mock.patch.object(
            parallel, "ProcessPoolExecutor", side_effect=AssertionError("started a pool")
        ):
            for x, y in rng.uniform(0.0, 1000.0, size=(5, 2)):
                for index in (tree, serial_tree):
                    index.insert(float(x), float(y))
                estimator.refresh_incremental()
                serial.refresh_incremental()
                assert estimator.to_store().to_bytes() == serial.to_store().to_bytes()
        assert estimator.preprocessing_stats.workers == 2

