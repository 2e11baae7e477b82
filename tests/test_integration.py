"""Cross-subsystem integration tests.

Each test exercises a realistic multi-module pipeline rather than one
unit: R-tree data index + quadtree auxiliary + persisted catalogs;
mutable data + maintained statistics feeding QEP choice; all three join
estimators agreeing on the same pair within tolerance; the CLI on
generated data.
"""

import numpy as np
import pytest

from repro.catalog import CatalogStore
from repro.datasets import WORLD_BOUNDS, generate_osm_like
from repro.estimators import (
    BlockSampleEstimator,
    CatalogMergeEstimator,
    MaintainedStaircaseEstimator,
    StaircaseEstimator,
    VirtualGridEstimator,
)
from repro.geometry import Point, Rect
from repro.index import IndexSnapshot, MutableQuadtree, Quadtree, RTree
from repro.knn import knn_join_cost, select_cost


class TestRTreePipeline:
    def test_rtree_data_with_persisted_catalogs(self, tmp_path):
        """Build catalogs over an R-tree data index, persist, reload,
        and verify estimates against real scan costs — the full
        Section 3.3 configuration."""
        points = generate_osm_like(8_000, seed=23)
        rtree = RTree(points, capacity=128)
        aux = Quadtree(points, capacity=128)
        estimator = StaircaseEstimator(rtree, aux_index=aux, max_k=256)

        path = tmp_path / "rtree_catalogs.bin"
        estimator.to_store().save(path)
        reloaded = StaircaseEstimator.from_store(
            rtree, CatalogStore.load(path), aux_index=aux
        )

        rng = np.random.default_rng(0)
        errors = []
        for __ in range(30):
            i = int(rng.integers(0, points.shape[0]))
            q = Point(float(points[i, 0]), float(points[i, 1]))
            k = int(rng.integers(1, 256))
            actual = select_cost(rtree, q, k)
            estimate = reloaded.estimate(q, k)
            assert estimate == estimator.estimate(q, k)
            errors.append(abs(estimate - actual) / actual)
        assert float(np.mean(errors)) < 0.7


class TestJoinEstimatorConsensus:
    def test_three_techniques_same_pair(self):
        """All three join estimators target the same quantity; on one
        pair they must land within a factor of ~2 of the truth and of
        each other at a mid-range k."""
        outer_pts = generate_osm_like(10_000, seed=31, structure_seed=30)
        inner_pts = generate_osm_like(10_000, seed=32, structure_seed=30)
        outer = Quadtree(outer_pts, capacity=128)
        inner = Quadtree(inner_pts, capacity=128)
        inner_counts = IndexSnapshot.from_index(inner)
        k = 96

        actual = knn_join_cost(outer, inner, k)
        block_sample = BlockSampleEstimator(outer, inner_counts, sample_size=200)
        catalog_merge = CatalogMergeEstimator(
            outer, inner_counts, sample_size=200, max_k=128
        )
        grid = VirtualGridEstimator(
            inner_counts, bounds=WORLD_BOUNDS, grid_size=8, max_k=128
        ).for_outer(outer)

        for estimator in (block_sample, catalog_merge, grid):
            estimate = estimator.estimate(k)
            assert actual / 2 <= estimate <= actual * 2


class TestMutableMaintenancePipeline:
    def test_growing_table_keeps_estimates_usable(self):
        """Stream inserts into a mutable index while estimating; the
        maintained estimator must stay within sane error throughout."""
        rng = np.random.default_rng(5)
        seed_pts = rng.uniform(0, 100, size=(1_000, 2))
        tree = MutableQuadtree(seed_pts, bounds=Rect(0, 0, 100, 100), capacity=64)
        maintained = MaintainedStaircaseEstimator(tree, max_k=64)
        checkpoints = []
        for step in range(1_500):
            tree.insert(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            if step % 500 == 250:
                q = Point(float(rng.uniform(10, 90)), float(rng.uniform(10, 90)))
                actual = select_cost(tree, q, 32)
                estimate = maintained.estimate(q, 32)
                checkpoints.append(abs(estimate - actual) / max(actual, 1))
        assert float(np.mean(checkpoints)) < 0.8


class TestWorldAlignment:
    def test_virtual_grids_align_across_relations(self):
        """Virtual grids over the shared WORLD_BOUNDS make one inner's
        catalogs reusable for any outer — even outers whose own bounds
        differ (the 'fixed bounds of the earth' footnote)."""
        inner_pts = generate_osm_like(5_000, seed=41)
        inner = Quadtree(inner_pts, capacity=64)
        grid = VirtualGridEstimator(
            IndexSnapshot.from_index(inner), bounds=WORLD_BOUNDS, grid_size=6, max_k=64
        )
        # An outer occupying only one corner of the world.
        corner_outer = Quadtree(
            np.random.default_rng(1).uniform(0, 250, size=(2_000, 2)), capacity=64
        )
        estimate = grid.estimate(IndexSnapshot.from_index(corner_outer), 16)
        actual = knn_join_cost(corner_outer, inner, 16)
        assert estimate > 0
        assert estimate == pytest.approx(actual, rel=2.0)
