"""Tests for the three k-NN-Join cost estimators."""

import numpy as np
import pytest

from repro.catalog import CatalogLookupError
from repro.datasets import WORLD_BOUNDS
from repro.estimators import (
    BlockSampleEstimator,
    CatalogMergeEstimator,
    VirtualGridEstimator,
    sample_block_indices,
)
from repro.index import IndexSnapshot, Quadtree
from repro.knn import knn_join_cost, locality_size


class TestSampling:
    def test_full_coverage_when_sample_large(self):
        assert np.array_equal(sample_block_indices(5, 10), np.arange(5))

    def test_requested_size_honored(self):
        idx = sample_block_indices(1000, 100)
        assert idx.shape[0] == 100

    def test_spatially_strided(self):
        idx = sample_block_indices(100, 10)
        gaps = np.diff(idx)
        assert gaps.min() >= 5  # roughly even spacing over traversal order

    def test_rejects_zero_sample(self):
        with pytest.raises(ValueError):
            sample_block_indices(10, 0)

    def test_rejects_empty_relation(self):
        with pytest.raises(ValueError):
            sample_block_indices(0, 5)


class TestBlockSample:
    def test_exact_when_sampling_all_blocks(self, osm_quadtree, inner_quadtree,
                                             inner_count_index):
        est = BlockSampleEstimator(
            osm_quadtree, inner_count_index, sample_size=10**9
        )
        for k in (1, 32, 256):
            assert est.estimate(k) == knn_join_cost(osm_quadtree, inner_quadtree, k)

    def test_scaling_formula(self, osm_quadtree, inner_count_index):
        est = BlockSampleEstimator(osm_quadtree, inner_count_index, sample_size=10)
        n_o = osm_quadtree.num_blocks
        sample = sample_block_indices(n_o, 10)
        agg = sum(
            locality_size(inner_count_index, osm_quadtree.blocks[i].rect, 16)
            for i in sample
        )
        assert est.estimate(16) == pytest.approx(agg * n_o / sample.shape[0])

    def test_no_storage(self, osm_quadtree, inner_count_index):
        est = BlockSampleEstimator(osm_quadtree, inner_count_index, sample_size=5)
        assert est.storage_bytes() == 0
        assert est.preprocessing_seconds == 0.0

    def test_rejects_k_zero(self, osm_quadtree, inner_count_index):
        est = BlockSampleEstimator(osm_quadtree, inner_count_index, sample_size=5)
        with pytest.raises(ValueError):
            est.estimate(0)

    def test_rejects_empty_inner(self, osm_quadtree):
        empty = IndexSnapshot.from_arrays(np.empty((0, 4)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            BlockSampleEstimator(osm_quadtree, empty, sample_size=5)

    def test_rejects_empty_outer(self, inner_count_index):
        empty_outer = Quadtree(np.empty((0, 2)))
        with pytest.raises(ValueError):
            BlockSampleEstimator(empty_outer, inner_count_index, sample_size=5)


class TestCatalogMerge:
    def test_matches_block_sample_estimates(self, osm_quadtree, inner_count_index):
        """With the same sample, Catalog-Merge is a precomputation of
        exactly what Block-Sample computes at query time; the estimates
        must coincide."""
        bs = BlockSampleEstimator(osm_quadtree, inner_count_index, sample_size=40)
        cm = CatalogMergeEstimator(
            osm_quadtree, inner_count_index, sample_size=40, max_k=512
        )
        for k in (1, 13, 128, 512):
            assert cm.estimate(k) == pytest.approx(bs.estimate(k))

    def test_exact_with_full_sample(self, osm_quadtree, inner_quadtree,
                                    inner_count_index):
        cm = CatalogMergeEstimator(
            osm_quadtree, inner_count_index, sample_size=10**9, max_k=256
        )
        for k in (1, 64, 256):
            assert cm.estimate(k) == pytest.approx(
                knn_join_cost(osm_quadtree, inner_quadtree, k)
            )

    def test_k_beyond_max_k_raises(self, osm_quadtree, inner_count_index):
        cm = CatalogMergeEstimator(
            osm_quadtree, inner_count_index, sample_size=10, max_k=64
        )
        with pytest.raises(CatalogLookupError):
            cm.estimate(65)

    def test_monotone_in_k(self, osm_quadtree, inner_count_index):
        cm = CatalogMergeEstimator(
            osm_quadtree, inner_count_index, sample_size=30, max_k=512
        )
        estimates = [cm.estimate(k) for k in (1, 8, 64, 512)]
        assert estimates == sorted(estimates)

    def test_bookkeeping(self, osm_quadtree, inner_count_index):
        cm = CatalogMergeEstimator(
            osm_quadtree, inner_count_index, sample_size=20, max_k=128
        )
        assert cm.preprocessing_seconds > 0
        assert cm.storage_bytes() > 0
        assert cm.sample_size == 20
        assert cm.max_k == 128

    def test_rejects_bad_max_k(self, osm_quadtree, inner_count_index):
        with pytest.raises(ValueError):
            CatalogMergeEstimator(osm_quadtree, inner_count_index, max_k=0)


class TestVirtualGrid:
    @pytest.fixture(scope="class")
    def grid_estimator(self, inner_count_index):
        return VirtualGridEstimator(
            inner_count_index, bounds=WORLD_BOUNDS, grid_size=6, max_k=512
        )

    def test_cell_catalog_count(self, grid_estimator):
        assert grid_estimator.grid_size == 6
        # One catalog per cell.
        for i in range(36):
            assert grid_estimator.cell_catalog(i).max_k >= 512

    def test_estimate_positive_and_monotone(self, grid_estimator, osm_count_index):
        estimates = [grid_estimator.estimate(osm_count_index, k) for k in (1, 64, 512)]
        assert all(e > 0 for e in estimates)
        assert estimates == sorted(estimates)

    def test_in_right_ballpark(self, grid_estimator, osm_quadtree, inner_quadtree,
                               osm_count_index):
        """Coarse sanity: within a factor of ~3 of the true cost."""
        actual = knn_join_cost(osm_quadtree, inner_quadtree, 64)
        est = grid_estimator.estimate(osm_count_index, 64)
        assert actual / 3 <= est <= actual * 3

    def test_assignment_variants(self, grid_estimator, osm_count_index):
        overlap = grid_estimator.estimate(osm_count_index, 32, assignment="overlap")
        center = grid_estimator.estimate(osm_count_index, 32, assignment="center")
        clipped = grid_estimator.estimate(osm_count_index, 32, assignment="clipped")
        # Center/clipped remove the per-cell double counting.
        assert center <= overlap
        assert clipped <= overlap

    def test_rejects_unknown_assignment(self, grid_estimator, osm_count_index):
        with pytest.raises(ValueError):
            grid_estimator.estimate(osm_count_index, 32, assignment="midpoint")

    def test_bound_estimator_adapts_interface(self, grid_estimator, osm_count_index):
        bound = grid_estimator.for_outer(osm_count_index)
        assert bound.estimate(16) == grid_estimator.estimate(osm_count_index, 16)
        assert bound.storage_bytes() == grid_estimator.storage_bytes()
        assert bound.preprocessing_seconds == grid_estimator.preprocessing_seconds

    def test_one_grid_serves_many_outers(self, grid_estimator, osm_quadtree,
                                         uniform_points):
        """The linear-storage property: the same inner-relation catalogs
        estimate joins with any outer relation."""
        other_outer = Quadtree(uniform_points, capacity=64)
        e1 = grid_estimator.estimate(IndexSnapshot.from_index(osm_quadtree), 32)
        e2 = grid_estimator.estimate(IndexSnapshot.from_index(other_outer), 32)
        assert e1 > 0 and e2 > 0 and e1 != e2

    def test_k_beyond_max_k_raises(self, grid_estimator, osm_count_index):
        with pytest.raises(CatalogLookupError):
            grid_estimator.estimate(osm_count_index, 513)

    def test_rejects_bad_grid_size(self, inner_count_index):
        with pytest.raises(ValueError):
            VirtualGridEstimator(inner_count_index, WORLD_BOUNDS, grid_size=0)

    def test_storage_grows_with_grid(self, inner_count_index):
        small = VirtualGridEstimator(
            inner_count_index, WORLD_BOUNDS, grid_size=2, max_k=64
        )
        large = VirtualGridEstimator(
            inner_count_index, WORLD_BOUNDS, grid_size=8, max_k=64
        )
        assert large.storage_bytes() > small.storage_bytes()
