"""Tests for the density-based k-NN-Select cost estimator."""

import numpy as np
import pytest

from repro.estimators import DensityBasedEstimator
from repro.geometry import Point
from repro.index import IndexSnapshot, Quadtree
from repro.knn import select_cost


class TestBasics:
    def test_rejects_empty_index(self):
        ci = IndexSnapshot.from_arrays(np.empty((0, 4)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            DensityBasedEstimator(ci)

    def test_rejects_k_zero(self, osm_count_index):
        est = DensityBasedEstimator(osm_count_index)
        with pytest.raises(ValueError):
            est.estimate(Point(0, 0), 0)

    def test_estimate_at_least_one(self, osm_count_index):
        est = DensityBasedEstimator(osm_count_index)
        assert est.estimate(Point(500, 500), 1) >= 1.0

    def test_monotone_in_k(self, osm_count_index):
        est = DensityBasedEstimator(osm_count_index)
        q = Point(400, 600)
        estimates = [est.estimate(q, k) for k in (1, 16, 128, 1024)]
        assert estimates == sorted(estimates)

    def test_storage_is_count_index(self, osm_count_index):
        est = DensityBasedEstimator(osm_count_index)
        # Four float64 bounds and one int64 count per block: densities
        # derive from them, centers and block ids are not persisted.
        assert est.storage_bytes() == osm_count_index.n_blocks * 40

    def test_no_preprocessing(self, osm_count_index):
        assert DensityBasedEstimator(osm_count_index).preprocessing_seconds == 0.0


class TestDk:
    def test_dk_monotone_in_k(self, osm_count_index):
        est = DensityBasedEstimator(osm_count_index)
        q = Point(300, 300)
        dks = [est.estimate_dk(q, k) for k in (1, 10, 100, 1000)]
        assert dks == sorted(dks)

    def test_dk_uniform_data_analytic(self):
        """On uniform data, D_k should track sqrt(k / (pi * density))."""
        rng = np.random.default_rng(0)
        n = 20_000
        pts = rng.uniform(0, 100, size=(n, 2))
        tree = Quadtree(pts, capacity=256)
        est = DensityBasedEstimator(IndexSnapshot.from_index(tree))
        density = n / (100.0 * 100.0)
        for k in (10, 100, 500):
            expected = np.sqrt(k / (np.pi * density))
            got = est.estimate_dk(Point(50, 50), k)
            assert got == pytest.approx(expected, rel=0.25)

    def test_dk_contains_about_k_points(self):
        """The D_k circle should contain roughly k points on smooth data."""
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 100, size=(20_000, 2))
        tree = Quadtree(pts, capacity=256)
        est = DensityBasedEstimator(IndexSnapshot.from_index(tree))
        q = Point(50, 50)
        for k in (50, 200):
            dk = est.estimate_dk(q, k)
            inside = int(np.sum(np.hypot(pts[:, 0] - 50, pts[:, 1] - 50) < dk))
            assert inside == pytest.approx(k, rel=0.35)


class TestAccuracy:
    def test_reasonable_on_uniform_data(self):
        """On uniform data the uniformity assumption holds, so the
        estimator should be quite accurate (paper Section 2)."""
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 100, size=(10_000, 2))
        tree = Quadtree(pts, capacity=128)
        est = DensityBasedEstimator(IndexSnapshot.from_index(tree))
        errors = []
        for __ in range(30):
            q = Point(float(rng.uniform(20, 80)), float(rng.uniform(20, 80)))
            k = int(rng.integers(16, 512))
            actual = select_cost(tree, q, k)
            errors.append(abs(est.estimate(q, k) - actual) / actual)
        assert float(np.mean(errors)) < 0.35

    def test_k_dependence_of_examined_blocks(self, osm_count_index):
        """Larger k must extend the search region (the effect behind the
        growing estimation time of Figure 12)."""
        est = DensityBasedEstimator(osm_count_index)
        q = Point(500, 500)
        small = est.estimate(q, 1)
        large = est.estimate(q, 2000)
        assert large > small
