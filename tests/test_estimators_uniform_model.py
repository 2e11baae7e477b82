"""Tests for the closed-form uniform-data cost model."""

import numpy as np
import pytest

from repro.estimators import UniformModelEstimator
from repro.geometry import Point
from repro.index import IndexSnapshot, Quadtree
from repro.knn import select_cost


@pytest.fixture(scope="module")
def uniform_tree():
    rng = np.random.default_rng(0)
    return Quadtree(rng.uniform(0, 100, size=(20_000, 2)), capacity=128)


@pytest.fixture(scope="module")
def model(uniform_tree):
    return UniformModelEstimator(IndexSnapshot.from_index(uniform_tree))


class TestBasics:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UniformModelEstimator(IndexSnapshot.from_arrays(np.empty((0, 4)), np.empty(0, dtype=int)))

    def test_rejects_k_zero(self, model):
        with pytest.raises(ValueError):
            model.estimate(Point(50, 50), 0)

    def test_location_independent(self, model):
        assert model.estimate(Point(10, 10), 64) == model.estimate(Point(90, 30), 64)

    def test_monotone_in_k(self, model):
        costs = [model.estimate(Point(50, 50), k) for k in (1, 16, 256, 4096)]
        assert costs == sorted(costs)

    def test_bounded_by_block_count(self, model, uniform_tree):
        assert 1.0 <= model.estimate(Point(50, 50), 10**9) <= uniform_tree.num_blocks

    def test_tiny_storage(self, model):
        assert model.storage_bytes() == 32


class TestAccuracy:
    def test_dk_analytic(self, model):
        # 20,000 points over 100x100 => density 2/unit^2.  The model's
        # area comes from summing non-empty leaves, so it is within a
        # hair of (not exactly) the universe area.
        for k in (8, 128):
            expected = np.sqrt(k / (np.pi * 2.0))
            assert model.estimate_dk(k) == pytest.approx(expected, rel=1e-3)

    def test_accurate_on_uniform_interior(self, uniform_tree, model):
        rng = np.random.default_rng(1)
        errors = []
        for __ in range(25):
            q = Point(float(rng.uniform(25, 75)), float(rng.uniform(25, 75)))
            k = int(rng.integers(16, 512))
            actual = select_cost(uniform_tree, q, k)
            errors.append(abs(model.estimate(q, k) - actual) / actual)
        assert float(np.mean(errors)) < 0.5

    def test_bad_on_clustered_data(self, osm_quadtree):
        """The model's failure mode is the point: it cannot see
        non-uniformity.  At small k the local density of a clustered
        dataset is far above the global average, so the model's errors
        blow up there."""
        model = UniformModelEstimator(IndexSnapshot.from_index(osm_quadtree))
        pts = osm_quadtree.all_points()
        rng = np.random.default_rng(2)
        errors = []
        for __ in range(25):
            i = int(rng.integers(0, pts.shape[0]))
            q = Point(float(pts[i, 0]), float(pts[i, 1]))
            k = int(rng.integers(1, 16))
            actual = select_cost(osm_quadtree, q, k)
            errors.append(abs(model.estimate(q, k) - actual) / actual)
        assert float(np.mean(errors)) > 0.5
