"""Tests for the Staircase k-NN-Select cost estimator."""

import numpy as np
import pytest

from repro.catalog import IntervalCatalog
from repro.estimators import StaircaseEstimator, build_select_catalog
from repro.geometry import Point
from repro.index import IndexSnapshot, Quadtree, RTree
from repro.knn import select_cost


@pytest.fixture(scope="module")
def tree():
    from repro.datasets import generate_osm_like

    return Quadtree(generate_osm_like(6_000, seed=5), capacity=64)


@pytest.fixture(scope="module")
def estimator(tree):
    return StaircaseEstimator(tree, max_k=256)


class TestConstruction:
    def test_rejects_bad_variant(self, tree):
        with pytest.raises(ValueError):
            StaircaseEstimator(tree, max_k=16, variant="corners")

    def test_rejects_bad_max_k(self, tree):
        with pytest.raises(ValueError):
            StaircaseEstimator(tree, max_k=0)

    def test_rtree_requires_aux_index(self):
        rtree = RTree(np.random.default_rng(0).uniform(0, 10, (100, 2)), capacity=16)
        with pytest.raises(ValueError):
            StaircaseEstimator(rtree)

    def test_rtree_with_quadtree_aux(self):
        """Section 3.3: a data-partitioning data index needs a separate
        space-partitioning auxiliary index; the catalogs then measure
        the R-tree blocks' scan costs anchored at quadtree regions."""
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 100, size=(3_000, 2))
        rtree = RTree(pts, capacity=64)
        aux = Quadtree(pts, capacity=64)
        est = StaircaseEstimator(rtree, aux_index=aux, max_k=64)
        q = Point(50, 50)
        actual = select_cost(rtree, q, 32)
        assert est.estimate(q, 32) == pytest.approx(actual, rel=1.0)

    def test_preprocessing_recorded(self, estimator):
        assert estimator.preprocessing_seconds > 0

    def test_catalog_count(self, tree, estimator):
        # Center + corners: two catalogs per auxiliary leaf.
        assert estimator.n_catalogs() == 2 * len(tree.leaves)

    def test_center_only_has_one_catalog_per_leaf(self, tree):
        est = StaircaseEstimator(tree, max_k=16, variant="center")
        assert est.n_catalogs() == len(tree.leaves)


class TestEstimation:
    def test_exact_at_block_center(self, tree, estimator):
        """At a leaf center the interpolation term vanishes (L = 0), so
        the estimate equals the center catalog, which is exact."""
        rng = np.random.default_rng(2)
        leaves = [leaf for leaf in tree.leaves if leaf.block is not None]
        for i in rng.integers(0, len(leaves), size=10):
            center = leaves[i].rect.center
            k = int(rng.integers(1, 256))
            assert estimator.estimate(center, k) == select_cost(tree, center, k)

    def test_center_only_equals_center_catalog_everywhere_in_leaf(
        self, tree, estimator
    ):
        leaf = next(leaf for leaf in tree.leaves if leaf.block is not None)
        r = leaf.rect
        inner = Point(
            r.x_min + 0.25 * r.width, r.y_min + 0.75 * r.height
        )
        assert estimator.estimate(inner, 10, variant="center") == estimator.estimate(
            r.center, 10, variant="center"
        )

    def test_interpolation_between_center_and_corner(self, tree, estimator):
        leaf = next(leaf for leaf in tree.leaves if leaf.block is not None)
        r = leaf.rect
        k = 64
        c_center = estimator.estimate(r.center, k, variant="center")
        for corner in r.corners():
            # Just inside the corner, the estimate approaches the
            # corners-catalog value and never exceeds it.
            eps = 1e-9
            inside = Point(
                corner.x + (eps if corner.x == r.x_min else -eps) * r.width,
                corner.y + (eps if corner.y == r.y_min else -eps) * r.height,
            )
            est = estimator.estimate(inside, k)
            assert est >= c_center - 1e-9

    def test_monotone_along_ray_from_center(self, tree, estimator):
        leaf = next(leaf for leaf in tree.leaves if leaf.block is not None)
        r = leaf.rect
        k = 32
        values = []
        for t in (0.0, 0.25, 0.5, 0.75, 0.99):
            p = Point(
                r.center.x + t * (r.x_max - r.center.x),
                r.center.y + t * (r.y_max - r.center.y),
            )
            values.append(estimator.estimate(p, k))
        assert values == sorted(values)

    def test_center_variant_cannot_serve_corners(self, tree):
        est = StaircaseEstimator(tree, max_k=16, variant="center")
        with pytest.raises(ValueError):
            est.estimate(Point(500, 500), 8, variant="center+corners")

    def test_k_beyond_max_k_falls_back_to_density(self, tree, estimator):
        """Figure 5: queries with k above the catalog limit are served
        by the density-based estimator over the Count-Index."""
        from repro.estimators import DensityBasedEstimator

        q = Point(500, 500)
        fallback = DensityBasedEstimator(IndexSnapshot.from_index(tree))
        assert estimator.estimate(q, 10_000) == fallback.estimate(q, 10_000)

    def test_rejects_k_zero(self, estimator):
        with pytest.raises(ValueError):
            estimator.estimate(Point(0, 0), 0)

    def test_estimates_bounded_by_block_count(self, tree, estimator):
        rng = np.random.default_rng(3)
        for __ in range(20):
            q = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            k = int(rng.integers(1, 256))
            est = estimator.estimate(q, k)
            assert 0 <= est <= tree.num_blocks


class TestAccuracy:
    def test_beats_naive_constant_estimator(self, tree, estimator):
        rng = np.random.default_rng(4)
        pts = tree.all_points()
        actuals, estimates = [], []
        for __ in range(60):
            i = int(rng.integers(0, pts.shape[0]))
            q = Point(float(pts[i, 0]), float(pts[i, 1]))
            k = int(rng.integers(1, 256))
            actuals.append(select_cost(tree, q, k))
            estimates.append(estimator.estimate(q, k))
        actuals_arr = np.array(actuals, dtype=float)
        err = float(np.mean(np.abs(np.array(estimates) - actuals_arr) / actuals_arr))
        constant = float(np.mean(actuals_arr))
        err_const = float(np.mean(np.abs(constant - actuals_arr) / actuals_arr))
        assert err < err_const
        assert err < 0.6  # sanity ceiling at this tiny scale


class TestCatalogBuilding:
    def test_build_select_catalog_padded(self, tree):
        ci = IndexSnapshot.from_index(tree)
        cat = build_select_catalog(ci, tree.blocks, Point(500, 500), 10_000_000)
        assert cat.max_k == 10_000_000  # padded beyond the data size

    def test_build_select_catalog_empty_dataset(self):
        ci = IndexSnapshot.from_arrays(np.empty((0, 4)), np.empty(0, dtype=int))
        cat = build_select_catalog(ci, [], Point(0, 0), 100)
        assert isinstance(cat, IntervalCatalog)
        assert cat.lookup(50) == 0.0

    def test_catalog_matches_ground_truth_at_anchor(self, tree):
        ci = IndexSnapshot.from_index(tree)
        rng = np.random.default_rng(5)
        b = tree.bounds
        for __ in range(5):
            anchor = Point(
                float(rng.uniform(b.x_min, b.x_max)),
                float(rng.uniform(b.y_min, b.y_max)),
            )
            cat = build_select_catalog(ci, tree.blocks, anchor, 200)
            for k in (1, 7, 50, 200):
                assert cat.lookup(k) == select_cost(tree, anchor, k)


class TestFromStoreValidation:
    """A corrupted store must be rejected at load time with an error
    naming the bad field — not pass construction and explode later as a
    bare ``KeyError`` inside ``estimate``."""

    @pytest.fixture(scope="class")
    def small_tree(self):
        from repro.datasets import generate_osm_like

        return Quadtree(generate_osm_like(1_500, seed=9), capacity=64)

    @pytest.fixture(scope="class")
    def store(self, small_tree):
        return StaircaseEstimator(small_tree, max_k=32).to_store()

    @staticmethod
    def _reload(small_tree, store):
        from repro.catalog.store import CatalogStore

        clone = CatalogStore.from_bytes(store.to_bytes())
        return StaircaseEstimator.from_store(small_tree, clone)

    def test_round_trip_loads(self, small_tree, store):
        est = self._reload(small_tree, store)
        q = Point(500.0, 500.0)
        fresh = StaircaseEstimator(small_tree, max_k=32)
        assert est.estimate(q, 16) == fresh.estimate(q, 16)

    def test_unknown_variant_rejected(self, small_tree, store):
        from repro.catalog.store import CatalogStore
        from repro.resilience.errors import CatalogCorruptError

        bad = CatalogStore.from_bytes(store.to_bytes())
        bad.metadata["variant"] = "bogus"
        with pytest.raises(CatalogCorruptError, match="variant"):
            StaircaseEstimator.from_store(small_tree, bad)

    def test_non_integer_max_k_rejected(self, small_tree, store):
        from repro.catalog.store import CatalogStore
        from repro.resilience.errors import CatalogCorruptError

        bad = CatalogStore.from_bytes(store.to_bytes())
        bad.metadata["max_k"] = "banana"
        with pytest.raises(CatalogCorruptError, match="max_k"):
            StaircaseEstimator.from_store(small_tree, bad)

    def test_out_of_range_max_k_rejected(self, small_tree, store):
        from repro.catalog.store import CatalogStore
        from repro.resilience.errors import CatalogCorruptError

        bad = CatalogStore.from_bytes(store.to_bytes())
        bad.metadata["max_k"] = "0"
        with pytest.raises(CatalogCorruptError, match="max_k"):
            StaircaseEstimator.from_store(small_tree, bad)

    def test_missing_metadata_field_rejected(self, small_tree, store):
        from repro.catalog.store import CatalogStore
        from repro.resilience.errors import CatalogCorruptError

        bad = CatalogStore.from_bytes(store.to_bytes())
        del bad.metadata["n_leaves"]
        with pytest.raises(CatalogCorruptError, match="n_leaves"):
            StaircaseEstimator.from_store(small_tree, bad)

    def test_missing_catalog_entry_rejected(self, small_tree, store):
        from repro.catalog.store import CatalogStore
        from repro.resilience.errors import CatalogCorruptError

        bad = CatalogStore.from_bytes(store.to_bytes())
        del bad._catalogs["corners/0"]
        with pytest.raises(CatalogCorruptError, match="corners/0"):
            StaircaseEstimator.from_store(small_tree, bad)

    def test_corrupt_error_is_a_value_error(self):
        from repro.resilience.errors import CatalogCorruptError

        assert issubclass(CatalogCorruptError, ValueError)

    def test_non_integer_data_generation_rejected(self, small_tree, store):
        from repro.catalog.store import CatalogStore
        from repro.resilience.errors import CatalogCorruptError

        bad = CatalogStore.from_bytes(store.to_bytes())
        bad.metadata["data_generation"] = "later"
        with pytest.raises(CatalogCorruptError, match="data_generation"):
            StaircaseEstimator.from_store(small_tree, bad)
