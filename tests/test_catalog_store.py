"""Tests for the persistent catalog store and estimator round trip."""

import numpy as np
import pytest

from repro.catalog import CatalogStore, IntervalCatalog
from repro.estimators import StaircaseEstimator
from repro.geometry import Point
from repro.index import Quadtree


@pytest.fixture(scope="module")
def tree():
    from repro.datasets import generate_osm_like

    return Quadtree(generate_osm_like(3_000, seed=13), capacity=64)


class TestStoreBasics:
    def test_put_get(self):
        store = CatalogStore()
        cat = IntervalCatalog.constant(3.0, 10)
        store.put("a", cat)
        assert store.get("a") == cat
        assert "a" in store
        assert len(store) == 1

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            CatalogStore().put("", IntervalCatalog.constant(1.0, 5))

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            CatalogStore().get("absent")

    def test_metadata_preserved(self):
        store = CatalogStore({"max_k": "512"})
        assert store.metadata["max_k"] == "512"


class TestCodec:
    def test_round_trip_bytes(self):
        store = CatalogStore({"variant": "center", "note": "unicode ✓"})
        store.put("center/0", IntervalCatalog([(1, 5, 2.0), (6, 12, 4.0)]))
        store.put("center/1", IntervalCatalog.constant(7.0, 12))
        loaded = CatalogStore.from_bytes(store.to_bytes())
        assert loaded.metadata == store.metadata
        assert list(loaded.keys()) == ["center/0", "center/1"]
        assert loaded.get("center/0") == store.get("center/0")
        assert loaded.get("center/1") == store.get("center/1")

    def test_round_trip_file(self, tmp_path):
        store = CatalogStore({"k": "v"})
        store.put("x", IntervalCatalog.constant(1.0, 3))
        path = tmp_path / "catalogs" / "store.bin"
        store.save(path)
        loaded = CatalogStore.load(path)
        assert loaded.get("x") == store.get("x")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CatalogStore.load(tmp_path / "absent.bin")

    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError):
            CatalogStore.from_bytes(b"XXXX" + b"\x00" * 12)

    def test_rejects_truncation(self):
        data = CatalogStore({"a": "b"}).to_bytes()
        with pytest.raises(ValueError):
            CatalogStore.from_bytes(data[:-1])

    def test_rejects_trailing_garbage(self):
        data = CatalogStore().to_bytes()
        with pytest.raises(ValueError):
            CatalogStore.from_bytes(data + b"!")

    def test_storage_bytes_matches_serialization(self):
        store = CatalogStore()
        store.put("x", IntervalCatalog.constant(1.0, 3))
        assert store.storage_bytes() == len(store.to_bytes())


class TestJoinEstimatorRoundTrips:
    def test_catalog_merge_round_trip(self, tree, tmp_path):
        from repro.estimators import CatalogMergeEstimator
        from repro.index import IndexSnapshot, Quadtree

        inner = Quadtree(
            np.random.default_rng(7).uniform(0, 1000, (3_000, 2)), capacity=64
        )
        original = CatalogMergeEstimator(
            tree, IndexSnapshot.from_index(inner), sample_size=25, max_k=128
        )
        path = tmp_path / "pair.bin"
        original.to_store().save(path)
        reloaded = CatalogMergeEstimator.from_store(CatalogStore.load(path))
        for k in (1, 17, 64, 128):
            assert reloaded.estimate(k) == original.estimate(k)
        assert reloaded.preprocessing_seconds == 0.0
        assert reloaded.sample_size == original.sample_size

    def test_catalog_merge_rejects_wrong_store(self):
        from repro.estimators import CatalogMergeEstimator

        with pytest.raises(ValueError):
            CatalogMergeEstimator.from_store(CatalogStore({"technique": "other"}))

    def test_virtual_grid_round_trip(self, tree, tmp_path):
        from repro.datasets import WORLD_BOUNDS
        from repro.estimators import VirtualGridEstimator
        from repro.index import IndexSnapshot

        original = VirtualGridEstimator(
            IndexSnapshot.from_index(tree), bounds=WORLD_BOUNDS, grid_size=4, max_k=64
        )
        path = tmp_path / "grid.bin"
        original.to_store().save(path)
        reloaded = VirtualGridEstimator.from_store(CatalogStore.load(path))
        assert reloaded.grid_size == 4
        outer = IndexSnapshot.from_index(tree)
        for k in (1, 16, 64):
            assert reloaded.estimate(outer, k) == original.estimate(outer, k)
        assert reloaded.storage_bytes() == original.storage_bytes()

    def test_virtual_grid_rejects_wrong_store(self):
        from repro.estimators import VirtualGridEstimator

        with pytest.raises(ValueError):
            VirtualGridEstimator.from_store(CatalogStore({"technique": "staircase"}))


class TestStaircaseRoundTrip:
    def test_estimates_identical_after_reload(self, tree, tmp_path):
        original = StaircaseEstimator(tree, max_k=128)
        path = tmp_path / "staircase.bin"
        original.to_store().save(path)

        reloaded = StaircaseEstimator.from_store(tree, CatalogStore.load(path))
        assert reloaded.preprocessing_seconds == 0.0
        rng = np.random.default_rng(0)
        pts = tree.all_points()
        for __ in range(25):
            i = int(rng.integers(0, pts.shape[0]))
            q = Point(float(pts[i, 0]), float(pts[i, 1]))
            k = int(rng.integers(1, 128))
            assert reloaded.estimate(q, k) == original.estimate(q, k)

    def test_center_only_round_trip(self, tree):
        original = StaircaseEstimator(tree, max_k=64, variant="center")
        reloaded = StaircaseEstimator.from_store(tree, original.to_store())
        q = Point(500, 500)
        assert reloaded.estimate(q, 32) == original.estimate(q, 32)
        with pytest.raises(ValueError):
            reloaded.estimate(q, 32, variant="center+corners")

    def test_rejects_wrong_store(self, tree):
        with pytest.raises(ValueError):
            StaircaseEstimator.from_store(tree, CatalogStore({"technique": "other"}))

    def test_rejects_mismatched_index(self, tree):
        store = StaircaseEstimator(tree, max_k=32).to_store()
        other = Quadtree(np.random.default_rng(1).uniform(0, 10, (200, 2)), capacity=8)
        with pytest.raises(ValueError):
            StaircaseEstimator.from_store(other, store)
