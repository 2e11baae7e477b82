"""Catalog integrity (checksums, versioning) and staleness detection."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import IntervalCatalog, catalog_from_bytes, catalog_to_bytes
from repro.catalog.serialize import BYTES_PER_ENTRY, CODEC_VERSION, HEADER_BYTES
from repro.catalog.store import CatalogStore
from repro.engine.stats import StatisticsManager
from repro.engine.table import SpatialTable
from repro.estimators import StaircaseEstimator
from repro.geometry import Point, Rect
from repro.index.mutable_quadtree import MutableQuadtree
from repro.resilience.errors import CatalogCorruptError, StaleCatalogError


@st.composite
def catalogs(draw):
    n = draw(st.integers(1, 8))
    widths = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
    costs = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n))
    entries = []
    k = 1
    for width, cost in zip(widths, costs):
        entries.append((k, k + width - 1, float(cost)))
        k += width
    return IntervalCatalog(entries)


class TestCodecFuzz:
    @given(catalogs())
    def test_round_trip(self, cat):
        assert catalog_from_bytes(catalog_to_bytes(cat)) == cat

    @given(catalogs(), st.data())
    @settings(max_examples=200)
    def test_any_truncation_is_detected(self, cat, data):
        blob = catalog_to_bytes(cat)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(CatalogCorruptError):
            catalog_from_bytes(blob[:cut])

    @given(catalogs(), st.data())
    @settings(max_examples=200)
    def test_any_byte_flip_is_detected(self, cat, data):
        blob = bytearray(catalog_to_bytes(cat))
        index = data.draw(st.integers(0, len(blob) - 1))
        mask = data.draw(st.integers(1, 255))
        blob[index] ^= mask
        with pytest.raises(CatalogCorruptError):
            catalog_from_bytes(bytes(blob))

    @given(catalogs(), st.data())
    @settings(max_examples=200)
    def test_any_insertion_is_detected(self, cat, data):
        blob = catalog_to_bytes(cat)
        at = data.draw(st.integers(0, len(blob)))
        inserted = data.draw(st.binary(min_size=1, max_size=16))
        with pytest.raises(CatalogCorruptError):
            catalog_from_bytes(blob[:at] + inserted + blob[at:])

    def test_a_nan_cost_under_a_valid_checksum_is_corrupt(self):
        blob = bytearray(catalog_to_bytes(IntervalCatalog.constant(2.0, 10)))
        struct.pack_into("<f", blob, HEADER_BYTES + 4, float("nan"))
        struct.pack_into("<I", blob, 1, zlib.crc32(bytes(blob[5:])))
        with pytest.raises(CatalogCorruptError, match="costs"):
            catalog_from_bytes(bytes(blob))

    @given(catalogs(), st.binary(min_size=1, max_size=16))
    def test_trailing_garbage_is_detected(self, cat, garbage):
        with pytest.raises(CatalogCorruptError):
            catalog_from_bytes(catalog_to_bytes(cat) + garbage)

    @given(st.binary(max_size=128))
    def test_arbitrary_garbage_never_parses_silently(self, garbage):
        # Random blobs must never deserialize into a plausible catalog;
        # version byte + CRC32 make a silent pass astronomically unlikely.
        try:
            catalog_from_bytes(garbage)
        except CatalogCorruptError:
            return
        # Only an exact, valid serialization may parse.
        assert garbage == catalog_to_bytes(catalog_from_bytes(garbage))

    def test_entry_count_tampering_with_recomputed_checksum(self):
        blob = catalog_to_bytes(IntervalCatalog.constant(2.0, 10))
        # Claim one more entry than is present and re-checksum so the
        # CRC itself passes: the size check must still reject it.
        n_entries = struct.unpack_from("<I", blob, 5)[0]
        tampered = bytearray(blob)
        struct.pack_into("<I", tampered, 5, n_entries + 1)
        payload = bytes(tampered[5:])
        struct.pack_into("<I", tampered, 1, zlib.crc32(payload) & 0xFFFFFFFF)
        with pytest.raises(CatalogCorruptError, match="size mismatch"):
            catalog_from_bytes(bytes(tampered))

    def test_checksum_flip_is_detected(self):
        blob = bytearray(catalog_to_bytes(IntervalCatalog.constant(2.0, 10)))
        blob[1] ^= 0xFF  # first checksum byte
        with pytest.raises(CatalogCorruptError, match="checksum"):
            catalog_from_bytes(bytes(blob))

    def test_old_version_rejected(self):
        blob = bytearray(catalog_to_bytes(IntervalCatalog.constant(2.0, 10)))
        blob[0] = CODEC_VERSION - 1
        with pytest.raises(CatalogCorruptError, match="version"):
            catalog_from_bytes(bytes(blob))

    def test_header_accounting(self):
        blob = catalog_to_bytes(IntervalCatalog.constant(2.0, 10))
        assert len(blob) == HEADER_BYTES + 1 * BYTES_PER_ENTRY


class TestStoreIntegrity:
    def _store(self) -> CatalogStore:
        store = CatalogStore({"technique": "test"})
        store.put("a", IntervalCatalog.constant(1.0, 5))
        return store

    def test_round_trip(self):
        data = self._store().to_bytes()
        loaded = CatalogStore.from_bytes(data)
        assert loaded.metadata == {"technique": "test"}
        assert loaded.get("a") == IntervalCatalog.constant(1.0, 5)

    def test_bad_magic(self):
        data = bytearray(self._store().to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(CatalogCorruptError):
            CatalogStore.from_bytes(bytes(data))

    def test_truncation(self):
        data = self._store().to_bytes()
        for cut in (3, 10, len(data) - 1):
            with pytest.raises(CatalogCorruptError):
                CatalogStore.from_bytes(data[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(CatalogCorruptError):
            CatalogStore.from_bytes(self._store().to_bytes() + b"\x00")

    def test_embedded_catalog_corruption_surfaces(self):
        data = bytearray(self._store().to_bytes())
        data[-1] ^= 0x55  # inside the embedded catalog blob
        with pytest.raises(CatalogCorruptError):
            CatalogStore.from_bytes(bytes(data))

    def test_an_older_store_is_refused(self):
        # Version 2 carried no store checksum: its metadata and keys
        # could change unnoticed.
        body = self._store().to_bytes()[12:]
        with pytest.raises(CatalogCorruptError, match="version 2"):
            CatalogStore.from_bytes(b"RPCS" + struct.pack("<I", 2) + body)

    def test_a_flipped_max_k_is_refused(self, osm_quadtree):
        data = StaircaseEstimator(osm_quadtree, max_k=256).to_store().to_bytes()
        at = data.index(b"max_k\x03\x00\x00\x00256") + 9  # the value's bytes
        flipped = data[:at] + b"216" + data[at + 3 :]  # one bit: "5" -> "1"
        with pytest.raises(CatalogCorruptError, match="checksum"):
            CatalogStore.from_bytes(flipped)


def _stores():
    keys = st.text(min_size=1, max_size=6)
    return st.builds(
        _store_of,
        st.dictionaries(keys, st.text(max_size=6), max_size=3),
        st.lists(st.tuples(keys, catalogs()), min_size=1, max_size=3),
    )


def _store_of(metadata, named) -> bytes:
    store = CatalogStore(metadata)
    for key, catalog in named:
        store.put(key, catalog)
    return store.to_bytes()


class TestStoreFuzz:
    """Every flip, truncation or insertion of a store's bytes raises
    ``CatalogCorruptError`` — never another exception, never a load."""

    @given(_stores(), st.data())
    @settings(max_examples=200)
    def test_any_byte_flip_is_detected(self, data_bytes, data):
        blob = bytearray(data_bytes)
        index = data.draw(st.integers(0, len(blob) - 1))
        blob[index] ^= data.draw(st.integers(1, 255))
        with pytest.raises(CatalogCorruptError):
            CatalogStore.from_bytes(bytes(blob))

    @given(_stores(), st.data())
    @settings(max_examples=200)
    def test_any_truncation_is_detected(self, data_bytes, data):
        cut = data.draw(st.integers(0, len(data_bytes) - 1))
        with pytest.raises(CatalogCorruptError):
            CatalogStore.from_bytes(data_bytes[:cut])

    @given(_stores(), st.data())
    @settings(max_examples=200)
    def test_any_insertion_is_detected(self, data_bytes, data):
        at = data.draw(st.integers(0, len(data_bytes)))
        inserted = data.draw(st.binary(min_size=1, max_size=16))
        with pytest.raises(CatalogCorruptError):
            CatalogStore.from_bytes(data_bytes[:at] + inserted + data_bytes[at:])


@pytest.fixture()
def mutable_index() -> MutableQuadtree:
    rng = np.random.default_rng(7)
    points = rng.uniform(-5.0, 5.0, size=(400, 2))
    return MutableQuadtree(points, bounds=Rect(-10, -10, 10, 10), capacity=32)


class TestStaleness:
    def test_generation_is_monotone(self, mutable_index):
        g0 = mutable_index.data_generation
        mutable_index.insert(0.5, 0.5)
        g1 = mutable_index.data_generation
        assert g1 > g0
        mutable_index.clear_dirty()  # generation must NOT reset
        assert mutable_index.data_generation == g1
        mutable_index.delete(0.5, 0.5)
        assert mutable_index.data_generation > g1

    def test_estimator_detects_mutation(self, mutable_index):
        estimator = StaircaseEstimator(mutable_index, aux_index=mutable_index, max_k=64)
        assert not estimator.is_stale
        estimator.estimate(Point(0.5, 0.5), 8)  # fresh: answers fine
        mutable_index.insert(0.25, 0.25)
        assert estimator.is_stale
        with pytest.raises(StaleCatalogError):
            estimator.estimate(Point(0.5, 0.5), 8)

    def test_from_store_rejects_stale_catalogs(self, mutable_index):
        estimator = StaircaseEstimator(mutable_index, aux_index=mutable_index, max_k=64)
        store = estimator.to_store()
        mutable_index.insert(0.25, 0.25)
        with pytest.raises(StaleCatalogError):
            StaircaseEstimator.from_store(mutable_index, store)

    def test_store_round_trip_when_fresh(self, mutable_index):
        estimator = StaircaseEstimator(mutable_index, aux_index=mutable_index, max_k=64)
        store = CatalogStore.from_bytes(estimator.to_store().to_bytes())
        loaded = StaircaseEstimator.from_store(
            mutable_index, store, aux_index=mutable_index
        )
        q = Point(0.5, 0.5)
        assert loaded.estimate(q, 8) == estimator.estimate(q, 8)

    def test_immutable_indexes_never_go_stale(self, osm_quadtree):
        estimator = StaircaseEstimator(osm_quadtree, max_k=64)
        assert not estimator.is_stale


class TestManagerStalenessPolicy:
    def test_corrupt_catalog_file_is_skipped_not_trusted(self, tmp_path, osm_points):
        stats = StatisticsManager(max_k=64)
        stats.register(SpatialTable("pts", osm_points[:300]))
        stats.select_estimator("pts")
        assert stats.save_select_catalogs(tmp_path) == ["pts"]
        path = tmp_path / "pts.staircase.bin"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        fresh = StatisticsManager(max_k=64)
        fresh.register(SpatialTable("pts", osm_points[:300]))
        assert fresh.load_select_catalogs(tmp_path) == []
