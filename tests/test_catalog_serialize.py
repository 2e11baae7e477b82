"""Tests for catalog serialization and storage accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import (
    IntervalCatalog,
    catalog_from_bytes,
    catalog_from_json,
    catalog_storage_bytes,
    catalog_to_bytes,
    catalog_to_json,
)
from repro.catalog.serialize import BYTES_PER_ENTRY


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


class TestBinaryCodec:
    @given(catalogs())
    def test_round_trip(self, cat):
        assert catalog_from_bytes(catalog_to_bytes(cat)) == cat

    @given(catalogs())
    def test_storage_accounting_matches_payload(self, cat):
        assert len(catalog_to_bytes(cat)) == catalog_storage_bytes(cat)

    def test_bytes_per_entry(self):
        # One uint32 k_end + one float32 cost.
        assert BYTES_PER_ENTRY == 8

    def test_rejects_truncated_header(self):
        with pytest.raises(ValueError):
            catalog_from_bytes(b"\x01")

    def test_rejects_truncated_payload(self):
        data = catalog_to_bytes(IntervalCatalog.constant(1.0, 10))
        with pytest.raises(ValueError):
            catalog_from_bytes(data[:-1])

    def test_rejects_trailing_garbage(self):
        data = catalog_to_bytes(IntervalCatalog.constant(1.0, 10))
        with pytest.raises(ValueError):
            catalog_from_bytes(data + b"\x00")


class TestJsonCodec:
    @given(catalogs())
    def test_round_trip(self, cat):
        assert catalog_from_json(catalog_to_json(cat)) == cat

    def test_rejects_invalid_json(self):
        with pytest.raises(ValueError):
            catalog_from_json("not json{")

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            catalog_from_json('{"something": []}')

    def test_rejects_non_contiguous_entries(self):
        with pytest.raises(ValueError):
            catalog_from_json('{"entries": [[1, 5, 2.0], [7, 9, 3.0]]}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"entries": [[1, 2, NaN]]}',
            '{"entries": [[1, 2, Infinity]]}',
            '{"entries": [[1, 2, -3.0]]}',
            '{"entries": 5}',
            '{"entries": [7]}',
            '{"entries": [[1, "2", 3.0]]}',
            '{"entries": [[1, 2, null]]}',
            '{"entries": [[1, 1e30, 3.0]]}',
        ],
    )
    def test_malformed_entries_raise_value_error(self, text):
        with pytest.raises(ValueError):
            catalog_from_json(text)
