"""Tests for the engine's spatial tables."""

import numpy as np
import pytest

from repro.engine import SpatialTable


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 100, size=(2_000, 2))
    return SpatialTable(
        "places",
        pts,
        {"price": rng.uniform(10, 110, 2_000), "stars": rng.integers(1, 6, 2_000)},
        capacity=64,
    )


class TestConstruction:
    def test_basic(self, table):
        assert table.name == "places"
        assert table.n_rows == 2_000
        assert set(table.columns) == {"price", "stars"}

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            SpatialTable("", np.zeros((1, 2)))

    def test_rejects_misaligned_column(self):
        with pytest.raises(ValueError):
            SpatialTable("t", np.zeros((3, 2)), {"a": np.zeros(4)})

    def test_empty_table(self):
        t = SpatialTable("empty", np.empty((0, 2)))
        assert t.n_rows == 0
        assert t.snapshot.n_blocks == 0 and t.snapshot.total_count == 0

    def test_unknown_column(self, table):
        with pytest.raises(KeyError):
            table.column_values("nope")


class TestRowMapping:
    def test_block_row_ids_cover_all_rows_once(self, table):
        seen = np.concatenate(
            [table.block_row_ids(b.block_id) for b in table.index.blocks]
        )
        assert np.array_equal(np.sort(seen), np.arange(table.n_rows))

    def test_block_row_ids_match_block_points(self, table):
        """The i-th row id of a block must be the i-th point of the block."""
        for block in table.index.blocks:
            row_ids = table.block_row_ids(block.block_id)
            assert np.allclose(table.points[row_ids], block.points)

    def test_rows_materialization(self, table):
        rows = table.rows(np.array([0, 5, 7]))
        assert set(rows) == {"x", "y", "price", "stars"}
        assert rows["x"].shape == (3,)
        assert rows["price"][0] == table.column_values("price")[0]

    def test_row_mapping_with_duplicates(self):
        """Duplicate locations must still map to distinct rows."""
        pts = np.array([[1.0, 1.0]] * 10 + [[2.0, 2.0]] * 10)
        t = SpatialTable("dups", pts, {"v": np.arange(20)}, capacity=4)
        seen = np.concatenate(
            [t.block_row_ids(b.block_id) for b in t.index.blocks]
        )
        assert np.array_equal(np.sort(seen), np.arange(20))
