"""Tests for the engine's spatial tables."""

import numpy as np
import pytest

from repro.engine import KnnSelectQuery, SpatialEngine, SpatialTable, StatisticsManager
from repro.geometry import Point, Rect
from repro.index import Quadtree
from tests.reference_builds import partition_row_ids, staircase_store


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


class TestOnePointsView:
    """A table's blocks are flattened once: the planner's Staircase
    estimator and the executor read the index's one view."""

    def test_the_estimator_and_the_executor_read_one_view(self):
        rng = np.random.default_rng(5)
        table = SpatialTable("t", rng.uniform(0, 100, size=(3_000, 2)), capacity=32)
        stats = StatisticsManager(max_k=64)
        stats.register(table)
        SpatialEngine(stats).execute(KnnSelectQuery("t", Point(40.0, 60.0), 8))
        estimator = stats.select_estimator("t")
        view, __ = table.block_points
        assert view is table.index.points_view
        assert estimator._points_view() is view
        assert estimator.to_store().to_bytes() == staircase_store(table.index, 64).to_bytes()


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


def assert_row_ids_are_the_second_partition(points, tree, row_ids_for):
    """Each block's recorded rows equal the rows a second run of the
    partition over ``(x, y, row)`` finds, and index its points."""
    want = partition_row_ids(points, tree)
    assert len(want) == len(tree.blocks)
    for block, rows in zip(tree.blocks, want):
        got = row_ids_for(block.block_id)
        assert got.dtype == np.int64 and np.array_equal(got, rows)
        assert np.array_equal(points[got], block.points)


class TestRowIdsFromTheBuild:
    """The quadtree records each block's rows as it partitions; the second
    partition that used to recover them is the oracle."""

    @pytest.mark.parametrize(
        "points, capacity",
        [
            (np.random.default_rng(0).uniform(0, 100, size=(2_000, 2)), 64),
            (np.random.default_rng(1).integers(0, 9, size=(300, 2)).astype(float), 1),
            # Duplicates no split can separate: leaves stop at max_depth.
            (np.array([[1.0, 1.0]] * 10 + [[2.0, 2.0]] * 7 + [[1.0, 2.0]]), 2),
            # Points on the split lines of a [0, 8] universe's quadrants.
            (np.array([[x, y] for x in range(9) for y in range(9)], dtype=float), 3),
        ],
        ids=["uniform", "capacity-1", "duplicates-past-max-depth", "split-lines"],
    )
    def test_table_rows_equal_the_old_recursion(self, points, capacity):
        table = SpatialTable("t", points, capacity=capacity)
        assert_row_ids_are_the_second_partition(points, table.index, table.block_row_ids)

    def test_a_shallow_tree_with_duplicates(self):
        points = np.array([[0.0, 0.0]] * 6 + [[4.0, 4.0]] * 5 + [[0.0, 4.0], [4.0, 0.0]])
        tree = Quadtree(points, bounds=Rect(0, 0, 4, 4), capacity=1, max_depth=2)
        assert any(b.count > 1 for b in tree.blocks)
        assert_row_ids_are_the_second_partition(points, tree, tree.row_ids_for)

    def test_an_empty_table(self):
        table = SpatialTable("empty", np.empty((0, 2)))
        assert table.index.blocks == [] and partition_row_ids(table.points, table.index) == []
        view, row_ids = table.block_points
        assert row_ids.dtype == np.int64 and row_ids.shape == (0,)
