"""IndexSnapshot contract tests: gathering, immutability, pickling, and
the StatisticsManager's generation-keyed snapshot cache."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.datasets import generate_osm_like
from repro.engine.stats import StatisticsManager
from repro.geometry import Point, Rect
from repro.index import (
    BlockLocator,
    IndexSnapshot,
    MutableQuadtree,
    Quadtree,
    as_snapshot,
    partition_bounds,
)
from repro.resilience.errors import StaleCatalogError
from tests.reference_builds import leaf_id_for_point


@pytest.fixture(scope="module")
def index() -> Quadtree:
    return Quadtree(generate_osm_like(4_000, seed=7), capacity=64)


@pytest.fixture(scope="module")
def snapshot(index: Quadtree) -> IndexSnapshot:
    return IndexSnapshot.from_index(index)


# ----------------------------------------------------------------------
# Gathering
# ----------------------------------------------------------------------
class TestFromIndex:
    def test_columns_match_the_per_block_walk(self, index, snapshot):
        blocks = index.blocks
        assert snapshot.n_blocks == len(blocks)
        for row, block in zip(range(snapshot.n_blocks), blocks):
            assert snapshot.rects[row].tolist() == list(block.rect.as_tuple())
            assert snapshot.counts[row] == block.count
            assert snapshot.block_ids[row] == block.block_id
            center = block.rect.center
            assert snapshot.centers[row].tolist() == [center.x, center.y]

    def test_derived_columns(self, snapshot):
        widths = snapshot.rects[:, 2] - snapshot.rects[:, 0]
        heights = snapshot.rects[:, 3] - snapshot.rects[:, 1]
        assert np.array_equal(snapshot.areas, widths * heights)
        assert np.array_equal(snapshot.diagonals, np.hypot(widths, heights))

    def test_metadata(self, index, snapshot):
        assert snapshot.source == type(index).__name__
        assert snapshot.data_generation == 0
        assert snapshot.capacity == index.capacity
        assert snapshot.bounds == index.bounds.as_tuple()
        assert snapshot.total_count == index.num_points
        assert len(snapshot) == snapshot.n_blocks

    def test_storage_is_summary_sized(self, snapshot):
        # 4 + 1 + 2 float/int64 columns per block: the snapshot must stay
        # O(n_blocks), nowhere near the point data it summarizes.
        assert snapshot.storage_bytes() == snapshot.n_blocks * (4 + 1 + 2 + 1) * 8


class TestValidation:
    def test_column_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            IndexSnapshot.from_arrays(np.zeros((3, 4)), np.zeros(2, dtype=np.int64))

    def test_non_finite_rects(self):
        rects = np.array([[0.0, 0.0, np.nan, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            IndexSnapshot.from_arrays(rects, [1])

    def test_inverted_bounds(self):
        with pytest.raises(ValueError, match="inverted"):
            IndexSnapshot.from_arrays(np.array([[1.0, 0.0, 0.0, 1.0]]), [1])

    def test_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            IndexSnapshot.from_arrays(np.array([[0.0, 0.0, 1.0, 1.0]]), [-1])


# ----------------------------------------------------------------------
# Immutability and pickling
# ----------------------------------------------------------------------
_ARRAY_FIELDS = ("rects", "counts", "centers", "block_ids", "areas", "diagonals")


class TestImmutability:
    def test_arrays_are_read_only(self, snapshot):
        for name in _ARRAY_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(snapshot, name)[0] = 0

    def test_dataclass_is_frozen(self, snapshot):
        with pytest.raises(AttributeError):
            snapshot.data_generation = 99

    def test_source_arrays_are_copied_not_aliased(self):
        rects = np.array([[0.0, 0.0, 1.0, 1.0]])
        counts = np.array([5], dtype=np.int64)
        snap = IndexSnapshot.from_arrays(rects, counts)
        rects[0, 2] = 99.0
        counts[0] = 99
        assert snap.rects[0, 2] == 1.0
        assert snap.counts[0] == 5


class TestPickle:
    def test_round_trip_preserves_everything(self, snapshot):
        clone = pickle.loads(pickle.dumps(snapshot))
        for name in _ARRAY_FIELDS:
            assert np.array_equal(getattr(clone, name), getattr(snapshot, name))
        assert clone.data_generation == snapshot.data_generation
        assert clone.source == snapshot.source
        assert clone.bounds == snapshot.bounds
        assert clone.capacity == snapshot.capacity

    def test_round_trip_restores_read_only_flags(self, snapshot):
        # ndarray pickling drops writeable=False; __setstate__ must put
        # it back so worker processes cannot corrupt their copies.
        clone = pickle.loads(pickle.dumps(snapshot))
        for name in _ARRAY_FIELDS:
            assert not getattr(clone, name).flags.writeable


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
class TestAsSnapshot:
    def test_snapshot_passes_through_identically(self, snapshot):
        assert as_snapshot(snapshot) is snapshot

    def test_raw_index_is_gathered(self, index, snapshot):
        gathered = as_snapshot(index)
        assert np.array_equal(gathered.rects, snapshot.rects)
        assert np.array_equal(gathered.counts, snapshot.counts)

    def test_rejects_summary_free_objects(self):
        with pytest.raises(TypeError, match="IndexSnapshot"):
            as_snapshot(object())

    def test_a_static_index_hands_back_one_snapshot(self, index):
        first = as_snapshot(index)
        assert as_snapshot(index) is first
        assert first.block_runs is as_snapshot(index).block_runs

    def test_a_mutable_index_gathers_again_after_a_mutation(self):
        tree = MutableQuadtree(
            generate_osm_like(600, seed=3), bounds=Rect(0.0, 0.0, 1000.0, 1000.0), capacity=8
        )
        before = as_snapshot(tree)
        assert as_snapshot(tree) is before
        tree.insert(500.0, 500.0)
        after = as_snapshot(tree)
        assert after is not before and as_snapshot(tree) is after
        fresh = IndexSnapshot.from_index(tree)
        assert after.data_generation == fresh.data_generation == tree.data_generation
        for column in ("rects", "counts", "centers", "block_ids", "areas", "diagonals"):
            assert np.array_equal(getattr(after, column), getattr(fresh, column))
        assert (after.source, after.bounds, after.capacity) == (
            fresh.source, fresh.bounds, fresh.capacity,
        )


# ----------------------------------------------------------------------
# Partition lookups (the identity-free leaf mapping)
# ----------------------------------------------------------------------
class TestPartitionLookup:
    def test_partition_rows_follow_leaf_order(self, index):
        rects = partition_bounds(index)
        leaves = index.leaves
        assert rects.shape == (len(leaves), 4)
        for row, leaf in zip(rects, leaves):
            assert row.tolist() == list(leaf.rect.as_tuple())

    def test_lookup_agrees_with_index_descent(self, index):
        rects = partition_bounds(index)
        leaves = index.leaves
        rng = np.random.default_rng(11)
        bounds = index.bounds
        xs = rng.uniform(bounds.x_min, bounds.x_max, 200)
        ys = rng.uniform(bounds.y_min, bounds.y_max, 200)
        locator = BlockLocator(rects, bounds.as_tuple())
        for x, y in zip(xs.tolist(), ys.tolist()):
            leaf_id = locator.home_of(x, y)
            assert leaf_id == leaf_id_for_point(rects, x, y, bounds)
            assert leaves[leaf_id] is index.leaf_for(Point(x, y))

    def test_shared_edges_resolve_like_the_descent(self, index):
        # Interior leaf edges are the ambiguous coordinates; the lookup
        # must pick the same side the quadtree's strict-< descent picks.
        rects = partition_bounds(index)
        leaves = index.leaves
        bounds = index.bounds
        locator = BlockLocator(rects, bounds.as_tuple())
        for row in rects[:32]:
            for x, y in [(row[0], row[1]), (row[2], row[3]), (row[0], row[3])]:
                if not (bounds.x_min <= x <= bounds.x_max and bounds.y_min <= y <= bounds.y_max):
                    continue
                leaf_id = locator.home_of(float(x), float(y))
                assert leaf_id == leaf_id_for_point(rects, float(x), float(y), bounds)
                assert leaves[leaf_id] is index.leaf_for(Point(float(x), float(y)))

    def test_outside_the_universe_raises(self, index):
        rects = partition_bounds(index)
        assert BlockLocator(rects, index.bounds.as_tuple()).home_of(1e9, 1e9) == -1
        with pytest.raises(ValueError, match="no partition leaf"):
            leaf_id_for_point(rects, 1e9, 1e9, index.bounds)


# ----------------------------------------------------------------------
# StatisticsManager snapshot cache
# ----------------------------------------------------------------------
class _TableStub:
    """Just enough of SpatialTable for the manager's snapshot cache."""

    def __init__(self, name: str, index) -> None:
        self.name = name
        self.index = index


def _mutable_table(policy: str) -> tuple[StatisticsManager, MutableQuadtree]:
    rng = np.random.default_rng(3)
    pts = rng.uniform(5.0, 95.0, (300, 2))
    tree = MutableQuadtree(pts, bounds=Rect(0, 0, 100, 100), capacity=32)
    stats = StatisticsManager(max_k=64, staleness_policy=policy)
    stats.register(_TableStub("t", tree))
    return stats, tree


class TestManagerSnapshotCache:
    def test_cache_hit_returns_the_same_object(self):
        stats, _ = _mutable_table("rebuild")
        assert stats.snapshot("t") is stats.snapshot("t")

    def test_register_drops_the_cached_snapshot(self):
        stats, tree = _mutable_table("rebuild")
        first = stats.snapshot("t")
        stats.register(_TableStub("t", tree))
        assert stats.snapshot("t") is not first

    def test_mutation_invalidates_under_rebuild(self):
        stats, tree = _mutable_table("rebuild")
        stale = stats.snapshot("t")
        tree.insert(50.0, 50.0)
        fresh = stats.snapshot("t")
        assert fresh is not stale
        assert fresh.data_generation == tree.data_generation
        assert fresh.total_count == stale.total_count + 1
        # And the rebuilt snapshot is itself cached.
        assert stats.snapshot("t") is fresh

    def test_mutation_raises_under_raise_policy(self):
        stats, tree = _mutable_table("raise")
        stats.snapshot("t")
        tree.insert(50.0, 50.0)
        with pytest.raises(StaleCatalogError, match="generation"):
            stats.snapshot("t")

    def test_on_stale_override_rebuilds_under_raise_policy(self):
        # The catalog-free fallback tiers re-gather instead of failing,
        # whatever the global policy says.
        stats, tree = _mutable_table("raise")
        stats.snapshot("t")
        tree.insert(50.0, 50.0)
        fresh = stats.snapshot("t", on_stale="rebuild")
        assert fresh.data_generation == tree.data_generation
        # The rebuild repaired the cache: the strict path works again.
        assert stats.snapshot("t") is fresh
