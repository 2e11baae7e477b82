"""Tests for the generation-keyed LRU estimate cache.

Two layers: :class:`~repro.engine.cache.EstimateCache` in isolation
(keying, LRU movement, counters, invalidation), and its integration
under :class:`~repro.engine.stats.StatisticsManager` / the planner —
replay hits, scalar/batch hit-miss parity, and the load-bearing
invalidation property: a :class:`MutableQuadtree` data-generation bump
drops entries whose quantized cell a dirty region touched and carries
the rest to the new generation (log-driven revalidation), under *both*
staleness policies; without an update log the bump still orphans every
prior entry structurally.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate_osm_like
from repro.engine import (
    EstimateCache,
    KnnSelectQuery,
    SpatialTable,
    StatisticsManager,
)
from repro.engine.planner import explain_select_batch
from repro.geometry import Point, Rect

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


class TestEstimateCacheUnit:
    def test_rejects_bad_capacity_and_resolution(self):
        with pytest.raises(ValueError):
            EstimateCache(0)
        with pytest.raises(ValueError):
            EstimateCache(-5)
        with pytest.raises(ValueError):
            EstimateCache(8, cells=0)

    def test_key_quantizes_and_clamps(self):
        cache = EstimateCache(8, cells=10)
        # In-bounds points land in their cell; out-of-bounds clamp to
        # the edge cells instead of growing the key space.
        assert cache.key("t", 0, 5.0, 95.0, 3, BOUNDS) == ("t", 0, 0, 9, 3)
        assert cache.key("t", 0, -1e9, 1e9, 3, BOUNDS) == ("t", 0, 0, 9, 3)
        assert cache.key("t", 0, 100.0, 0.0, 3, BOUNDS) == ("t", 0, 9, 0, 3)

    def test_key_degenerate_bounds(self):
        cache = EstimateCache(8, cells=10)
        flat = Rect(5.0, 5.0, 5.0, 5.0)
        assert cache.key("t", 0, 123.0, -7.0, 1, flat) == ("t", 0, 0, 0, 1)

    def test_keys_for_matches_scalar_key_loop(self):
        cache = EstimateCache(8, cells=64)
        rng = np.random.default_rng(3)
        pts = np.column_stack(
            [rng.uniform(-20, 120, 200), rng.uniform(-20, 120, 200)]
        )
        ks = rng.integers(1, 50, 200)
        batched = cache.keys_for("t", 7, pts, ks, BOUNDS)
        scalar = [
            cache.key("t", 7, float(x), float(y), int(k), BOUNDS)
            for (x, y), k in zip(pts, ks)
        ]
        assert batched == scalar

    def test_keys_for_empty(self):
        cache = EstimateCache(8)
        assert cache.keys_for("t", 0, np.empty((0, 2)), np.empty(0), BOUNDS) == []

    def test_get_put_and_counters(self):
        cache = EstimateCache(4)
        key = cache.key("t", 0, 1.0, 1.0, 5, BOUNDS)
        assert cache.get(key) is None
        cache.put(key, 7.5)
        assert cache.get(key) == 7.5
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert len(cache) == 1
        cache.reset_counters()
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.hit_rate == 0.0

    def test_lru_eviction_order(self):
        cache = EstimateCache(2)
        a = cache.key("t", 0, 1.0, 1.0, 1, BOUNDS)
        b = cache.key("t", 0, 1.0, 1.0, 2, BOUNDS)
        c = cache.key("t", 0, 1.0, 1.0, 3, BOUNDS)
        cache.put(a, 1.0)
        cache.put(b, 2.0)
        assert cache.get(a) == 1.0  # refreshes a's recency
        cache.put(c, 3.0)  # evicts b, the least recently used
        assert cache.get(b) is None
        assert cache.get(a) == 1.0
        assert cache.get(c) == 3.0

    def test_generation_partitions_keys(self):
        cache = EstimateCache(8)
        cache.put(cache.key("t", 0, 1.0, 1.0, 5, BOUNDS), 7.5)
        assert cache.get(cache.key("t", 1, 1.0, 1.0, 5, BOUNDS)) is None

    def test_invalidate_one_table(self):
        cache = EstimateCache(8)
        cache.put(cache.key("a", 0, 1.0, 1.0, 1, BOUNDS), 1.0)
        cache.put(cache.key("a", 0, 1.0, 1.0, 2, BOUNDS), 2.0)
        cache.put(cache.key("b", 0, 1.0, 1.0, 1, BOUNDS), 3.0)
        cache.get(cache.key("a", 0, 1.0, 1.0, 1, BOUNDS))
        assert cache.invalidate("a") == 2
        assert len(cache) == 1
        # Counters survive invalidation: it is maintenance, not a reset.
        assert cache.hits == 1
        assert cache.get(cache.key("b", 0, 1.0, 1.0, 1, BOUNDS)) == 3.0

    def test_invalidate_all(self):
        cache = EstimateCache(8)
        cache.put(cache.key("a", 0, 1.0, 1.0, 1, BOUNDS), 1.0)
        cache.put(cache.key("b", 0, 1.0, 1.0, 1, BOUNDS), 2.0)
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_revalidate_carries_untouched_and_drops_touched(self):
        cache = EstimateCache(8, cells=10)
        touched = cache.key("t", 0, 5.0, 5.0, 1, BOUNDS)  # cell (0, 0)
        safe = cache.key("t", 0, 95.0, 95.0, 1, BOUNDS)  # cell (9, 9)
        other = cache.key("u", 0, 5.0, 5.0, 1, BOUNDS)  # other table
        cache.put(touched, 1.0)
        cache.put(safe, 2.0)
        cache.put(other, 3.0)
        carried, dropped = cache.revalidate(
            "t", 0, 5, [(0.0, 0.0, 12.0, 12.0)], BOUNDS
        )
        assert (carried, dropped) == (1, 1)
        assert cache.get(cache.key("t", 5, 95.0, 95.0, 1, BOUNDS)) == 2.0
        assert cache.get(cache.key("t", 5, 5.0, 5.0, 1, BOUNDS)) is None
        assert cache.get(cache.key("t", 0, 5.0, 5.0, 1, BOUNDS)) is None
        # Other tables are untouched at their original generation.
        assert cache.get(other) == 3.0

    def test_revalidate_same_generation_is_noop(self):
        cache = EstimateCache(8)
        key = cache.key("t", 3, 1.0, 1.0, 1, BOUNDS)
        cache.put(key, 1.0)
        assert cache.revalidate("t", 3, 3, [(0, 0, 100, 100)], BOUNDS) == (0, 0)
        assert cache.get(key) == 1.0

    def test_revalidate_collision_keeps_existing_key(self):
        cache = EstimateCache(8, cells=10)
        old = cache.key("t", 0, 95.0, 95.0, 1, BOUNDS)
        fresh = cache.key("t", 5, 95.0, 95.0, 1, BOUNDS)
        cache.put(fresh, 2.0)  # already recomputed at the new generation
        cache.put(old, 1.0)
        carried, dropped = cache.revalidate("t", 0, 5, [], BOUNDS)
        assert (carried, dropped) == (0, 1)
        assert cache.get(fresh) == 2.0  # the fresher value wins

    def test_revalidate_preserves_lru_order(self):
        cache = EstimateCache(2, cells=10)
        a = cache.key("t", 0, 15.0, 15.0, 1, BOUNDS)
        b = cache.key("t", 0, 95.0, 95.0, 1, BOUNDS)
        cache.put(a, 1.0)
        cache.put(b, 2.0)
        cache.get(a)  # a is now most recently used
        cache.revalidate("t", 0, 5, [], BOUNDS)
        cache.put(cache.key("t", 5, 55.0, 55.0, 1, BOUNDS), 3.0)  # evicts LRU
        assert cache.get(cache.key("t", 5, 95.0, 95.0, 1, BOUNDS)) is None
        assert cache.get(cache.key("t", 5, 15.0, 15.0, 1, BOUNDS)) == 1.0

    def test_describe_mentions_occupancy_and_rate(self):
        cache = EstimateCache(4)
        cache.put(cache.key("t", 0, 1.0, 1.0, 1, BOUNDS), 1.0)
        text = cache.describe()
        assert "1/4 entries" in text
        assert "hit rate" in text


@pytest.fixture(scope="module")
def osm_points():
    return generate_osm_like(3_000, seed=7)


@pytest.fixture(scope="module")
def queries(osm_points):
    rng = np.random.default_rng(11)
    qx = rng.uniform(osm_points[:, 0].min(), osm_points[:, 0].max(), size=150)
    qy = rng.uniform(osm_points[:, 1].min(), osm_points[:, 1].max(), size=150)
    ks = rng.integers(1, 80, size=150)  # some beyond max_k=64
    return [
        KnnSelectQuery("t", Point(float(x), float(y)), k=int(k))
        for x, y, k in zip(qx, qy, ks)
    ]


def _build_stats(osm_points, **kwargs) -> StatisticsManager:
    stats = StatisticsManager(max_k=64, **kwargs)
    stats.register(SpatialTable("t", osm_points, capacity=64))
    return stats


class TestStatisticsManagerIntegration:
    def test_cache_disabled_by_default(self, osm_points):
        assert _build_stats(osm_points).estimate_cache is None

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError):
            StatisticsManager(estimate_cache_size=-1)

    def test_replay_reports_hits(self, osm_points, queries):
        stats = _build_stats(osm_points, estimate_cache_size=4_096)
        first = explain_select_batch(stats, queries)
        second = explain_select_batch(stats, queries)
        assert stats.estimate_cache.hits >= len(queries)
        for ex1, ex2 in zip(first, second):
            assert ex1.alternatives == ex2.alternatives
            assert ex2.cache_hit is True
            assert ex2.estimator_tier == "estimate-cache"

    def test_scalar_replay_hits(self, osm_points, queries):
        stats = _build_stats(osm_points, estimate_cache_size=64)
        query = queries[0]
        (ex1,) = explain_select_batch(stats, [query])
        (ex2,) = explain_select_batch(stats, [query])
        assert ex1.cache_hit is False
        assert ex2.cache_hit is True
        assert ex2.estimator_tier == "estimate-cache"
        assert ex1.cost_of("incremental-knn") == ex2.cost_of("incremental-knn")
        assert "estimate cache" in str(ex2)

    def test_scalar_and_batch_paths_agree(self, osm_points, queries):
        scalar_stats = _build_stats(osm_points, estimate_cache_size=4_096)
        scalar = [explain_select_batch(scalar_stats, [q])[0] for q in queries]
        batch_stats = _build_stats(osm_points, estimate_cache_size=4_096)
        batch = explain_select_batch(batch_stats, queries)
        assert (scalar_stats.estimate_cache.hits, scalar_stats.estimate_cache.misses) == (
            batch_stats.estimate_cache.hits,
            batch_stats.estimate_cache.misses,
        )
        for i, (ex_s, ex_b) in enumerate(zip(scalar, batch)):
            assert ex_s.alternatives == ex_b.alternatives, i
            assert ex_s.cache_hit == ex_b.cache_hit, i
            assert ex_s.estimator_tier == ex_b.estimator_tier, i

    def test_reregistering_purges_table_entries(self, osm_points, queries):
        stats = _build_stats(osm_points, estimate_cache_size=4_096)
        explain_select_batch(stats, queries)
        assert len(stats.estimate_cache) > 0
        stats.register(SpatialTable("t", osm_points, capacity=64))
        assert len(stats.estimate_cache) == 0


class _MutableTableStub:
    """Duck-typed table over a MutableQuadtree.

    ``SpatialTable`` always builds its own immutable row-tagged index,
    so generation-bump tests register a stub exposing the attributes
    the statistics layer reads.
    """

    def __init__(self, name, index, points):
        self.name = name
        self.index = index
        self.points = points

    @property
    def n_rows(self):
        return int(self.points.shape[0])


@pytest.mark.parametrize("policy", ["rebuild", "raise"])
def test_generation_bump_invalidates(osm_points, policy):
    from repro.index.mutable_quadtree import MutableQuadtree

    bounds = Rect(
        float(osm_points[:, 0].min()) - 1.0,
        float(osm_points[:, 1].min()) - 1.0,
        float(osm_points[:, 0].max()) + 1.0,
        float(osm_points[:, 1].max()) + 1.0,
    )
    tree = MutableQuadtree(osm_points, bounds=bounds, capacity=64)
    stats = StatisticsManager(
        max_k=64, estimate_cache_size=4_096, staleness_policy=policy
    )
    stats.register(_MutableTableStub("m", tree, osm_points))
    rng = np.random.default_rng(5)
    queries = [
        KnnSelectQuery(
            "m",
            Point(
                float(rng.uniform(bounds.x_min, bounds.x_max)),
                float(rng.uniform(bounds.y_min, bounds.y_max)),
            ),
            k=5,
        )
        for __ in range(20)
    ]
    explain_select_batch(stats, queries)
    hits_before = stats.estimate_cache.hits
    explain_select_batch(stats, queries)
    assert stats.estimate_cache.hits == hits_before + len(queries)

    tree.insert(50.0, 50.0)
    # Generation-ranged invalidation: the one dirty leaf region maps to
    # a handful of touched cells; entries elsewhere are re-keyed to the
    # new generation and keep hitting, instead of the pre-PR wholesale
    # orphaning of every key.
    hits_at_bump = stats.estimate_cache.hits
    results = explain_select_batch(stats, queries)
    carried_hits = stats.estimate_cache.hits - hits_at_bump
    assert stats.cache_entries_carried > 0
    assert carried_hits > 0
    hit_flags = [explanation.cache_hit for explanation in results]
    assert sum(hit_flags) == carried_hits
    # A query inside the mutated leaf must NOT be served a carried
    # entry (its cell intersects the dirty region).
    hits_now = stats.estimate_cache.hits
    explain_select_batch(stats, [KnnSelectQuery("m", Point(50.0, 50.0), k=5)])
    assert stats.estimate_cache.hits == hits_now
    # And the post-bump entries are themselves replayable.
    hits_now = stats.estimate_cache.hits
    explain_select_batch(stats, queries)
    assert stats.estimate_cache.hits == hits_now + len(queries)
