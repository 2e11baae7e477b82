"""Fallback chains: degradation order, returned provenance, transparency."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimators import DensityBasedEstimator, StaircaseEstimator, UniformModelEstimator
from repro.geometry import Point
from repro.resilience.errors import EstimationError
from repro.resilience.fallback import (
    GUARANTEED_BOUND_TIER,
    FallbackJoinEstimator,
    FallbackSelectEstimator,
)
from repro.resilience.faultinject import (
    FaultInjectingSelectEstimator,
    FaultSchedule,
    FaultSpec,
)
from repro.resilience.guards import InvalidQueryError


def make_chain(quadtree, count_index, **kwargs) -> FallbackSelectEstimator:
    return FallbackSelectEstimator(
        tiers=[
            ("staircase", lambda: StaircaseEstimator(quadtree, max_k=256)),
            ("density", lambda: DensityBasedEstimator(count_index)),
            ("uniform-model", lambda: UniformModelEstimator(count_index)),
        ],
        guaranteed_bound=float(quadtree.num_blocks),
        **kwargs,
    )


@pytest.fixture(scope="module")
def chain(osm_quadtree, osm_count_index) -> FallbackSelectEstimator:
    return make_chain(osm_quadtree, osm_count_index)


@pytest.fixture(scope="module")
def primary(osm_quadtree) -> StaircaseEstimator:
    return StaircaseEstimator(osm_quadtree, max_k=256)


def walk_one(chain, query: Point, k: int):
    """A chain's scalar estimate and the provenance its walk returns."""
    values, outcome = chain.walk([(query.x, query.y)], [k])
    assert float(values[0]) == chain.estimate(query, k)
    return float(values[0]), outcome.outcome_for(0)


class TestHealthyChain:
    def test_primary_answers(self, chain):
        __, outcome = walk_one(chain, Point(0.4, 0.6), 10)
        assert outcome.tier == "staircase"
        assert not outcome.degraded

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.floats(min_value=0.0, max_value=1.0),
        y=st.floats(min_value=0.0, max_value=1.0),
        k=st.integers(min_value=1, max_value=256),
    )
    def test_zero_overhead_when_healthy(self, chain, primary, x, y, k):
        # The chain must be transparent: bit-identical to the primary.
        assert chain.estimate(Point(x, y), k) == primary.estimate(Point(x, y), k)

    def test_invalid_inputs_still_raise(self, chain):
        class RawPoint:  # Point itself rejects NaN at construction
            x = float("nan")
            y = 0.0

        with pytest.raises(InvalidQueryError):
            chain.estimate(RawPoint(), 5)
        with pytest.raises(InvalidQueryError):
            chain.estimate(Point(0.5, 0.5), 0)


class TestDegradation:
    def test_raise_in_primary_degrades_to_density(self, osm_quadtree, osm_count_index):
        chain = make_chain(osm_quadtree, osm_count_index)
        chain.wrap_tier(
            "staircase",
            lambda est: FaultInjectingSelectEstimator(
                est, FaultSchedule(FaultSpec.raising(), every=1)
            ),
        )
        expected = DensityBasedEstimator(osm_count_index).estimate(Point(0.4, 0.6), 10)
        value, outcome = walk_one(chain, Point(0.4, 0.6), 10)
        assert value == expected
        assert outcome.tier == "density"
        assert outcome.degraded
        assert "injected fault" in outcome.describe()

    def test_corrupt_estimate_is_caught(self, osm_quadtree, osm_count_index):
        # NaN and negative answers are invalid whatever produced them.
        for bad in (float("nan"), float("inf"), -3.0):
            chain = make_chain(osm_quadtree, osm_count_index)
            chain.wrap_tier(
                "staircase",
                lambda est, bad=bad: FaultInjectingSelectEstimator(
                    est, FaultSchedule(FaultSpec.corrupting(bad), every=1)
                ),
            )
            value, outcome = walk_one(chain, Point(0.4, 0.6), 10)
            assert np.isfinite(value) and value >= 0
            assert outcome.tier == "density"
            assert outcome.describe() == (
                "degraded to tier 'density' "
                "(staircase: invalid estimate for 1 of 1 queries)"
            )

    def test_all_tiers_failing_yields_guaranteed_bound(self, osm_quadtree, osm_count_index):
        chain = make_chain(osm_quadtree, osm_count_index)
        for tier in chain.tier_names:
            chain.wrap_tier(
                tier,
                lambda est: FaultInjectingSelectEstimator(
                    est, FaultSchedule(FaultSpec.raising(), every=1)
                ),
            )
        value, outcome = walk_one(chain, Point(0.4, 0.6), 10)
        assert value == float(osm_quadtree.num_blocks)
        assert outcome.tier == GUARANTEED_BOUND_TIER
        assert outcome.degraded

    def test_a_failing_tier_is_tried_on_every_call(self, osm_quadtree, osm_count_index, primary):
        # No breaker: twenty failures in a row do not stop the chain from
        # asking the primary again, and it answers as soon as it recovers.
        chain = make_chain(osm_quadtree, osm_count_index)
        chain.wrap_tier(
            "staircase",
            lambda est: FaultInjectingSelectEstimator(
                est, FaultSchedule(FaultSpec.raising(), calls=range(20))
            ),
        )
        injector = chain.tier_instance("staircase")
        q = Point(0.4, 0.6)
        for call in range(20):
            assert chain.estimate(q, 10) == DensityBasedEstimator(osm_count_index).estimate(q, 10)
            assert injector.calls == call + 1
        values, outcome = chain.walk([(q.x, q.y)], [10])
        assert injector.calls == 21
        assert values.tolist() == [primary.estimate(q, 10)]
        assert outcome.tiers == ["staircase"] and not outcome.degraded.any()


class TestChainValidation:
    def test_empty_tier_list_rejected(self):
        with pytest.raises(ValueError):
            FallbackSelectEstimator(tiers=[], guaranteed_bound=1.0)

    def test_duplicate_tier_names_rejected(self, osm_count_index):
        with pytest.raises(ValueError):
            FallbackSelectEstimator(
                tiers=[
                    ("density", lambda: DensityBasedEstimator(osm_count_index)),
                    ("density", lambda: DensityBasedEstimator(osm_count_index)),
                ],
                guaranteed_bound=1.0,
            )

    def test_crashing_factory_counts_as_failure(self, osm_count_index):
        def exploding():
            raise RuntimeError("cannot build")

        chain = FallbackSelectEstimator(
            tiers=[
                ("broken", exploding),
                ("density", lambda: DensityBasedEstimator(osm_count_index)),
            ],
            guaranteed_bound=1.0,
        )
        __, outcome = walk_one(chain, Point(0.4, 0.6), 10)
        assert outcome.tier == "density"
        assert outcome.attempts[0].outcome == "RuntimeError: cannot build"


class TestJoinChain:
    def test_join_chain_degrades(self, osm_quadtree, inner_count_index):
        calls = {"primary": 0}

        class Exploding:
            def estimate(self, k):
                calls["primary"] += 1
                raise EstimationError("join catalogs unavailable")

            def storage_bytes(self):
                return 0

        from repro.estimators import BlockSampleEstimator

        chain = FallbackJoinEstimator(
            tiers=[
                ("catalog-merge", Exploding),
                (
                    "block-sample",
                    lambda: BlockSampleEstimator(
                        osm_quadtree, inner_count_index, sample_size=16
                    ),
                ),
            ],
            guaranteed_bound=1e9,
        )
        value, outcome = chain.walk(8)
        assert np.isfinite(value) and value >= 0
        assert calls["primary"] == 1
        assert outcome.tier == "block-sample"
        assert chain.estimate(8) == value and calls["primary"] == 2

    def test_join_chain_validates_k(self, inner_count_index):
        chain = FallbackJoinEstimator(
            tiers=[("x", lambda: None)], guaranteed_bound=1.0
        )
        with pytest.raises(InvalidQueryError):
            chain.estimate(0)


class TestThreadSafety:
    """Contention regressions: a chain is shared by the sharded serving
    tier's coordinator threads, so lazy tier construction must not race,
    and each call's provenance is its own return value."""

    def test_lazy_tier_builds_exactly_once_under_races(self, osm_count_index):
        import threading
        import time as _time

        built = []

        def factory():
            built.append(1)
            _time.sleep(0.01)  # widen the check-then-build window
            return UniformModelEstimator(osm_count_index)

        chain = FallbackSelectEstimator(
            tiers=[("uniform-model", factory)], guaranteed_bound=64.0
        )
        start = threading.Barrier(6)

        def call():
            start.wait()
            chain.estimate(Point(0.5, 0.5), 4)

        threads = [threading.Thread(target=call) for __ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1

    def test_concurrent_estimate_batch_matches_serial(
        self, osm_quadtree, osm_count_index
    ):
        import threading

        chain = make_chain(osm_quadtree, osm_count_index)
        rng = np.random.default_rng(3)
        pts = rng.random((64, 2))
        ks = rng.integers(1, 64, size=64)
        expected = chain.estimate_batch(pts, ks)
        outputs = {}

        def call(name):
            # Each thread walks its own batch length: its outcome must
            # describe its own rows, not a neighbour's.
            outputs[name] = chain.walk(pts[: 16 + name], ks[: 16 + name])

        threads = [
            threading.Thread(target=call, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            values, outcome = outputs[i]
            np.testing.assert_array_equal(values, expected[: 16 + i])
            assert outcome.tiers == ["staircase"] * (16 + i)
            assert not outcome.degraded.any()
