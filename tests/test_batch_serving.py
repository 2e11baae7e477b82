"""Batch-vs-scalar bit-identity suite for the batched serving path.

The batched serving PR's contract: every batch API is *exactly* a
vectorization of the scalar loop it replaces — same floats, same
exceptions, same provenance.  These tests enforce that contract at each
layer:

* every select estimator's ``estimate_batch`` vs a scalar ``estimate``
  loop, on quadtree / grid / R-tree substrates, including degenerate
  single-leaf and zero-count-block indexes;
* first-offender error parity (the batch raises the same error, for the
  same query, as the scalar loop would);
* the fallback chain's batch partitioning under injected faults —
  tier-wide exceptions move the whole pending sub-batch down, while
  per-element corruption moves only the offending elements;
* ``explain_select_batch`` / ``explain_batch`` / ``execute_batch`` vs the
  per-query engine loop, over a mixed workload (selects with predicates
  and regions, a range query, a join);
* the batched incremental-k-NN executor vs the heap-based browser.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate_osm_like, generate_uniform
from repro.engine import (
    KnnJoinQuery,
    KnnSelectQuery,
    RangeQuery,
    SpatialEngine,
    SpatialTable,
    StatisticsManager,
    column,
)
from repro.engine.physical import (
    IncrementalKnnOperator,
    execute_incremental_knn_batch,
)
from repro.engine.planner import explain_select_batch, physical_operator
from repro.estimators import (
    DensityBasedEstimator,
    StaircaseEstimator,
    UniformModelEstimator,
)
from repro.geometry import Point, Rect
from repro.index import GridIndex, IndexSnapshot, Quadtree, RTree
from repro.resilience import (
    EstimationError,
    FallbackSelectEstimator,
    FaultInjectingSelectEstimator,
    FaultSchedule,
    FaultSpec,
    InvalidQueryError,
)

from tests.heap_oracle import heap_knn_select

SUBSTRATES = ["quadtree", "grid", "rtree"]
MAX_K = 128


def _build(substrate: str, n: int = 2_000, seed: int = 5):
    """Returns ``(points, index)`` — indexes do not retain the raw array."""
    points = generate_osm_like(n, seed=seed)
    if substrate == "quadtree":
        return points, Quadtree(points, capacity=64)
    if substrate == "grid":
        return points, GridIndex(points, nx=12)
    return points, RTree(points, capacity=64)


def _estimators(points, index):
    """Every select estimator with a batch override, over one index."""
    snapshot = IndexSnapshot.from_index(index)
    aux = index if isinstance(index, Quadtree) else Quadtree(points, capacity=64)
    return {
        "staircase": StaircaseEstimator(
            index, aux_index=aux, max_k=MAX_K, snapshot=snapshot
        ),
        "density": DensityBasedEstimator(snapshot),
        "uniform-model": UniformModelEstimator(snapshot),
    }


def _workload(points, index, n: int = 300, seed: int = 11):
    """In-bounds, on-point, and out-of-bounds queries with mixed ks."""
    rng = np.random.default_rng(seed)
    b = index.bounds
    uniform = np.column_stack(
        [rng.uniform(b.x_min, b.x_max, n), rng.uniform(b.y_min, b.y_max, n)]
    )
    on_data = points[rng.integers(0, points.shape[0], n // 4)]
    outside = np.array(
        [
            [b.x_min - b.width, b.y_min - b.height],
            [b.x_max + 3 * b.width, b.y_max],
            [b.x_min, b.y_max + 0.5 * b.height],
        ]
    )
    pts = np.concatenate([uniform, on_data, outside])
    ks = rng.integers(1, MAX_K + 1, pts.shape[0])
    ks[0] = 1
    ks[-1] = MAX_K
    return pts, ks


def _scalar_loop(estimator, pts, ks):
    return np.array(
        [
            estimator.estimate(Point(float(x), float(y)), int(k))
            for (x, y), k in zip(pts, ks)
        ]
    )


class TestEstimatorBatchIdentity:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    @pytest.mark.parametrize("name", ["staircase", "density", "uniform-model"])
    def test_batch_equals_scalar_loop(self, substrate, name):
        points, index = _build(substrate)
        estimator = _estimators(points, index)[name]
        pts, ks = _workload(points, index)
        np.testing.assert_array_equal(
            estimator.estimate_batch(pts, ks), _scalar_loop(estimator, pts, ks)
        )

    @pytest.mark.parametrize("name", ["staircase", "density", "uniform-model"])
    def test_empty_batch(self, name):
        estimator = _estimators(*_build("quadtree"))[name]
        out = estimator.estimate_batch(np.empty((0, 2)), np.empty(0, dtype=np.int64))
        assert out.shape == (0,)
        assert out.dtype == np.dtype(float)

    @pytest.mark.parametrize("name", ["staircase", "density", "uniform-model"])
    def test_single_leaf_index(self, name):
        # Capacity above n: the whole dataset sits in one block, so the
        # leaf lookup degenerates to a constant and every locality term
        # collapses.  The batch must still mirror the scalar loop.
        points = generate_osm_like(50, seed=9)
        index = Quadtree(points, capacity=256)
        assert index.num_blocks == 1
        estimator = _estimators(points, index)[name]
        pts, ks = _workload(points, index, n=40)
        ks = np.minimum(ks, 50)
        np.testing.assert_array_equal(
            estimator.estimate_batch(pts, ks), _scalar_loop(estimator, pts, ks)
        )

    @pytest.mark.parametrize("kind", ["density", "uniform-model"])
    def test_zero_count_blocks(self, kind):
        # A bare snapshot may interleave empty blocks among counted ones
        # (a Count-Index cannot carry them; the tree indexes prune empty
        # leaves).  Both paths must treat the zero counts identically.
        # Staircase is exempt: its build requires a block-bearing index,
        # which never presents empty blocks.
        rects = np.array(
            [
                [0.0, 0.0, 1.0, 1.0],  # empty, nearest
                [1.0, 0.0, 2.0, 1.0],
                [2.0, 0.0, 3.0, 1.0],  # empty
                [3.0, 0.0, 4.0, 1.0],
                [4.0, 0.0, 5.0, 1.0],
                [9.0, 0.0, 10.0, 1.0],  # empty, far
            ]
        )
        counts = np.array([0, 4, 0, 4, 4, 0])
        snapshot = IndexSnapshot.from_arrays(rects, counts)
        if kind == "density":
            estimator = DensityBasedEstimator(snapshot)
        else:
            estimator = UniformModelEstimator(snapshot)
        rng = np.random.default_rng(2)
        pts = np.column_stack(
            [rng.uniform(-1.0, 11.0, 60), rng.uniform(-1.0, 2.0, 60)]
        )
        ks = rng.integers(1, 13, 60)
        np.testing.assert_array_equal(
            estimator.estimate_batch(pts, ks), _scalar_loop(estimator, pts, ks)
        )

    @pytest.mark.parametrize("name", ["staircase", "density", "uniform-model"])
    def test_first_offender_invalid_k_parity(self, name):
        points, index = _build("quadtree")
        estimator = _estimators(points, index)[name]
        pts, ks = _workload(points, index, n=20)
        ks = ks.copy()
        ks[7] = 0
        ks[12] = -3
        try:
            for (x, y), k in zip(pts, ks):
                estimator.estimate(Point(float(x), float(y)), int(k))
            raise AssertionError("scalar loop should have raised")
        except (InvalidQueryError, ValueError) as exc:
            scalar_error = exc
        with pytest.raises(type(scalar_error)) as caught:
            estimator.estimate_batch(pts, ks)
        assert str(caught.value) == str(scalar_error)

    def test_staircase_beyond_max_k_routes_like_scalar(self):
        # k beyond the catalog limit routes to the density fallback
        # (Figure 5); the batch partitions those elements to the
        # fallback's own batch path and must land on the same floats.
        points, index = _build("quadtree")
        estimator = _estimators(points, index)["staircase"]
        pts, ks = _workload(points, index, n=30)
        ks = ks.copy()
        ks[::3] = MAX_K + 50
        np.testing.assert_array_equal(
            estimator.estimate_batch(pts, ks), _scalar_loop(estimator, pts, ks)
        )

    def test_non_finite_coordinate_parity(self):
        estimator = _estimators(*_build("quadtree"))["staircase"]
        pts = np.array([[0.5, 0.5], [np.nan, 0.2], [0.1, 0.1]])
        ks = np.array([3, 3, 3])
        with pytest.raises(InvalidQueryError):
            estimator.estimate_batch(pts, ks)


class TestFallbackBatchPartitioning:
    @pytest.fixture()
    def chain(self):
        points, index = _build("quadtree")
        snapshot = IndexSnapshot.from_index(index)
        return points, index, FallbackSelectEstimator(
            tiers=[
                ("staircase", lambda: StaircaseEstimator(index, max_k=MAX_K)),
                ("density", lambda: DensityBasedEstimator(snapshot)),
            ],
            guaranteed_bound=float(index.num_blocks),
        )

    def test_healthy_chain_matches_primary(self, chain):
        points, index, estimator = chain
        pts, ks = _workload(points, index, n=50)
        primary = _estimators(points, index)["staircase"]
        values, outcome = estimator.walk(pts, ks)
        np.testing.assert_array_equal(values, primary.estimate_batch(pts, ks))
        np.testing.assert_array_equal(estimator.estimate_batch(pts, ks), values)
        assert outcome.tiers == ["staircase"] * pts.shape[0]
        assert not outcome.degraded.any()
        assert "all" in outcome.describe()

    def test_per_element_corruption_partitions(self, chain):
        # The fault proxy wraps only scalar estimate(); the ABC-default
        # batch loop therefore surfaces "corrupt" faults per element,
        # exercising the partitioning path: corrupted elements fall to
        # the density tier while clean ones keep the primary answer.
        points, index, estimator = chain
        faulted = {3, 9, 17}
        estimator.wrap_tier(
            "staircase",
            lambda inner: FaultInjectingSelectEstimator(
                inner, FaultSchedule(FaultSpec.corrupting(), calls=faulted)
            ),
        )
        pts, ks = _workload(points, index, n=30)
        values, outcome = estimator.walk(pts, ks)
        reference = _estimators(points, index)
        for i in range(pts.shape[0]):
            tier = "density" if i in faulted else "staircase"
            assert outcome.tiers[i] == tier, i
            assert bool(outcome.degraded[i]) == (i in faulted)
            assert values[i] == reference[tier].estimate(
                Point(float(pts[i, 0]), float(pts[i, 1])), int(ks[i])
            )
        assert outcome.outcome_for(3).degraded
        assert not outcome.outcome_for(0).degraded

    def test_tier_exception_moves_whole_batch(self, chain):
        # A "raise" fault propagates out of the tier's batch call, so
        # the entire pending sub-batch degrades to the next tier.
        points, index, estimator = chain
        estimator.wrap_tier(
            "staircase",
            lambda inner: FaultInjectingSelectEstimator(
                inner, FaultSchedule(FaultSpec.raising(), every=1)
            ),
        )
        pts, ks = _workload(points, index, n=20)
        values, outcome = estimator.walk(pts, ks)
        assert outcome.tiers == ["density"] * pts.shape[0]
        assert outcome.degraded.all()
        np.testing.assert_array_equal(
            values, _estimators(points, index)["density"].estimate_batch(pts, ks)
        )

    def test_all_tiers_failing_hits_guaranteed_bound(self):
        points, index = _build("quadtree")

        def exploding():
            raise EstimationError("boom")

        estimator = FallbackSelectEstimator(
            tiers=[("broken", exploding)], guaranteed_bound=float(index.num_blocks)
        )
        pts, ks = _workload(points, index, n=5)
        values, outcome = estimator.walk(pts, ks)
        np.testing.assert_array_equal(values, float(index.num_blocks))
        assert outcome.degraded.all()

    def test_invalid_inputs_still_raise(self, chain):
        # Invalid queries are the caller's bug, not a failure to degrade
        # around: the chain's batch guard raises before any tier runs.
        *__, estimator = chain
        with pytest.raises(InvalidQueryError):
            estimator.estimate_batch(np.array([[0.1, 0.2]]), np.array([0]))


@pytest.fixture(scope="module")
def mixed_setup():
    pts = generate_osm_like(4_000, seed=3)
    other = generate_uniform(600, seed=4)
    rng = np.random.default_rng(9)
    prices = rng.uniform(0, 100, size=pts.shape[0])

    def build_engine(**manager_kwargs) -> SpatialEngine:
        engine = SpatialEngine(StatisticsManager(max_k=128, **manager_kwargs))
        engine.register(SpatialTable("a", pts, {"price": prices}, capacity=64))
        engine.register(SpatialTable("b", other, capacity=32))
        return engine

    lo_x, hi_x = pts[:, 0].min(), pts[:, 0].max()
    lo_y, hi_y = pts[:, 1].min(), pts[:, 1].max()
    queries: list = []
    for __ in range(120):
        x = float(rng.uniform(lo_x, hi_x))
        y = float(rng.uniform(lo_y, hi_y))
        # Some k beyond max_k=128: the planner clamps to effective_k.
        queries.append(KnnSelectQuery("a", Point(x, y), k=int(rng.integers(1, 200))))
    for i in rng.integers(0, pts.shape[0], size=40):
        queries.append(
            KnnSelectQuery(
                "a",
                Point(float(pts[i, 0]), float(pts[i, 1])),
                k=int(rng.integers(1, 30)),
            )
        )
    for __ in range(20):
        x = float(rng.uniform(other[:, 0].min(), other[:, 0].max()))
        y = float(rng.uniform(other[:, 1].min(), other[:, 1].max()))
        queries.append(KnnSelectQuery("b", Point(x, y), k=int(rng.integers(1, 20))))
    for __ in range(15):
        x = float(rng.uniform(lo_x, hi_x))
        y = float(rng.uniform(lo_y, hi_y))
        queries.append(
            KnnSelectQuery("a", Point(x, y), k=5, predicate=column("price") < 40)
        )
    for __ in range(15):
        x = float(rng.uniform(lo_x, hi_x))
        y = float(rng.uniform(lo_y, hi_y))
        queries.append(
            KnnSelectQuery(
                "a", Point(x, y), k=3, region=Rect(x - 5, y - 5, x + 5, y + 5)
            )
        )
    queries.append(
        RangeQuery(
            "a",
            Rect(lo_x, lo_y, lo_x + (hi_x - lo_x) / 4, lo_y + (hi_y - lo_y) / 4),
        )
    )
    queries.append(KnnJoinQuery("b", "a", k=3))
    rng.shuffle(queries)
    return build_engine, queries


class TestEngineBatchParity:
    def test_execute_batch_equals_scalar_loop(self, mixed_setup):
        build_engine, queries = mixed_setup
        scalar_engine = build_engine()
        scalar = [scalar_engine.execute(q) for q in queries]
        batch = build_engine().execute_batch(queries)
        assert len(batch) == len(scalar)
        for i, ((r_s, x_s), (r_b, x_b)) in enumerate(zip(scalar, batch)):
            assert r_s.operator == r_b.operator, i
            assert r_s.blocks_scanned == r_b.blocks_scanned, (i, queries[i])
            if r_s.row_ids is not None:
                np.testing.assert_array_equal(
                    r_s.row_ids, r_b.row_ids, err_msg=f"query {i}: {queries[i]}"
                )
            assert len(r_s.join_pairs) == len(r_b.join_pairs)
            for (o_s, inn_s), (o_b, inn_b) in zip(r_s.join_pairs, r_b.join_pairs):
                assert o_s == o_b
                np.testing.assert_array_equal(inn_s, inn_b)
            assert x_s.chosen == x_b.chosen, i
            assert x_s.alternatives == x_b.alternatives, i
            assert x_s.notes == x_b.notes, i

    def test_explain_batch_equals_scalar_loop(self, mixed_setup):
        build_engine, queries = mixed_setup
        explained = build_engine().explain_batch(queries)
        scalar_engine = build_engine()
        for i, (query, x_b) in enumerate(zip(queries, explained)):
            x_s = scalar_engine.explain(query)
            assert x_s.chosen == x_b.chosen, i
            assert x_s.alternatives == x_b.alternatives, i
            assert x_s.estimator_tier == x_b.estimator_tier, i
            assert x_s.notes == x_b.notes, i

    @pytest.mark.parametrize("scenario", ["healthy", "stale-raise", "faulted-primary"])
    def test_scalar_calls_are_the_batch_of_one(self, mixed_setup, scenario):
        """``explain(q)`` / ``execute(q)`` equal ``explain_batch([q])[0]`` /
        ``execute_batch([q])[0]`` field for field — there is no scalar
        planning twin — healthy and under a degraded estimator."""
        build_mixed, queries = mixed_setup

        def build_engine() -> SpatialEngine:
            engine = build_mixed(
                staleness_policy="raise" if scenario == "stale-raise" else "rebuild"
            )
            if scenario == "stale-raise":
                engine.explain(KnnSelectQuery("a", Point(500.0, 500.0), k=4))
                engine.stats.table("a").index.data_generation = 1
            if scenario == "faulted-primary":
                # The proxy wraps only scalar ``estimate()``: batches reach
                # it through the ABC's per-query loop.
                chain = engine.stats.resilient_select_estimator("a")
                chain.wrap_tier(
                    chain.primary_tier,
                    lambda est: FaultInjectingSelectEstimator(
                        est, FaultSchedule(FaultSpec.raising(), every=1)
                    ),
                )
            return engine

        def fields(explanation) -> dict:
            out = dict(vars(explanation))
            (record,) = out["trail"]  # the one arbitration record; its clock varies
            out["trail"] = (record.link, record.action, record.operator, record.note)
            # Two engines build their catalogs at different speeds.
            out["preprocessing"] = {
                key: value
                for key, value in out["preprocessing"].items()
                if not key.endswith("seconds")
            }
            return out

        # Both engines see the same sequence, repeats included.
        sequence = queries[:60] + queries[:20]
        scalar_engine, batch_engine = build_engine(), build_engine()
        degraded = 0
        for i, query in enumerate(sequence):
            x_s = scalar_engine.explain(query)
            x_b = batch_engine.explain_batch([query])[0]
            assert fields(x_s) == fields(x_b), (i, query)
            degraded += x_s.degraded
        if scenario in ("stale-raise", "faulted-primary"):
            assert degraded > 0
        for i, query in enumerate(sequence[:30]):
            (r_s, x_s), (r_b, x_b) = (
                scalar_engine.execute(query),
                batch_engine.execute_batch([query])[0],
            )
            assert fields(x_s) == fields(x_b), (i, query)
            assert r_s.operator == r_b.operator and r_s.blocks_scanned == r_b.blocks_scanned
            if r_s.row_ids is not None:
                np.testing.assert_array_equal(r_s.row_ids, r_b.row_ids)

    def test_empty_batch(self, mixed_setup):
        build_engine, __ = mixed_setup
        assert build_engine().execute_batch([]) == []
        assert build_engine().explain_batch([]) == []

    def test_guard_failure_precedes_execution(self, mixed_setup):
        # The batch guards every query before executing any: a bad query
        # at the tail fails the whole call (documented divergence from
        # the scalar loop, which would execute the earlier queries).
        build_engine, queries = mixed_setup
        bad = [queries[0], KnnSelectQuery("zzz", Point(0.0, 0.0), k=3)]
        with pytest.raises(KeyError):
            build_engine().execute_batch(bad)

    def test_plan_select_batch_parity(self):
        pts = generate_osm_like(3_000, seed=7)
        rng = np.random.default_rng(11)
        qx = rng.uniform(pts[:, 0].min(), pts[:, 0].max(), size=150)
        qy = rng.uniform(pts[:, 1].min(), pts[:, 1].max(), size=150)
        ks = rng.integers(1, 80, size=150)  # some beyond max_k=64
        queries = [
            KnnSelectQuery("t", Point(float(x), float(y)), k=int(k))
            for x, y, k in zip(qx, qy, ks)
        ]

        def build_stats() -> StatisticsManager:
            stats = StatisticsManager(max_k=64)
            stats.register(SpatialTable("t", pts, capacity=64))
            return stats

        scalar_stats, batch_stats = build_stats(), build_stats()
        scalar = [explain_select_batch(scalar_stats, [q])[0] for q in queries]
        batch = explain_select_batch(batch_stats, queries)
        for i, (query, ex_s, ex_b) in enumerate(zip(queries, scalar, batch)):
            op_s = physical_operator(scalar_stats, query, ex_s)
            assert type(op_s) is type(physical_operator(batch_stats, query, ex_b)), i
            assert ex_s.chosen == ex_b.chosen, i
            assert ex_s.alternatives == ex_b.alternatives, i
            assert ex_s.effective_k == ex_b.effective_k, i
            assert ex_s.selectivity == ex_b.selectivity, i
            assert ex_s.estimator_tier == ex_b.estimator_tier, i
            assert ex_s.degraded == ex_b.degraded, i


class TestBatchedIncrementalKnn:
    @pytest.mark.parametrize("capacity", [16, 64, 4_096])
    def test_matches_heap_browser(self, capacity):
        # 4_096 covers the single-leaf degenerate case.
        pts = generate_osm_like(2_500, seed=13)
        table = SpatialTable("t", pts, capacity=capacity)
        stats = StatisticsManager(max_k=64)
        stats.register(table)
        snapshot = stats.snapshot("t")
        rng = np.random.default_rng(5)
        queries = [
            KnnSelectQuery(
                "t",
                Point(
                    float(rng.uniform(pts[:, 0].min(), pts[:, 0].max())),
                    float(rng.uniform(pts[:, 1].min(), pts[:, 1].max())),
                ),
                k=int(rng.integers(1, 65)),
            )
            for __ in range(100)
        ]
        batch = execute_incremental_knn_batch(table, queries, snapshot)
        for query, result in zip(queries, batch):
            row_ids, blocks_scanned = heap_knn_select(table, query)
            assert result.operator == IncrementalKnnOperator.name
            assert blocks_scanned == result.blocks_scanned
            np.testing.assert_array_equal(row_ids, result.row_ids)
