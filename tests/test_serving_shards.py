"""Deterministic chaos suite for the fault-tolerant sharded serving tier.

The tier's contract, asserted here end to end:

* **bit-identity** — every non-degraded sharded answer (row ids, blocks
  scanned, chosen plan, costs) equals the unsharded engine's answer for
  the same workload, in both shard modes and regardless of which index
  substrate the shard plan was derived from: the coordinator plans with
  the unsharded planner over the whole relation;
* **fault tolerance** — killing, hanging, or slowing workers
  mid-workload never fails a query: the supervisor retries/respawns,
  and queries whose shard stays down degrade to estimate-only answers
  instead of raising;
* **plans survive faults** — a degraded answer keeps the unsharded
  engine's plan, and every one of its costs lies within
  ``[0, num_blocks]`` (the same invariant the fallback chains promise);
* **admission control** — overload is refused up front with a typed
  :class:`~repro.resilience.errors.OverloadError` and a retry hint.

All faults fire on a deterministic ``(shard, batch, incarnation)``
schedule — no wall clock, no randomness — so every scenario replays
identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate_osm_like
from repro.engine import SpatialEngine, SpatialTable, StatisticsManager
from repro.index import GridIndex, Quadtree, RTree
from repro.resilience import (
    InvalidQueryError,
    OverloadError,
    ShardExhaustedError,
    FaultInjectingSelectEstimator,
    FaultSchedule,
    FaultSpec,
    WorkerFaultPlan,
    WorkerFaultSpec,
)
from repro.serving import (
    AdmissionController,
    Deadline,
    ShardedServingTier,
    SupervisionPolicy,
    partition_blocks,
    plan_shards,
    serve_sharded,
)
from repro.workloads import QueryBatch

SUBSTRATES = ["quadtree", "grid", "rtree"]
MAX_K = 64
CAPACITY = 64
N_POINTS = 2_500
N_QUERIES = 320

#: Fast-failing supervision for chaos runs (short backoff, one retry).
CHAOS_POLICY = SupervisionPolicy(
    max_retries=1, backoff_base=0.01, backoff_cap=0.05, chunk_timeout=10.0
)


@pytest.fixture(scope="module")
def dataset():
    points = generate_osm_like(N_POINTS, seed=11)
    rng = np.random.default_rng(11)
    focal = points[rng.integers(0, points.shape[0], size=N_QUERIES)]
    ks = rng.integers(1, MAX_K // 2, size=N_QUERIES)
    return points, QueryBatch(points=focal, ks=ks)


@pytest.fixture(scope="module")
def reference(dataset):
    """The unsharded engine's answers — the bit-identity oracle."""
    points, batch = dataset
    engine = SpatialEngine(StatisticsManager(max_k=MAX_K))
    engine.register(SpatialTable("t", points, capacity=CAPACITY))
    return engine.execute_batch(batch.as_knn_queries("t"))


def _table(points) -> SpatialTable:
    return SpatialTable("t", points, capacity=CAPACITY)


def _routing_index(substrate: str, points):
    if substrate == "quadtree":
        return Quadtree(points, capacity=CAPACITY)
    if substrate == "grid":
        return GridIndex(points, nx=8)
    return RTree(points, capacity=CAPACITY)


def _assert_exact_matches_reference(report, reference):
    """Every answer that is neither estimate-only nor partial equals the
    unsharded engine's: rows, blocks scanned and the whole plan."""
    for i in range(len(reference)):
        if report.degraded[i] or report.partial[i]:
            continue
        ref_result, ref_explanation = reference[i]
        result = report.results[i]
        assert np.array_equal(result.row_ids, ref_result.row_ids), i
        assert result.blocks_scanned == ref_result.blocks_scanned, i
        explanation = report.explanations[i]
        assert explanation.chosen == ref_explanation.chosen, i
        assert explanation.alternatives == ref_explanation.alternatives, i
        assert explanation.effective_k == ref_explanation.effective_k, i


def _assert_estimate_only_keeps_the_plan(report, reference, table):
    """A query no shard answered has no rows, but its plan is the
    unsharded engine's, with every cost inside the guaranteed bound."""
    bound = float(table.index.num_blocks)
    for i in np.flatnonzero(report.degraded):
        assert report.results[i] is None, i
        explanation, expected = report.explanations[i], reference[i][1]
        assert explanation.degraded, i
        assert explanation.chosen == expected.chosen, i
        assert explanation.alternatives == expected.alternatives, i
        assert explanation.estimator_tier == expected.estimator_tier, i
        assert all(0.0 <= c <= bound for c in explanation.alternatives.values()), i
        assert any("estimate-only" in note for note in explanation.notes), i


# ----------------------------------------------------------------------
# Shard planning and routing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_plan_tiles_universe_and_routes_every_point(substrate, dataset):
    points, batch = dataset
    plan = plan_shards(_routing_index(substrate, points), 4)
    assert plan.n_shards == 4
    assert int(plan.weights.sum()) == N_POINTS
    ids = plan.assign(batch.points)
    assert ids.shape == (N_QUERIES,)
    assert ids.min() >= 0 and ids.max() < 4
    # The rects tile the universe: total area is preserved.
    areas = (plan.rects[:, 2] - plan.rects[:, 0]) * (
        plan.rects[:, 3] - plan.rects[:, 1]
    )
    x_min, y_min, x_max, y_max = plan.bounds
    assert np.isclose(areas.sum(), (x_max - x_min) * (y_max - y_min))


def test_routing_never_fails_outside_the_universe(dataset):
    points, __ = dataset
    plan = plan_shards(Quadtree(points, capacity=CAPACITY), 3)
    far = np.array([[-1e6, -1e6], [1e6, 1e6], [0.0, 1e9]])
    ids = plan.assign(far)
    assert ids.min() >= 0 and ids.max() < 3


def test_plan_is_deterministic(dataset):
    points, __ = dataset
    index = Quadtree(points, capacity=CAPACITY)
    a, b = plan_shards(index, 5), plan_shards(index, 5)
    assert np.array_equal(a.rects, b.rects)
    assert np.array_equal(a.weights, b.weights)


def test_plan_rejects_bad_inputs(dataset):
    points, __ = dataset
    with pytest.raises(ValueError):
        plan_shards(Quadtree(points, capacity=CAPACITY), 0)


# ----------------------------------------------------------------------
# Healthy-path bit-identity (per routing substrate)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_sharded_serving_is_bit_identical_to_unsharded(
    substrate, dataset, reference
):
    points, batch = dataset
    plan = plan_shards(_routing_index(substrate, points), 3)
    report = serve_sharded(
        _table(points),
        batch,
        shard_plan=plan,
        chunk_size=64,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
    )
    assert report.mode == "sharded"
    assert report.n_degraded == 0
    assert report.n_queries == N_QUERIES
    assert report.latencies_us is not None
    assert report.p50_latency_us is not None
    assert report.p99_latency_us >= report.p50_latency_us
    _assert_exact_matches_reference(report, reference)


# ----------------------------------------------------------------------
# Chaos: crash / hang / slow workers
# ----------------------------------------------------------------------
def test_worker_crash_mid_workload_recovers_without_failures(
    dataset, reference
):
    """Kill 1 of 4 shard workers on its first chunk; zero query failures."""
    points, batch = dataset
    faults = WorkerFaultPlan.of(WorkerFaultSpec(kind="crash", shard=2, on_batch=0))
    report = serve_sharded(
        _table(points),
        batch,
        n_shards=4,
        chunk_size=64,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
        worker_faults=faults,
    )
    # The respawned incarnation serves cleanly: everything is exact.
    assert report.n_degraded == 0
    _assert_exact_matches_reference(report, reference)
    crashed = next(s for s in report.shards if s.shard_id == 2)
    assert crashed.respawns >= 1
    assert crashed.retries >= 1


def test_hung_worker_is_killed_and_respawned(dataset, reference):
    points, batch = dataset
    policy = SupervisionPolicy(
        max_retries=1, backoff_base=0.01, backoff_cap=0.05, chunk_timeout=1.5
    )
    faults = WorkerFaultPlan.of(
        WorkerFaultSpec(kind="hang", shard=0, on_batch=0, seconds=30.0)
    )
    report = serve_sharded(
        _table(points),
        batch,
        n_shards=2,
        chunk_size=128,
        manager_kwargs={"max_k": MAX_K},
        policy=policy,
        worker_faults=faults,
    )
    assert report.n_degraded == 0
    _assert_exact_matches_reference(report, reference)
    hung = next(s for s in report.shards if s.shard_id == 0)
    assert hung.timeouts >= 1
    assert hung.respawns >= 1


def test_slow_worker_still_answers_exactly(dataset, reference):
    points, batch = dataset
    faults = WorkerFaultPlan.of(
        WorkerFaultSpec(kind="slow", shard=1, on_batch=0, seconds=0.3)
    )
    report = serve_sharded(
        _table(points),
        batch,
        n_shards=2,
        chunk_size=128,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
        worker_faults=faults,
    )
    assert report.n_degraded == 0
    _assert_exact_matches_reference(report, reference)


def test_permanently_down_shard_degrades_within_bounds(dataset, reference):
    """incarnation=None: the shard dies on every respawn — degrade, don't fail."""
    points, batch = dataset
    table = _table(points)
    faults = WorkerFaultPlan.of(
        WorkerFaultSpec(kind="crash", shard=1, incarnation=None)
    )
    report = serve_sharded(
        table,
        batch,
        n_shards=2,
        chunk_size=64,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
        worker_faults=faults,
    )
    down = report.shard_ids == 1
    assert np.array_equal(report.degraded, down)
    assert 0 < report.n_degraded < N_QUERIES
    _assert_estimate_only_keeps_the_plan(report, reference, table)
    # The healthy shard's answers are still exact.
    _assert_exact_matches_reference(report, reference)
    breaker = next(s for s in report.shards if s.shard_id == 1)
    assert breaker.degraded_queries == report.n_degraded


def test_all_shards_down_degrades_every_query(dataset, reference):
    points, batch = dataset
    table = _table(points)
    faults = WorkerFaultPlan.of(WorkerFaultSpec(kind="crash", incarnation=None))
    report = serve_sharded(
        table,
        batch,
        n_shards=2,
        chunk_size=128,
        manager_kwargs={"max_k": MAX_K},
        policy=SupervisionPolicy(max_retries=0, backoff_base=0.01),
        worker_faults=faults,
    )
    assert report.n_degraded == N_QUERIES
    _assert_estimate_only_keeps_the_plan(report, reference, table)


def test_strict_serving_raises_instead_of_degrading(dataset):
    points, batch = dataset
    faults = WorkerFaultPlan.of(
        WorkerFaultSpec(kind="crash", shard=0, incarnation=None)
    )
    with pytest.raises(ShardExhaustedError):
        serve_sharded(
            _table(points),
            batch,
            n_shards=2,
            chunk_size=128,
            manager_kwargs={"max_k": MAX_K},
            policy=SupervisionPolicy(max_retries=0, backoff_base=0.01),
            worker_faults=faults,
            strict=True,
        )


@pytest.mark.parametrize("shard_mode", ["replica", "data"])
def test_a_non_finite_focal_point_is_refused_before_any_shard_is_asked(
    shard_mode, dataset, reference
):
    """One NaN focal point raises, as in the unsharded engine: it costs
    no shard an attempt or a breaker failure, degrades no neighbour, and
    the next healthy batch is exact."""
    points, batch = dataset
    bad = QueryBatch(
        points=np.vstack([batch.points[:3], [[np.nan, float(points[0, 1])]]]),
        ks=batch.ks[:4],
    )
    with ShardedServingTier(
        _table(points),
        shard_mode=shard_mode,
        n_shards=2,
        chunk_size=2,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
    ) as tier:
        with pytest.raises(InvalidQueryError, match="must be finite"):
            tier.serve(bad)
        for sid in tier.supervisor.shard_ids:
            assert tier.supervisor.health(sid).attempts == 0, sid
            health = tier.supervisor.health(sid)
            assert health.total_failures == 0 and not health.circuit_open, sid
        report = tier.serve(batch)
    assert report.n_degraded == 0 and not report.partial.any()
    _assert_exact_matches_reference(report, reference)


def test_circuit_breaker_opens_on_a_dead_shard(dataset):
    points, batch = dataset
    faults = WorkerFaultPlan.of(
        WorkerFaultSpec(kind="crash", shard=0, incarnation=None)
    )
    with ShardedServingTier(
        _table(points),
        n_shards=2,
        chunk_size=32,
        manager_kwargs={"max_k": MAX_K},
        policy=SupervisionPolicy(
            max_retries=0, backoff_base=0.01, breaker_threshold=2
        ),
        worker_faults=faults,
    ) as tier:
        report = tier.serve(batch)
        assert tier.supervisor.health(0).circuit_open
        broken = next(s for s in report.shards if s.shard_id == 0)
        assert broken.circuit_open
        # Once open, later chunks are shed with one health check, not a
        # full spawn-crash-respawn ladder per chunk.
        assert broken.attempts < broken.n_chunks


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def test_deadline_type():
    d = Deadline.after_ms(50.0)
    assert d.remaining() is not None
    assert d.remaining() <= 0.05
    unbounded = Deadline.after_ms(None)
    assert unbounded.remaining() is None
    assert not unbounded.expired()
    # Zero is a valid, already-expired budget (`--deadline-ms 0` must
    # shed at admission, not crash); only negative budgets are invalid.
    assert Deadline(0.0).expired()
    with pytest.raises(ValueError):
        Deadline(-1.0)


def test_spent_deadline_degrades_without_serving(dataset):
    points, batch = dataset
    report = serve_sharded(
        _table(points),
        batch,
        n_shards=2,
        chunk_size=128,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
        deadline_ms=1e-6,
    )
    # No admission controller: the batch runs, but every chunk finds
    # the deadline spent and degrades instead of touching a worker.
    assert report.n_degraded == N_QUERIES
    assert all(s.attempts == 0 for s in report.shards)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_admission_sheds_on_queue_depth(dataset):
    points, batch = dataset
    admission = AdmissionController(max_pending_queries=N_QUERIES - 1)
    with pytest.raises(OverloadError) as excinfo:
        serve_sharded(
            _table(points),
            batch,
            n_shards=2,
            manager_kwargs={"max_k": MAX_K},
            admission=admission,
        )
    assert excinfo.value.retry_after is not None
    assert admission.shed == N_QUERIES
    assert admission.pending == 0


def test_admission_sheds_on_spent_deadline(dataset):
    points, batch = dataset
    with pytest.raises(OverloadError):
        serve_sharded(
            _table(points),
            batch,
            n_shards=2,
            manager_kwargs={"max_k": MAX_K},
            admission=AdmissionController(),
            deadline_ms=1e-6,
        )


def test_admission_time_budget_gate_uses_observed_throughput():
    admission = AdmissionController(max_pending_queries=10_000)
    admission.admit(100, remaining_seconds=None)
    admission.release(100, seconds=10.0)  # observed: 10 queries/s
    with pytest.raises(OverloadError) as excinfo:
        admission.admit(100, remaining_seconds=1.0)  # needs ~10s
    assert excinfo.value.retry_after is not None
    # A generous deadline is admitted.
    admission.admit(100, remaining_seconds=60.0)
    admission.release(100, seconds=1.0)
    assert admission.pending == 0


def test_admission_releases_capacity_after_failures(dataset):
    """Capacity comes back even when the serve raises (strict mode)."""
    points, batch = dataset
    admission = AdmissionController(max_pending_queries=N_QUERIES)
    faults = WorkerFaultPlan.of(WorkerFaultSpec(kind="crash", incarnation=None))
    with pytest.raises(ShardExhaustedError):
        serve_sharded(
            _table(points),
            batch,
            n_shards=2,
            chunk_size=128,
            manager_kwargs={"max_k": MAX_K},
            policy=SupervisionPolicy(max_retries=0, backoff_base=0.01),
            worker_faults=faults,
            admission=admission,
            strict=True,
        )
    assert admission.pending == 0


# ----------------------------------------------------------------------
# Data-shard mode: block partitioning, streaming merge, bit-identity
# ----------------------------------------------------------------------
def test_partition_blocks_covers_every_row(dataset):
    from repro.index import as_snapshot

    points, __ = dataset
    table = _table(points)
    snapshot = as_snapshot(table.index).canonical()
    plan = plan_shards(table.index, 4)
    members, hulls = partition_blocks(snapshot, plan)
    assert len(members) == 4 and len(hulls) == 4
    all_blocks = np.concatenate(members)
    assert np.array_equal(np.sort(all_blocks), np.arange(snapshot.n_blocks))
    for sid, member in enumerate(members):
        if member.size == 0:
            assert hulls[sid] is None
            continue
        x_min, y_min, x_max, y_max = hulls[sid]
        rects = snapshot.rects[member]
        assert x_min <= rects[:, 0].min() and x_max >= rects[:, 2].max()
        assert y_min <= rects[:, 1].min() and y_max >= rects[:, 3].max()


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_data_sharding_is_bit_identical_to_unsharded(
    substrate, dataset, reference
):
    points, batch = dataset
    plan = plan_shards(_routing_index(substrate, points), 3)
    report = serve_sharded(
        _table(points),
        batch,
        shard_plan=plan,
        shard_mode="data",
        chunk_size=64,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
    )
    assert report.shard_mode == "data"
    assert report.n_degraded == 0
    assert not report.partial.any()
    assert report.latencies_us is not None and report.p50_latency_us is not None
    _assert_exact_matches_reference(report, reference)


@pytest.mark.parametrize(
    "operator", ["filter-then-knn", "incremental-knn"]
)
def test_data_sharding_matches_pinned_reference(operator, dataset):
    """Pinned-operator legs: both physical paths, not just the arbiter's
    favorite, are bit-identical under data sharding."""
    points, batch = dataset
    pins = {"select": operator}
    engine = SpatialEngine(
        StatisticsManager(max_k=MAX_K, pinned_operators=pins)
    )
    engine.register(SpatialTable("t", points, capacity=CAPACITY))
    reference = engine.execute_batch(batch.as_knn_queries("t"))
    report = serve_sharded(
        _table(points),
        batch,
        n_shards=4,
        shard_mode="data",
        chunk_size=64,
        manager_kwargs={"max_k": MAX_K, "pinned_operators": pins},
        policy=CHAOS_POLICY,
    )
    assert report.n_degraded == 0 and not report.partial.any()
    for i, (ref_result, ref_explanation) in enumerate(reference):
        assert ref_explanation.chosen == operator, i
        assert report.explanations[i].chosen == operator, i
    _assert_exact_matches_reference(report, reference)


MANAGER_LEGS = pytest.mark.parametrize(
    ("manager_kwargs", "broken"),
    [
        ({}, False),
        ({"pinned_operators": {"select": "filter-then-knn"}}, False),
        ({"pinned_operators": {"select": "incremental-knn"}}, False),
        # Every tier of the coordinator's chain (and of the unsharded
        # engine's) raises, so the estimate is the guaranteed bound,
        # degraded.
        ({}, True),
    ],
    ids=["arbitrated", "pinned-filter", "pinned-incremental", "degraded-estimate"],
)


def _break_every_tier(stats: StatisticsManager) -> None:
    chain = stats.resilient_select_estimator("t")
    always = FaultSchedule(FaultSpec.raising(), every=1)
    for name in chain.tier_names:
        chain.wrap_tier(name, lambda est: FaultInjectingSelectEstimator(est, always))


def _assert_plans_exactly_as_unsharded(points, batch, manager_kwargs, broken, **tier_kwargs):
    """Serve ``batch`` and compare every explanation field with the
    unsharded engine's, degradation notes included."""
    manager_kwargs = {"max_k": MAX_K, **manager_kwargs}
    engine = SpatialEngine(StatisticsManager(**manager_kwargs))
    engine.register(_table(points))
    if broken:
        _break_every_tier(engine.stats)
    reference = engine.execute_batch(batch.as_knn_queries("t"))
    with ShardedServingTier(
        _table(points),
        chunk_size=64,
        manager_kwargs=manager_kwargs,
        policy=CHAOS_POLICY,
        **tier_kwargs,
    ) as tier:
        if broken:
            _break_every_tier(tier._planner)
        report = tier.serve(batch)
    assert report.n_degraded == 0 and not report.partial.any()
    _assert_exact_matches_reference(report, reference)
    for i, ((__, expected), served) in enumerate(zip(reference, report.explanations)):
        for name in (
            "chosen", "alternatives", "decided_by", "estimator_tier",
            "degraded", "effective_k", "selectivity",
        ):
            assert getattr(served, name) == getattr(expected, name), (i, name)
        (record,) = served.trail
        (expected_record,) = expected.trail
        assert (record.link, record.action, record.operator, record.note) == (
            expected_record.link,
            expected_record.action,
            expected_record.operator,
            expected_record.note,
        ), i
        assert served.notes == expected.notes, i
    if broken:
        assert all(e.degraded for e in report.explanations)
        assert {e.estimator_tier for e in report.explanations} == {"guaranteed-bound"}
    else:
        assert any(e.notes for e in report.explanations)


def _guarded_batch(points, batch) -> QueryBatch:
    """64 queries, two of which draw guard notes: a focal point far
    outside the data, and a ``k`` above the row count."""
    bounds = _table(points).index.bounds
    far = [bounds.x_max + 10 * bounds.diagonal, bounds.y_min]
    return QueryBatch(
        points=np.vstack([batch.points[:62], [far], batch.points[:1]]),
        ks=np.concatenate([batch.ks[:62], [5, N_POINTS + 1]]),
    )


@MANAGER_LEGS
def test_one_data_shard_plans_exactly_as_the_unsharded_planner(dataset, manager_kwargs, broken):
    """The coordinator plans with the unsharded planner: the whole
    explanation — not just the chosen operator — equals the engine's."""
    points, batch = dataset
    _assert_plans_exactly_as_unsharded(
        points, _guarded_batch(points, batch), manager_kwargs, broken,
        n_shards=1, shard_mode="data",
    )


@pytest.mark.parametrize("n_shards", [2, 3, 5])
@MANAGER_LEGS
def test_data_shards_plan_exactly_as_the_unsharded_planner(
    dataset, manager_kwargs, broken, n_shards
):
    """However the relation is split, a data tier's plans are the
    unsharded engine's: the estimate is taken over the whole relation at
    the coordinator, not summed over the shards' own indexes."""
    points, batch = dataset
    _assert_plans_exactly_as_unsharded(
        points, _guarded_batch(points, batch), manager_kwargs, broken,
        n_shards=n_shards, shard_mode="data",
    )


@pytest.mark.parametrize("n_shards", [1, 3])
@MANAGER_LEGS
def test_replica_shards_plan_exactly_as_the_unsharded_planner(
    dataset, manager_kwargs, broken, n_shards
):
    """Replica queries are planned at the coordinator too: the whole
    explanation equals the unsharded engine's, guard notes included."""
    points, batch = dataset
    _assert_plans_exactly_as_unsharded(
        points, _guarded_batch(points, batch), manager_kwargs, broken,
        n_shards=n_shards, shard_mode="replica",
    )


def test_replica_mode_reports_no_partials(dataset):
    points, batch = dataset
    report = serve_sharded(
        _table(points),
        batch,
        n_shards=2,
        chunk_size=128,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
    )
    assert report.shard_mode == "replica"
    assert report.partial.shape == (N_QUERIES,)
    assert not report.partial.any()


def test_dead_data_shard_yields_partial_prefix_answers(dataset, reference):
    """Kill 1 of 4 data shards permanently: queries needing its blocks
    come back ``partial`` — a verified prefix of the true answer,
    clamped by the surviving shards' bounds — and everything else stays
    bit-identical.  The lost shard degrades answers, never plans: every
    query, partial or not, keeps the unsharded engine's estimate."""
    points, batch = dataset
    faults = WorkerFaultPlan.of(
        WorkerFaultSpec(kind="crash", shard=1, on_batch=None, incarnation=None)
    )
    report = serve_sharded(
        _table(points),
        batch,
        n_shards=4,
        shard_mode="data",
        chunk_size=64,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
        worker_faults=faults,
    )
    assert 0 < report.n_partial < N_QUERIES
    for i in np.flatnonzero(report.partial):
        result = report.results[i]
        ref_rows = reference[i][0].row_ids
        # The partial answer is a verified prefix of the true top-k:
        # every returned row is proven closer than anything the dead
        # shard could have contributed.
        assert np.array_equal(result.row_ids, ref_rows[: result.row_ids.size]), i
        explanation = report.explanations[i]
        assert explanation.degraded, i
        assert any("partial" in note for note in explanation.notes), i
    for (__, expected), served in zip(reference, report.explanations):
        assert served.chosen == expected.chosen
        assert served.alternatives == expected.alternatives
        assert served.estimator_tier == expected.estimator_tier
    # Queries untouched by the gap are exact.
    _assert_exact_matches_reference(report, reference)
    gapped = next(s for s in report.shards if s.shard_id == 1)
    assert gapped.degraded_queries == report.n_partial


def test_replica_shard_lost_after_open_yields_partial_prefixes(dataset):
    """A replica shard answers ``open`` and dies before the scan round
    of its filter plans: its queries come back ``partial`` (a verified
    prefix of the true answer), the other shard's stay exact."""
    points, batch = dataset
    pins = {"select": "filter-then-knn"}
    engine = SpatialEngine(StatisticsManager(max_k=MAX_K, pinned_operators=pins))
    engine.register(_table(points))
    reference = engine.execute_batch(batch.as_knn_queries("t"))
    faults = WorkerFaultPlan.of(
        WorkerFaultSpec(kind="crash", shard=0, on_batch=1, incarnation=0),
        WorkerFaultSpec(kind="crash", shard=0, incarnation=1),
    )
    report = serve_sharded(
        _table(points),
        batch,
        n_shards=2,
        chunk_size=N_QUERIES,
        manager_kwargs={"max_k": MAX_K, "pinned_operators": pins},
        policy=CHAOS_POLICY,
        worker_faults=faults,
    )
    assert report.n_degraded == 0
    assert np.array_equal(report.partial, report.shard_ids == 0)
    for i in np.flatnonzero(report.partial):
        rows = report.results[i].row_ids
        assert np.array_equal(rows, reference[i][0].row_ids[: rows.size]), i
        assert report.explanations[i].degraded, i
        assert any("partial" in note for note in report.explanations[i].notes), i
    _assert_exact_matches_reference(report, reference)
    lost = next(s for s in report.shards if s.shard_id == 0)
    assert lost.degraded_queries == report.n_partial


def test_strict_data_serving_raises_on_coverage_gap(dataset):
    points, batch = dataset
    faults = WorkerFaultPlan.of(
        WorkerFaultSpec(kind="crash", shard=1, on_batch=None, incarnation=None)
    )
    with pytest.raises(ShardExhaustedError):
        serve_sharded(
            _table(points),
            batch,
            n_shards=4,
            shard_mode="data",
            chunk_size=64,
            manager_kwargs={"max_k": MAX_K},
            policy=CHAOS_POLICY,
            worker_faults=faults,
            strict=True,
        )


def test_transient_data_shard_crash_recovers_exactly(dataset, reference):
    """Crash incarnation 0 of one data shard: the respawned process
    replays the protocol round and every answer stays exact."""
    points, batch = dataset
    faults = WorkerFaultPlan.of(
        WorkerFaultSpec(kind="crash", shard=2, on_batch=0, incarnation=0)
    )
    report = serve_sharded(
        _table(points),
        batch,
        n_shards=4,
        shard_mode="data",
        chunk_size=64,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
        worker_faults=faults,
    )
    assert report.n_degraded == 0
    assert not report.partial.any()
    _assert_exact_matches_reference(report, reference)
    crashed = next(s for s in report.shards if s.shard_id == 2)
    assert crashed.respawns >= 1


def test_all_data_shards_down_degrades_every_query(dataset, reference):
    points, batch = dataset
    table = _table(points)
    faults = WorkerFaultPlan.of(WorkerFaultSpec(kind="crash", incarnation=None))
    report = serve_sharded(
        table,
        batch,
        n_shards=2,
        shard_mode="data",
        chunk_size=128,
        manager_kwargs={"max_k": MAX_K},
        policy=SupervisionPolicy(max_retries=0, backoff_base=0.01),
        worker_faults=faults,
    )
    assert report.n_degraded == N_QUERIES
    _assert_estimate_only_keeps_the_plan(report, reference, table)


# ----------------------------------------------------------------------
# Long-lived tier lifecycle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shard_mode", ["replica", "data"])
def test_long_lived_tier_spawns_pools_exactly_once(shard_mode, dataset, reference):
    points, batch = dataset
    with ShardedServingTier(
        _table(points),
        n_shards=3,
        shard_mode=shard_mode,
        chunk_size=128,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
    ) as tier:
        assert tier.start() is tier
        assert tier.pools_spawned == 3
        many = tier.serve_many([batch, batch], max_in_flight=2)
        # Sustained serving reuses the live pools: no respawns.
        assert tier.pools_spawned == 3
    assert many.n_batches == 2
    assert many.n_overloaded == 0
    # Pipelined batches stay bit-identical to the unsharded engine.
    for report in many.reports:
        assert report.shard_mode == shard_mode
        assert report.n_degraded == 0 and not report.partial.any()
        _assert_exact_matches_reference(report, reference)


def test_serve_many_concatenates_per_query_latencies(dataset):
    points, batch = dataset
    with ShardedServingTier(
        _table(points),
        n_shards=2,
        shard_mode="data",
        chunk_size=128,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
    ) as tier:
        many = tier.serve_many([batch, batch, batch], max_in_flight=2)
    assert many.n_queries == 3 * N_QUERIES
    assert many.latencies_us.shape == (3 * N_QUERIES,)
    assert (many.latencies_us > 0).all()
    p50 = many.percentile_us(50.0)
    p99 = many.percentile_us(99.0)
    assert p50 is not None and p99 is not None and p99 >= p50
    assert many.throughput_qps > 0
    assert "p50" in many.describe()


def test_data_mode_ships_sublinear_payloads(dataset):
    points, __ = dataset
    with ShardedServingTier(
        _table(points),
        n_shards=4,
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
    ) as replica_tier:
        replica_shipped = replica_tier.shipped_bytes
    with ShardedServingTier(
        _table(points),
        n_shards=4,
        shard_mode="data",
        manager_kwargs={"max_k": MAX_K},
        policy=CHAOS_POLICY,
    ) as data_tier:
        data_shipped = data_tier.shipped_bytes
    # Every replica worker receives the payload of every block; every
    # data worker a strict slice of it: the worst shard stays well under
    # one replica payload despite the plan's count imbalance, and the
    # slices add up to exactly one replica payload, not four.
    per_replica = replica_shipped[0]
    assert all(size == per_replica for size in replica_shipped.values())
    assert max(data_shipped.values()) <= 0.75 * per_replica
    assert sum(data_shipped.values()) == per_replica


# ----------------------------------------------------------------------
# Admission regressions: cold-start EWMA and honest retry hints
# ----------------------------------------------------------------------
def test_cold_admission_refuses_oversized_first_batch():
    """Before any throughput observation the queue-depth gate still
    engages — a cold controller must not wave an oversized batch in."""
    admission = AdmissionController(max_pending_queries=100)
    with pytest.raises(OverloadError) as excinfo:
        admission.admit(101, remaining_seconds=None)
    assert excinfo.value.retry_after is not None
    assert admission.shed == 101
    assert admission.pending == 0


def test_retry_after_never_exceeds_remaining_deadline():
    admission = AdmissionController(max_pending_queries=100)
    # Slow observed throughput: a full queue would take 1000s to drain.
    admission.admit(100, remaining_seconds=None)
    admission.release(100, seconds=1000.0)
    admission.admit(100, remaining_seconds=None)
    with pytest.raises(OverloadError) as excinfo:
        admission.admit(50, remaining_seconds=2.0)
    assert excinfo.value.retry_after <= 2.0


def test_ewma_seeds_from_first_completed_batch():
    """The first release sets the EWMA to the observed rate outright
    instead of averaging against the 0.0 'unknown' sentinel."""
    admission = AdmissionController()
    assert admission.throughput_estimate == 0.0
    admission.admit(500, remaining_seconds=None)
    admission.release(500, seconds=2.0)
    assert admission.throughput_estimate == pytest.approx(250.0)


def test_time_budget_gate_engages_on_second_batch():
    """Cold start admits on queue depth alone; once throughput is
    observed the time-budget projection starts refusing."""
    admission = AdmissionController(max_pending_queries=10_000)
    # Cold: no throughput estimate, so a tight deadline is admitted.
    admission.admit(100, remaining_seconds=0.001)
    admission.release(100, seconds=10.0)  # observed: 10 queries/s
    with pytest.raises(OverloadError):
        admission.admit(100, remaining_seconds=1.0)  # projected ~10s
