"""One round per shard: the data tier's open round and thread ownership.

A data shard answers ``open`` with its own finished local browse — every
block up to the one its stop rule fired on, as flat columns
(``OpenReply``) — so the coordinator's cross-shard merge finishes on the
opening streams alone.  Asserted here without a wall clock:

* **the one-round invariant**, in-process on adversarial inputs
  (distance ties at the k-th, duplicates, ``k`` beyond a shard's or the
  relation's row count, an empty shard, a query outside the universe):
  ``merge_open`` certifies every query, the first ``QueryMerge.advance()``
  over the same replies returns ``None``, and both answers equal the
  unsharded engine's to the distance bit;
* **round counts** of a live tier: one round per shard per chunk for
  incremental plans, open + scan for the filter plan, and a healthy
  chunk builds no ``QueryMerge``;
* **the fallback**: open replies cut short are extended through
  ``resume`` to the same answers;
* **hygiene**: serving starts no thread per request, ``close()`` leaves
  no thread and no worker process behind, and pipelined multi-chunk
  batches cannot deadlock the tier's pools.
"""

from __future__ import annotations

import math
import multiprocessing
import threading

import numpy as np
import pytest

from repro.engine import SpatialEngine, SpatialTable, StatisticsManager
from repro.index import GridIndex, Quadtree, RTree
from repro.geometry import Point
from repro.knn.distance_browsing import SnapshotBlockStream
from repro.knn.merge import OpenReply, QueryMerge, gather_blocks, merge_open, run_merges
from repro.resilience import WorkerFaultPlan, WorkerFaultSpec
from repro.resilience.errors import BudgetExceededError
from repro.serving import ShardedServingTier, SupervisionPolicy, plan_shards
from repro.serving import coordinator, worker
from repro.workloads import QueryBatch
from tests.heap_oracle import corner_tie_table, heap_knn_select

MAX_K = 64
POLICY = SupervisionPolicy(max_retries=1, backoff_base=0.01, chunk_timeout=20.0)
INCREMENTAL = {"select": "incremental-knn"}
FILTER = {"select": "filter-then-knn"}


def _lattice() -> np.ndarray:
    """A 12 x 12 integer lattice, every third point three times over."""
    xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0))
    points = np.column_stack([xs.ravel(), ys.ravel()])
    return np.vstack([points, points[::3], points[::3]])


def _handful() -> np.ndarray:
    """Ten points in at most four blocks: five shards leave one empty."""
    return np.array(
        [[0, 0], [0, 1], [1, 0], [1, 1], [8, 8], [8, 9], [9, 8], [9, 9], [4, 4], [4, 4]],
        dtype=float,
    )


#: name -> (points, leaf capacity of the served table)
RELATIONS = {"lattice": (_lattice(), 8), "handful": (_handful(), 4)}


def _adversarial_batch(points: np.ndarray) -> QueryBatch:
    n = points.shape[0]
    focal = np.array(
        [
            [5.0, 5.0],  # a lattice point: rings of equidistant neighbours
            [5.5, 5.5],  # a cell centre: four-way ties from the first row on
            [3.0, 6.0],  # a triplicated point: distance-zero duplicates
            [0.0, 0.0],  # a corner of the universe
            [-7.0, 4.5],  # outside the universe
            [40.0, -3.0],  # far outside, nearest shard first by a margin
        ]
    )
    # Ties at the k-th (4, 5, 9), more than a shard holds, more than n.
    ks = [1, 4, 5, 9, max(1, n // 3), n, n + 5]
    grid = [(f, k) for f in focal for k in ks]
    return QueryBatch(points=np.array([f for f, __ in grid]), ks=np.array([k for __, k in grid]))


def _routing_index(substrate: str, points: np.ndarray):
    if substrate == "quadtree":
        return Quadtree(points, capacity=16)
    if substrate == "grid":
        return GridIndex(points, nx=4)
    return RTree(points, capacity=16)


def _reference(points: np.ndarray, capacity: int, batch: QueryBatch, pins: dict):
    engine = SpatialEngine(StatisticsManager(max_k=MAX_K, pinned_operators=pins))
    engine.register(SpatialTable("t", points, capacity=capacity))
    return engine.execute_batch(batch.as_knn_queries("t"))


def replay(replies: list[OpenReply], i: int, k: int):
    """Query ``i`` through one ``QueryMerge`` over the replies' streams:
    ``(row_ids, dists, blocks_scanned)``, or ``None`` when it would resume."""
    merge = QueryMerge(k)
    for sid, reply in enumerate(replies):
        merge.add_stream(sid, *reply.stream(i))
    if merge.advance() is not None:
        return None
    rows, blocks_scanned, __ = merge.result()
    dists = np.concatenate([np.empty(0), *merge._dist_parts])
    return rows, np.sort(dists, kind="stable")[: rows.shape[0]], blocks_scanned


def assert_same_merge(merged, replayed) -> None:
    """Row ids, distance bits and ``blocks_scanned`` of two merged answers."""
    assert merged[0].tolist() == replayed[0].tolist()
    assert merged[1].tobytes() == replayed[1].tobytes()
    assert merged[2] == replayed[2]


@pytest.fixture()
def worker_state():
    """The worker module's process state, emptied again afterwards."""
    yield worker._WORKER_STATE
    worker._WORKER_STATE.clear()


# ----------------------------------------------------------------------
# (a) The one-round invariant, in-process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_shards", [2, 3, 5])
@pytest.mark.parametrize("substrate", ["quadtree", "grid", "rtree"])
@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_open_replies_finish_the_merge_without_a_resume(
    relation, substrate, n_shards, worker_state
):
    points, capacity = RELATIONS[relation]
    batch = _adversarial_batch(points)
    reference = _reference(points, capacity, batch, INCREMENTAL)
    # Never started: the tier only partitions the relation here.
    tier = ShardedServingTier(
        SpatialTable("t", points, capacity=capacity),
        shard_mode="data",
        shard_plan=plan_shards(_routing_index(substrate, points), n_shards),
        manager_kwargs={"max_k": MAX_K},
    )
    payloads = [tier.supervisor.handle(sid)._init_payload for sid in tier.supervisor.shard_ids]
    tier.close()
    # A shard is shipped its blocks and rows, and no planner configuration.
    assert all(set(p) == {"snapshot", "rows", "points", "gpos"} for p in payloads)
    if relation == "handful" and n_shards == 5:
        assert any(p["rows"].size == 0 for p in payloads)  # an empty shard
    assert min(p["rows"].size for p in payloads) < int(batch.ks.max())

    replies = []
    for sid, payload in enumerate(payloads):
        worker._init_data_shard_worker(sid, 0, payload, None)
        replies.append(
            worker._serve_data_shard_chunk(
                {"round": "open", "points": batch.points, "ks": batch.ks}
            )
        )
        # The columns only: a worker keeps no statistics to estimate with.
        assert set(replies[-1]) == {"columns"}
    columns = [reply["columns"] for reply in replies]
    merged = merge_open(columns, batch.ks, np.arange(len(batch)))
    for i, (expected, __) in enumerate(reference):
        replayed = replay(columns, i, int(batch.ks[i]))
        assert replayed is not None, f"query {i} asked for a resume"
        assert merged[i] is not None, f"query {i} was refused"
        assert_same_merge(merged[i], replayed)
        assert np.array_equal(merged[i][0], expected.row_ids), i
        assert merged[i][2] == expected.blocks_scanned, i


def _old_open_loop(payload: dict, point: Point, k: int) -> tuple[list, int]:
    """The open round as it was before the array browse: one
    ``QueryMerge`` over the shard's single block stream, resumed with
    in-process ``gather_blocks`` fetches.  Returns the entries up to the
    local stop and the stop itself (the merge's admitted blocks)."""
    snapshot, rows, points = payload["snapshot"], payload["rows"], payload["points"]
    starts = np.concatenate([[0], np.cumsum(snapshot.counts)])

    def block_rows(block_id: int, row: int):
        return rows[starts[row] : starts[row + 1]], points[starts[row] : starts[row + 1]]

    stream = SnapshotBlockStream(snapshot, point)
    merge = QueryMerge(k)
    merge.add_stream(0, [], 0, stream.bound(0))
    run_merges(
        {0: merge},
        lambda asked: {0: gather_blocks([(stream, *need) for __, *need in asked[0]], block_rows)},
    )
    return merge.streams[0].entries[: merge.admitted], merge.admitted


@pytest.mark.parametrize("seed", range(6))
def test_open_replies_are_the_old_loops_entries_up_to_the_local_stop(seed, worker_state):
    """Same blocks, keys, rows and distance bits as the merge loop the
    open round used to run — cut at the local stop, not at what the old
    loop happened to fetch — and the stream's own bound at that cursor,
    read back from the reply's columns."""
    rng = np.random.default_rng(seed)
    lattice = _lattice()
    points = np.vstack(
        [lattice[rng.choice(lattice.shape[0], 120)], rng.uniform(0.0, 11.0, (120, 2))]
    )
    tier = ShardedServingTier(
        SpatialTable("t", points, capacity=int(rng.choice([4, 8, 16]))),
        shard_mode="data",
        n_shards=int(rng.integers(2, 5)),
        manager_kwargs={"max_k": MAX_K},
    )
    payloads = [tier.supervisor.handle(sid)._init_payload for sid in tier.supervisor.shard_ids]
    tier.close()
    focal = np.vstack([rng.uniform(-3.0, 14.0, (24, 2)), points[rng.choice(240, 8)]])
    ks = rng.integers(1, 80, focal.shape[0])
    for sid, payload in enumerate(payloads):
        worker._init_data_shard_worker(sid, 0, payload, None)
        columns = worker._serve_data_shard_chunk(
            {"round": "open", "points": focal, "ks": ks}
        )["columns"]
        assert columns.counts.sum() == columns.mindists.shape[0] == columns.sizes.shape[0]
        assert columns.sizes.sum() == columns.row_ids.shape[0] == columns.dists.shape[0]
        for i, ((x, y), k) in enumerate(zip(focal.tolist(), ks)):
            entries, cursor, bound = columns.stream(i)
            old, stop = _old_open_loop(payload, Point(x, y), int(k))
            assert cursor == stop == len(entries) == len(old) == columns.counts[i]
            assert bound == SnapshotBlockStream(payload["snapshot"], Point(x, y)).bound(cursor)
            assert np.isnan(columns.bounds[i]).all() == (bound is None)
            for new, was in zip(entries, old):
                assert new[:3] == was[:3]
                assert new[3].tolist() == was[3].tolist()
                assert new[4].tobytes() == was[4].tobytes()


def test_two_shard_merge_scans_the_block_whose_corner_holds_the_kth_row(worker_state):
    """``dist == MINDIST`` is not strictly below: heap == engine == 2-shard merge."""
    table, query = corner_tie_table()
    rows, scanned = heap_knn_select(table, query)
    engine = SpatialEngine(StatisticsManager(max_k=MAX_K, pinned_operators=INCREMENTAL))
    engine.register(table)
    expected, __ = engine.execute(query)
    tier = ShardedServingTier(
        table, shard_mode="data", n_shards=2, manager_kwargs={"max_k": MAX_K}
    )
    payloads = [tier.supervisor.handle(sid)._init_payload for sid in tier.supervisor.shard_ids]
    tier.close()
    assert all(p["rows"].size for p in payloads)  # the four blocks span both shards
    point = np.array([[query.query.x, query.query.y]])
    columns = []
    for sid, payload in enumerate(payloads):
        worker._init_data_shard_worker(sid, 0, payload, None)
        reply = worker._serve_data_shard_chunk({"round": "open", "points": point, "ks": [query.k]})
        columns.append(reply["columns"])
    (merged,) = merge_open(columns, np.array([query.k]), np.arange(1))
    replayed = replay(columns, 0, query.k)
    assert_same_merge(merged, replayed)
    assert merged[0].tolist() == expected.row_ids.tolist() == rows.tolist() == [2, 1, 0]
    assert merged[2] == expected.blocks_scanned == scanned == 4


def _serve_on_one_shard(points, capacity, payload: dict) -> dict:
    table = SpatialTable("t", points, capacity=capacity)
    tier = ShardedServingTier(table, shard_mode="data", n_shards=1)
    init = tier.supervisor.handle(0)._init_payload
    tier.close()
    worker._init_data_shard_worker(0, 0, init, None)
    return worker._serve_data_shard_chunk(payload)


@pytest.mark.parametrize("missing", ["cursors", "min_points", "min_mindists"])
def test_malformed_resume_round_is_a_value_error(missing, worker_state):
    points, capacity = RELATIONS["lattice"]
    payload = {
        "round": "resume",
        "points": points[:2],
        "ks": [3, 3],
        "cursors": [0, 0],
        "min_points": [3, 3],
        "min_mindists": [-np.inf, -np.inf],
    }
    well_formed = _serve_on_one_shard(points, capacity, payload)
    assert [cursor for __, cursor, __ in well_formed["streams"]] == [1, 1]
    del payload[missing]
    with pytest.raises(ValueError, match="resume round needs"):
        worker._serve_data_shard_chunk(payload)
    payload[missing] = [0]  # one value for two queries
    with pytest.raises(ValueError, match="resume round needs"):
        worker._serve_data_shard_chunk(payload)


def test_local_browse_checks_the_budget_between_fetches(worker_state, monkeypatch):
    """A deadline blown inside the open round surfaces mid-round.

    The first checkpoints pass; the clock is then moved past the budget,
    so the error can only come from a check between browse rounds.
    """
    points, capacity = RELATIONS["lattice"]
    batch = _adversarial_batch(points)
    payload = {"round": "open", "points": batch.points, "ks": batch.ks, "budget_seconds": 5.0}
    assert _serve_on_one_shard(points, capacity, payload)["columns"].counts.shape == (len(batch),)

    real = worker.time.perf_counter
    calls = []

    def clock() -> float:
        calls.append(None)
        return real() + (10.0 if len(calls) > 3 else 0.0)

    monkeypatch.setattr(worker.time, "perf_counter", clock)
    with pytest.raises(BudgetExceededError, match="local browse"):
        worker._serve_data_shard_chunk(payload)


# ----------------------------------------------------------------------
# Live tiers
# ----------------------------------------------------------------------
def _live_tier(pins: dict, **kwargs) -> ShardedServingTier:
    points, capacity = RELATIONS["lattice"]
    kwargs.setdefault("shard_mode", "data")
    return ShardedServingTier(
        SpatialTable("t", points, capacity=capacity),
        n_shards=2,
        manager_kwargs={"max_k": MAX_K, "pinned_operators": pins},
        policy=POLICY,
        **kwargs,
    )


def _assert_same_answers(report, reference) -> None:
    assert report.n_degraded == 0 and report.n_partial == 0
    for i, (expected, explanation) in enumerate(reference):
        assert np.array_equal(report.results[i].row_ids, expected.row_ids), i
        assert report.results[i].blocks_scanned == expected.blocks_scanned, i
        assert report.explanations[i].chosen == explanation.chosen, i


@pytest.mark.parametrize("pins, rounds_per_chunk", [(INCREMENTAL, 1), (FILTER, 2)])
def test_healthy_batch_takes_one_round_per_shard_per_chunk(pins, rounds_per_chunk):
    """(b) open alone answers an incremental chunk; filter adds its scan."""
    points, capacity = RELATIONS["lattice"]
    batch = _adversarial_batch(points)
    chunk_size = 8
    with _live_tier(pins, chunk_size=chunk_size) as tier:
        report = tier.serve(batch)
    _assert_same_answers(report, _reference(points, capacity, batch, pins))
    expected = rounds_per_chunk * math.ceil(len(batch) / chunk_size)
    for shard in report.shards:
        assert shard.n_chunks == shard.attempts == expected, shard.describe()
        assert shard.retries == shard.respawns == shard.failures == 0


def first_blocks_only(columns: OpenReply) -> OpenReply:
    """Each query's reply cut back to its first block; where more
    followed, the bound becomes the first cut block's key."""
    starts = np.cumsum(columns.counts) - columns.counts
    kept = np.zeros(columns.mindists.shape[0], dtype=bool)
    kept[starts[columns.counts > 0]] = True
    cut = columns.counts > 1
    bounds = columns.bounds.copy()
    nxt = starts[cut] + 1
    bounds[cut] = np.column_stack(
        (columns.mindists[nxt], columns.block_ids[nxt], columns.mindists[nxt])
    )
    rows = np.repeat(kept, columns.sizes)
    return OpenReply(
        np.minimum(columns.counts, 1), columns.mindists[kept], columns.block_ids[kept],
        columns.sizes[kept], columns.row_ids[rows], columns.dists[rows], bounds,
    )


class CountingMerge(QueryMerge):
    """A ``QueryMerge`` that counts its instances."""

    built = 0

    def __init__(self, k: int) -> None:
        type(self).built += 1
        super().__init__(k)


def test_truncated_open_replies_are_extended_through_resume(monkeypatch):
    """(c) cut every open reply's columns back to each query's first
    block: the array merge refuses, and resume repairs it."""
    points, capacity = RELATIONS["lattice"]
    batch = _adversarial_batch(points)
    monkeypatch.setattr(CountingMerge, "built", 0)
    monkeypatch.setattr(coordinator, "QueryMerge", CountingMerge)
    with _live_tier(INCREMENTAL, chunk_size=16) as tier:
        collect = tier.supervisor.collect

        def truncating(round_):
            answers = collect(round_)
            for sid, answer in answers.items():
                if round_.payloads[sid]["round"] == "open":
                    answer["columns"] = first_blocks_only(answer["columns"])
            return answers

        tier.supervisor.collect = truncating
        report = tier.serve(batch)
    _assert_same_answers(report, _reference(points, capacity, batch, INCREMENTAL))
    opens = math.ceil(len(batch) / 16)
    assert all(shard.n_chunks > opens for shard in report.shards)
    assert CountingMerge.built > 0


def test_a_healthy_chunk_builds_no_query_merge_and_sends_no_resume(monkeypatch):
    """The array merge answers every healthy incremental chunk by itself."""
    points, capacity = RELATIONS["lattice"]
    batch = _adversarial_batch(points)
    monkeypatch.setattr(CountingMerge, "built", 0)
    monkeypatch.setattr(coordinator, "QueryMerge", CountingMerge)
    with _live_tier(INCREMENTAL, chunk_size=8) as tier:
        send, kinds = tier.supervisor.send, []

        def recording(payloads, deadline):
            kinds.extend(payload["round"] for payload in payloads.values())
            return send(payloads, deadline)

        tier.supervisor.send = recording
        report = tier.serve(batch)
    _assert_same_answers(report, _reference(points, capacity, batch, INCREMENTAL))
    assert CountingMerge.built == 0
    assert kinds == ["open"] * (2 * math.ceil(len(batch) / 8))


@pytest.mark.parametrize("shard_mode", ["data", "replica"])
def test_serving_starts_no_thread_per_request_and_close_leaves_nothing(
    shard_mode, monkeypatch
):
    """(d) threads belong to the tier; close() joins them and the workers."""
    points, __ = RELATIONS["lattice"]
    batch = _adversarial_batch(points)
    threads_before = threading.active_count()
    assert multiprocessing.active_children() == []
    tier = _live_tier(INCREMENTAL, shard_mode=shard_mode, chunk_size=len(batch)).start()
    try:
        tier.serve(batch)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start", lambda self: (started.append(self.name), start(self))[1]
        )
        for __ in range(50):
            tier.serve(batch)
        monkeypatch.undo()
        tier_threads = [t.name for t in threading.enumerate() if t.name.startswith("tier-")]
        # Only the chunk pool holds threads, filled lazily up to its size
        # — two shards: at most two — however many batches run.  A
        # chunk's thread drives its rounds itself.
        assert len(started) <= len(tier_threads) <= 2, (started, tier_threads)
        assert len(multiprocessing.active_children()) == 2
    finally:
        tier.close()
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before, threading.enumerate()


def test_close_also_joins_a_retired_incarnation():
    """A hung worker is terminated without waiting; close() reaps it too."""
    points, capacity = RELATIONS["lattice"]
    batch = _adversarial_batch(points)
    threads_before = threading.active_count()
    hang_once = WorkerFaultPlan.of(WorkerFaultSpec(kind="hang", shard=0, on_batch=0, seconds=60.0))
    tier = ShardedServingTier(
        SpatialTable("t", points, capacity=capacity),
        shard_mode="data",
        n_shards=2,
        manager_kwargs={"max_k": MAX_K, "pinned_operators": INCREMENTAL},
        policy=SupervisionPolicy(max_retries=1, backoff_base=0.01, chunk_timeout=1.5),
        worker_faults=hang_once,
    )
    try:
        report = tier.serve(batch)
    finally:
        tier.close()
    _assert_same_answers(report, _reference(points, capacity, batch, INCREMENTAL))
    assert report.shards[0].respawns == 1 and tier.pools_spawned == 3
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before, threading.enumerate()


@pytest.mark.parametrize(
    "shard_mode, workers_per_shard", [("data", 2), ("data", 1), ("replica", 1)]
)
def test_pipelined_multi_chunk_batches_do_not_deadlock(shard_mode, workers_per_shard):
    """(d) chunk tasks wait on fan-out tasks: they must not share a pool."""
    points, capacity = RELATIONS["lattice"]
    batch = _adversarial_batch(points)
    reference = _reference(points, capacity, batch, INCREMENTAL)
    outcome = []
    with _live_tier(
        INCREMENTAL, shard_mode=shard_mode, workers_per_shard=workers_per_shard, chunk_size=4
    ) as tier:
        pipeline = threading.Thread(
            target=lambda: outcome.append(tier.serve_many([batch] * 8, max_in_flight=4)),
            daemon=True,
        )
        pipeline.start()
        pipeline.join(timeout=120)
        assert not pipeline.is_alive(), "serve_many did not finish: pool deadlock"
    (many,) = outcome
    assert many.n_overloaded == 0 and many.n_queries == 8 * len(batch)
    for report in many.reports:
        _assert_same_answers(report, reference)
