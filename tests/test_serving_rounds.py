"""The data tier's gather rounds and thread ownership.

The coordinator runs the engine's distance browse over the table's
global snapshot, and each browse round's gather is one stateless
``gather`` round to the shards that own its window blocks: a shard
replies, per (query, block), the block's row ids and ``np.hypot``
distances from its own view.  Asserted here without a wall clock:

* **served == engine**, in-process on adversarial inputs (distance ties
  at the k-th, duplicates, ``k`` beyond a shard's or the relation's row
  count, an empty shard, a query outside the universe) in both shard
  modes over one to five shards: every query's whole ``Browsed`` —
  blocks, sizes, row ids and distance bits — and its answer and plan
  equal the unsharded engine's; a window inside one shard asks that
  shard alone; a worker's gather reply is its view's, bit for bit;
* **refusals**: a malformed gather payload is a ``ValueError``; a reply
  whose lengths do not fit its blocks' counts is a failed attempt
  (retried, never an answer), as a stale reply is;
* **the deadline** is checked between browse rounds: a round sent after
  it expired asks no worker, and what it would have gathered is lost;
* **round counts** of a live tier: one gather round per chunk here,
  plus a scan for the filter plan, and on the benchmark's seed-800
  requests a pinned count of gather rounds and shards asked;
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

from repro.datasets import generate_osm_like
from repro.engine import SpatialEngine, SpatialTable, StatisticsManager
from repro.index import GridIndex, Quadtree, RTree
from repro.knn.browse import browse as engine_browse
from repro.knn.browse import view_gather
from repro.resilience import WorkerFaultPlan, WorkerFaultSpec
from repro.knn import browse as browse_module
from repro.serving import Deadline, ShardedServingTier, SupervisionPolicy, plan_shards
from repro.serving import coordinator, worker
from repro.serving.supervisor import Round
from repro.workloads import QueryBatch
from tests.heap_oracle import corner_tie_table, heap_knn_select
from tests.test_browser_differential import _requests

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


@pytest.fixture()
def worker_state():
    """The worker module's process state, emptied again afterwards."""
    yield worker._WORKER_STATE
    worker._WORKER_STATE.clear()


def in_process(tier: ShardedServingTier) -> list:
    """Serve ``tier``'s rounds in this process, each shard from its own
    payload: its supervisor's ``send`` runs the worker's round function
    and ``collect`` returns the replies.  Returns the rounds' payloads by
    shard, as sent."""
    supervisor = tier.supervisor
    inits = {sid: supervisor.handle(sid)._init_payload for sid in supervisor.shard_ids}
    sent, lock = [], threading.Lock()  # replica lanes run on the tier's threads

    def send(payloads, deadline, check=None):
        round_ = Round(payloads, deadline, check)
        with lock:
            sent.append(round_.payloads)
            for sid, payload in round_.payloads.items():
                worker._init_data_shard_worker(sid, 0, inits[sid], None)
                reply = worker._serve_data_shard_chunk(payload)
                assert check is None or check(sid, reply) is None
                round_.answers[sid] = reply
        return round_

    supervisor.send = send
    supervisor.collect = lambda round_: round_.answers
    return sent


def _assert_same_browse(got, want) -> None:
    for name in got._fields[:-1]:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.gap is want.gap is None


# ----------------------------------------------------------------------
# (a) Served == engine, in-process
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
@pytest.mark.parametrize("substrate", ["quadtree", "grid", "rtree"])
@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_gather_rounds_browse_as_the_engine(
    relation, substrate, n_shards, worker_state, monkeypatch
):
    """Both shard modes: whole ``Browsed`` tuples, answers and plans."""
    points, capacity = RELATIONS[relation]
    batch = _adversarial_batch(points)
    table = SpatialTable("t", points, capacity=capacity)
    reference = _reference(points, capacity, batch, INCREMENTAL)
    view = view_gather(*table.block_points)
    expected = engine_browse(table.snapshot, view, batch.points, batch.ks)
    browsed = {}

    def recording(snapshot, gather, pts, ks):
        out = engine_browse(snapshot, gather, pts, ks)
        browsed.update(((x, y, k), b) for (x, y), k, b in zip(pts.tolist(), ks.tolist(), out))
        return out

    monkeypatch.setattr(coordinator, "browse", recording)
    for shard_mode in ("data", "replica"):
        browsed.clear()
        tier = ShardedServingTier(
            table,
            shard_mode=shard_mode,
            shard_plan=plan_shards(_routing_index(substrate, points), n_shards),
            chunk_size=16,
            manager_kwargs={"max_k": MAX_K, "pinned_operators": INCREMENTAL},
        )
        payloads = [tier.supervisor.handle(sid)._init_payload for sid in tier.supervisor.shard_ids]
        # A shard is shipped its blocks and rows, and no planner configuration.
        assert all(set(p) == {"block_ids", "counts", "rows", "points", "gpos"} for p in payloads)
        if shard_mode == "data" and relation == "handful" and n_shards == 5:
            assert any(p["rows"].size == 0 for p in payloads)  # an empty shard
        in_process(tier)
        report = tier.serve(batch)
        tier.close()
        assert report.n_degraded == 0 and report.n_partial == 0
        for i, (want, explanation) in enumerate(reference):
            got, served = report.results[i], report.explanations[i]
            assert got.row_ids.tolist() == want.row_ids.tolist(), (shard_mode, i)
            assert got.blocks_scanned == want.blocks_scanned, (shard_mode, i)
            for name in ("chosen", "alternatives", "estimator_tier", "effective_k", "notes"):
                assert getattr(served, name) == getattr(explanation, name), (shard_mode, i, name)
            # The query's browse is the engine's to the distance bit.
            (x, y), k = batch.points[i].tolist(), int(batch.ks[i])
            _assert_same_browse(browsed[x, y, k], expected[i])


def test_a_window_inside_one_shard_asks_that_shard_alone(worker_state):
    """Small ``k`` near a corner: the window's blocks, and so the round,
    are one shard's; ``k >= n`` sends one round to every shard."""
    points, capacity = RELATIONS["lattice"]
    table = SpatialTable("t", points, capacity=capacity)
    tier = ShardedServingTier(
        table, shard_mode="data", n_shards=3, manager_kwargs={"max_k": MAX_K}
    )
    sent = in_process(tier)
    corner = QueryBatch(points=np.array([[0.0, 0.0]]), ks=np.array([1]))
    report = tier.serve(corner)
    (asked,) = sent
    owner = tier.plan.assign(np.array([[0.0, 0.0]]))[0]
    assert list(asked) == [owner]
    assert [s.n_chunks for s in report.shards] == [int(s == owner) for s in range(3)]
    sent.clear()
    n = points.shape[0]
    every = QueryBatch(points=np.array([[5.0, 5.0], [40.0, -3.0]]), ks=np.array([n, n + 5]))
    report = tier.serve(every)
    tier.close()
    (asked,) = sent
    assert list(asked) == [0, 1, 2]
    for got, (want, __) in zip(report.results, _reference(points, capacity, every, {})):
        assert got.row_ids.tolist() == want.row_ids.tolist()
        assert got.blocks_scanned == want.blocks_scanned == table.index.num_blocks


@pytest.mark.parametrize("seed", range(6))
def test_a_worker_gather_is_the_views_to_the_distance_bit(seed, worker_state):
    """A data shard's gather reply, for any of its blocks in any order and
    any focal points, is the engine view's gather: row ids and distance
    bits, block by block."""
    rng = np.random.default_rng(seed)
    lattice = _lattice()
    points = np.vstack(
        [lattice[rng.choice(lattice.shape[0], 120)], rng.uniform(0.0, 11.0, (120, 2))]
    )
    table = SpatialTable("t", points, capacity=int(rng.choice([4, 8, 16])))
    tier = ShardedServingTier(
        table, shard_mode="data", n_shards=int(rng.integers(2, 5)), manager_kwargs={"max_k": MAX_K}
    )
    payloads = [tier.supervisor.handle(sid)._init_payload for sid in tier.supervisor.shard_ids]
    tier.close()
    view = view_gather(*table.block_points)
    focal = np.vstack([rng.uniform(-3.0, 14.0, (24, 2)), points[rng.choice(240, 8)]])
    for sid, payload in enumerate(payloads):
        owned = payload["block_ids"]
        if owned.size == 0:
            continue
        worker._init_data_shard_worker(sid, 0, payload, None)
        w = int(rng.integers(1, owned.size + 1))
        blocks = np.stack([rng.permutation(owned)[:w] for __ in range(focal.shape[0])])
        reply = worker._serve_data_shard_chunk(
            {"round": "gather", "points": focal.tobytes(),
             "counts": np.full(focal.shape[0], w).tobytes(), "blocks": blocks.tobytes()}
        )
        rows, dists, sizes = view(focal, blocks)
        assert reply["row_ids"] == rows.tobytes() and reply["dists"] == dists.tobytes()
        assert sizes.sum() == rows.shape[0]


def test_a_two_shard_tier_scans_the_block_whose_corner_holds_the_kth_row(worker_state):
    """``dist == MINDIST`` is not strictly below: heap == engine == 2-shard tier."""
    table, query = corner_tie_table()
    rows, scanned = heap_knn_select(table, query)
    engine = SpatialEngine(StatisticsManager(max_k=MAX_K, pinned_operators=INCREMENTAL))
    engine.register(table)
    expected, __ = engine.execute(query)
    tier = ShardedServingTier(
        table, shard_mode="data", n_shards=2,
        manager_kwargs={"max_k": MAX_K, "pinned_operators": INCREMENTAL},
    )
    payloads = [tier.supervisor.handle(sid)._init_payload for sid in tier.supervisor.shard_ids]
    assert all(p["rows"].size for p in payloads)  # the four blocks span both shards
    in_process(tier)
    batch = QueryBatch(np.array([[query.query.x, query.query.y]]), np.array([query.k]))
    (served,) = tier.serve(batch).results
    tier.close()
    assert served.row_ids.tolist() == expected.row_ids.tolist() == rows.tolist() == [2, 1, 0]
    assert served.blocks_scanned == expected.blocks_scanned == scanned == 4


def _one_shard(points, capacity) -> dict:
    """Make this process the one shard of a tier over ``points``; returns its payload."""
    table = SpatialTable("t", points, capacity=capacity)
    tier = ShardedServingTier(table, shard_mode="data", n_shards=1)
    init = tier.supervisor.handle(0)._init_payload
    tier.close()
    worker._init_data_shard_worker(0, 0, init, None)
    return init


@pytest.mark.parametrize("malformed", ["counts", "points", "blocks"])
def test_malformed_gather_round_is_a_value_error(malformed, worker_state):
    points, capacity = RELATIONS["lattice"]
    owned = _one_shard(points, capacity)["block_ids"]
    payload = {
        "round": "gather",
        "points": points[:2],
        "counts": np.array([2, 1]),
        "blocks": owned[[0, 1, 2]],
    }
    well_formed = worker._serve_data_shard_chunk(payload)
    assert len(well_formed["row_ids"]) == len(well_formed["dists"]) > 0
    bad = {
        "counts": [dict(payload, counts=np.array([2, 2])), dict(payload, counts=np.array([3]))],
        "points": [dict(payload, points=points[:3]), dict(payload, points=np.zeros((2, 3)))],
        "blocks": [
            dict(payload, blocks=owned[[0, 1]]),
            dict(payload, blocks=np.array([0, 1, owned.max() + 1])),
        ],
    }[malformed]
    for payload in bad:
        with pytest.raises(ValueError, match="gather round"):
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


def test_a_healthy_chunk_sends_gather_rounds_only():
    """Every chunk of eight holds a ``k >= n`` query, so its one window
    holds every block: one gather round to each shard, nothing else."""
    points, capacity = RELATIONS["lattice"]
    batch = _adversarial_batch(points)
    with _live_tier(INCREMENTAL, chunk_size=8) as tier:
        send, kinds = tier.supervisor.send, []

        def recording(payloads, deadline, check=None):
            kinds.extend(payload["round"] for payload in payloads.values())
            return send(payloads, deadline, check)

        tier.supervisor.send = recording
        report = tier.serve(batch)
    _assert_same_answers(report, _reference(points, capacity, batch, INCREMENTAL))
    assert kinds == ["gather"] * (2 * math.ceil(len(batch) / 8))


@pytest.mark.parametrize("column", ["row_ids", "dists"])
def test_a_gather_reply_cut_short_is_a_failed_attempt(column):
    """A reply whose lengths do not match its blocks' counts is never an
    answer: the worker is retired and the round retried, exactly."""
    points, capacity = RELATIONS["lattice"]
    batch = _adversarial_batch(points)
    with _live_tier(INCREMENTAL, chunk_size=len(batch)) as tier:
        handle = tier.supervisor.handle(0)
        read, cut = handle.read, []

        def cutting(slot):
            ok, value = read(slot)
            if ok and not cut:
                cut.append(column)
                value = dict(value, **{column: value[column][:-1]})
            return ok, value

        handle.read = cutting
        report = tier.serve(batch)
        spawned = tier.pools_spawned
    _assert_same_answers(report, _reference(points, capacity, batch, INCREMENTAL))
    shard = report.shards[0]
    assert cut == [column]
    assert shard.failures == shard.retries == shard.respawns == 1 and spawned == 3
    assert shard.attempts == shard.n_chunks + 1


class _SpentAfterFirstRound(Deadline):
    """A deadline that expires once the first round has been read."""

    spent = False

    def remaining(self) -> float:
        return 0.0 if self.spent else 60.0

    def expired(self) -> bool:
        return self.spent


def test_the_deadline_is_checked_between_browse_rounds(monkeypatch):
    """Past the deadline a gather round asks no worker: the queries the
    first round finished are exact, the rest come back partial — a
    verified prefix below their first block that was not gathered."""
    points, capacity = RELATIONS["lattice"]
    batch = QueryBatch(
        points=np.array([[5.5, 5.5], [5.0, 5.0], [3.0, 6.0], [11.0, 0.0], [-7.0, 4.5]]),
        ks=np.array([1, 1, 2, 1, 3]),
    )
    reference = _reference(points, capacity, batch, INCREMENTAL)
    deadline = _SpentAfterFirstRound(None)
    monkeypatch.setattr(coordinator.Deadline, "after_ms", staticmethod(lambda ms: deadline))
    # One block of slack: the first window is a block or two, too few for some.
    monkeypatch.setattr(browse_module, "_WINDOW_SLACK", 1)
    with _live_tier(INCREMENTAL, chunk_size=len(batch)) as tier:
        collect = tier.supervisor.collect

        def expiring(round_):
            answers = collect(round_)
            deadline.spent = True
            return answers

        tier.supervisor.collect = expiring
        report = tier.serve(batch)
    assert report.n_degraded == 0 and 0 < report.n_partial < len(batch)
    first_round = [s.n_chunks for s in report.shards]
    assert all(s.attempts <= 1 for s in report.shards) and sum(first_round) > sum(
        s.attempts for s in report.shards
    )
    for i, (expected, __) in enumerate(reference):
        rows = report.results[i].row_ids
        if report.partial[i]:
            assert rows.tolist() == expected.row_ids[: rows.size].tolist(), i
            assert any("partial" in note for note in report.explanations[i].notes), i
        else:
            assert rows.tolist() == expected.row_ids.tolist(), i
            assert report.results[i].blocks_scanned == expected.blocks_scanned, i


@pytest.fixture()
def benchmark_tier():
    """The benchmark's ``serve_data`` tier at seed 800: 60,000 OSM-like
    points at capacity 64 over two data shards, ``max_k`` 256."""
    points = generate_osm_like(60_000, seed=np.random.default_rng([800, 0]), structure_seed=2015)
    tier = ShardedServingTier(
        SpatialTable("points", points, capacity=64),
        shard_mode="data",
        n_shards=2,
        manager_kwargs={"max_k": 256},
    )
    with tier:
        yield tier


def test_the_benchmark_requests_take_pinned_gather_rounds(benchmark_tier):
    """The 128 requests of ``serve_data`` (4 queries each): 131 gather
    rounds — three requests need a second — that ask 250 shards in all
    (six rounds find every window block on one shard), and no scan
    round.  The open protocol asked both shards once per request: 256
    rounds, each a whole local browse."""
    tier = benchmark_tier
    send, rounds = tier.supervisor.send, []

    def recording(payloads, deadline, check=None):
        rounds.append(sorted((sid, payload["round"]) for sid, payload in payloads.items()))
        return send(payloads, deadline, check)

    tier.supervisor.send = recording
    one_round = asked = 0
    for focal, ks in _requests(tier.table.points):
        before = len(rounds)
        report = tier.serve(QueryBatch(focal, ks))
        assert report.n_degraded == 0 and report.n_partial == 0
        one_round += len(rounds) - before == 1
        asked += sum(s.n_chunks for s in report.shards)
    kinds = {kind for sent in rounds for __, kind in sent}
    assert (len(rounds), asked, one_round, kinds) == (131, 250, 125, {"gather"})


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
