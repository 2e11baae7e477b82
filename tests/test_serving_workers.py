"""Shard workers over pipes: one process and one duplex pipe per slot.

The chaos suite drives faults through the worker fault plan; this file
reaches the same supervision contract from outside it:

* a worker **killed between batches** (a real ``SIGKILL``, not the fault
  plan) is found dead at the next round, retired and respawned, and the
  batch is still exact;
* a **typed worker error** comes back as a counted failure and the
  worker is kept: no respawn, no new process;
* the **stale-reply guard**: a reply that does not echo the request's
  sequence number is never taken for an answer — the worker is retired;
* the first ``gather`` round is **sent before planning**, and a plan
  that raises still has its replies read, so every worker goes back
  idle;
* chunk threads **share each shard's idle queue** without losing a
  worker, under a short switch interval.
"""

from __future__ import annotations

import ast
import os
import signal
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.engine import SpatialEngine, SpatialTable, StatisticsManager
from repro.serving import Deadline, ShardedServingTier, ShardUnavailable, SupervisionPolicy
from repro.serving import coordinator
from repro.serving.worker import _worker_ping
from repro.workloads import QueryBatch

MAX_K = 32
N_SHARDS = 2
POLICY = SupervisionPolicy(max_retries=1, backoff_base=0.01, chunk_timeout=20.0)
PINS = {"select": "incremental-knn"}


@pytest.fixture(scope="module")
def relation():
    rng = np.random.default_rng(5)
    points = rng.uniform(0.0, 100.0, size=(600, 2))
    batch = QueryBatch(points=rng.uniform(0.0, 100.0, size=(24, 2)), ks=rng.integers(1, 20, 24))
    engine = SpatialEngine(StatisticsManager(max_k=MAX_K, pinned_operators=PINS))
    engine.register(SpatialTable("t", points, capacity=16))
    return points, batch, engine.execute_batch(batch.as_knn_queries("t"))


@pytest.fixture()
def tier(relation):
    points, __, __ = relation
    tier = ShardedServingTier(
        SpatialTable("t", points, capacity=16),
        shard_mode="data",
        n_shards=N_SHARDS,
        chunk_size=8,
        manager_kwargs={"max_k": MAX_K, "pinned_operators": PINS},
        policy=POLICY,
    ).start()
    yield tier
    tier.close()


def _assert_exact(report, reference) -> None:
    assert report.n_degraded == 0 and report.n_partial == 0
    for i, (expected, __) in enumerate(reference):
        assert np.array_equal(report.results[i].row_ids, expected.row_ids), i
        assert report.results[i].blocks_scanned == expected.blocks_scanned, i


def _total(report, field: str) -> int:
    return sum(getattr(shard, field) for shard in report.shards)


def test_a_worker_killed_between_batches_is_respawned(tier, relation):
    __, batch, reference = relation
    _assert_exact(tier.serve(batch), reference)
    victim = tier.supervisor.handle(1)._slots[0].process
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    report = tier.serve(batch)
    _assert_exact(report, reference)
    assert _total(report, "respawns") == 1
    assert report.shards[1].respawns == 1 and report.shards[1].retries == 1
    assert tier.pools_spawned == N_SHARDS + 1


def test_a_typed_worker_error_keeps_the_worker(tier, relation):
    __, batch, reference = relation
    before = tier.pools_spawned
    malformed = {"round": "gather", "points": batch.points[:4], "counts": [1] * 4, "blocks": [0]}
    with pytest.raises(ShardUnavailable) as caught:
        tier.supervisor.serve_chunk(0, malformed, Deadline(None))
    attempts = POLICY.max_retries + 1
    assert len(caught.value.attempts) == attempts
    needs = "ValueError: a gather round needs"
    assert all(line.startswith(needs) for line in caught.value.attempts)
    counters = tier.supervisor.counters(0)
    assert counters.failures == counters.attempts == attempts
    assert counters.respawns == 0 and counters.timeouts == 0
    assert tier.pools_spawned == before
    report = tier.serve(batch)
    _assert_exact(report, reference)
    assert _total(report, "respawns") == 0 and tier.pools_spawned == before


def test_a_stale_reply_is_never_an_answer(tier, relation):
    """A worker put back with its reply unread answers the next round out
    of step: that reply is refused, the worker retired, the round retried."""
    __, batch, reference = relation
    handle = tier.supervisor.handle(0)
    worker = handle.checkout(timeout=5)
    handle.send(worker, _worker_ping)
    handle.checkin(worker)  # the protocol forbids this: the reply is unread
    report = tier.serve(batch)
    _assert_exact(report, reference)
    assert report.shards[0].respawns == 1 and report.shards[1].respawns == 0
    assert tier.pools_spawned == N_SHARDS + 1


def test_the_first_gather_round_is_sent_before_planning(tier, relation, monkeypatch):
    __, batch, reference = relation
    plan = coordinator.explain_select_batch
    sent_at_plan = []

    def planning(stats, queries):
        sent_at_plan.append([tier.supervisor.counters(sid).attempts for sid in range(N_SHARDS)])
        return plan(stats, queries)

    monkeypatch.setattr(coordinator, "explain_select_batch", planning)
    _assert_exact(tier.serve(batch), reference)
    # Three chunks of eight, one round each: chunk c plans after its own
    # first gather round went out to both shards.
    assert sent_at_plan == [[1, 1], [2, 2], [3, 3]]


def test_a_plan_that_raises_still_reads_the_first_round_replies(tier, relation, monkeypatch):
    __, batch, reference = relation

    def failing(stats, queries):
        raise RuntimeError("planner down")

    monkeypatch.setattr(coordinator, "explain_select_batch", failing)
    with pytest.raises(RuntimeError, match="planner down"):
        tier.serve(batch)
    monkeypatch.undo()
    report = tier.serve(batch)
    _assert_exact(report, reference)
    assert _total(report, "failures") == 0 and _total(report, "respawns") == 0
    assert tier.pools_spawned == N_SHARDS


def test_concurrent_rounds_return_every_worker(relation):
    """Many chunk threads share each shard's idle queue: with a short
    switch interval and more rounds in flight than cores, every answer
    stays exact and every worker is back in its queue afterwards."""
    points, batch, reference = relation
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ShardedServingTier(
            SpatialTable("t", points, capacity=16),
            shard_mode="data",
            n_shards=N_SHARDS,
            workers_per_shard=2,
            chunk_size=4,
            manager_kwargs={"max_k": MAX_K, "pinned_operators": PINS},
            policy=POLICY,
        ) as tier:
            tier.start()
            outcome = []
            runner = threading.Thread(
                target=lambda: outcome.append(tier.serve_many([batch] * 12, max_in_flight=6)),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=120)
            assert not runner.is_alive(), "serve_many did not finish"
            idle = [tier.supervisor.handle(sid)._idle.qsize() for sid in range(N_SHARDS)]
            spawned = tier.pools_spawned
    finally:
        sys.setswitchinterval(interval)
    (many,) = outcome
    assert many.n_overloaded == 0 and many.n_queries == 12 * len(batch)
    for report in many.reports:
        _assert_exact(report, reference)
        assert _total(report, "failures") == 0
    assert idle == [2] * N_SHARDS and spawned == 2 * N_SHARDS


def test_serving_imports_no_process_pool():
    serving = Path(coordinator.__file__).parent
    for path in sorted(serving.glob("*.py")):
        names = {
            alias.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert "ProcessPoolExecutor" not in names, path.name
