"""The sharded serving coordinator: route, fan out, merge, degrade.

:class:`ShardedServingTier` is the front door of the serving
subsystem.  Per batch it:

1. guards the focal points and ``k`` values the way the engine does
   (:func:`~repro.resilience.guards.guard_select_batch`), so a bad
   query raises before it can cost a shard anything;
2. asks the :class:`~repro.serving.admission.AdmissionController` (if
   configured) for admission under the batch's deadline;
3. cuts the batch into ``chunk_size`` chunks, each addressed to the
   shards that own its blocks, plans every chunk at the coordinator
   with the engine's own planner over the whole relation
   (:func:`~repro.engine.planner.explain_select_batch`; workers keep no
   statistics), and drives it through the cross-shard merge protocol
   (open, merge — plus a scan round for filter plans).  The chunk's own
   thread sends each round to every shard's worker over its pipe and
   reads the replies; it sends the ``open`` round before planning, so
   the coordinator plans while the shards browse.  A batch's concurrent
   lanes run on a chunk pool the tier owns (started on first use,
   reused by every batch, joined by ``close()``); a batch one lane wide
   runs on its caller's thread.  Every round is served under the
   :class:`~repro.serving.supervisor.ShardSupervisor`'s
   deadline/retry/respawn/breaker contract;
4. merges the answers back into workload order with per-shard
   provenance (:class:`ShardReport`);
5. degrades instead of failing, and only the answer, never the plan: a
   query none of whose shards answered is estimate-only
   (``degraded=True``, ``results[i] is None``, its explanation the
   plan); a query that lost a shard part-way comes back ``partial`` (a
   verified prefix of the true answer, clamped by the lost shard's
   bound) — unless ``strict`` serving was requested, in which case a
   :class:`~repro.resilience.errors.ShardExhaustedError` is raised.

The two **shard modes** differ only in which blocks a shard owns and
which shards a query asks:

* ``"replica"`` (the default) — every shard owns every block; a query
  routes to one shard by its focal point, and that shard's ``open``
  reply is the whole answer.
* ``"data"`` — the relation is *partitioned*: each shard owns only its
  blocks and rows (memory ∝ n/shards), and every query asks all
  shards.

Either way every non-degraded answer is bit-identical to an unsharded
:class:`~repro.engine.SpatialEngine`: the merge replays the exact
global block admission.

The tier is **long-lived**: :meth:`~ShardedServingTier.start` spawns
every worker eagerly, :meth:`~ShardedServingTier.serve_many`
pipelines multiple in-flight batches through the same workers with
per-query latency accounting, and ``pools_spawned`` proves the spawn
cost was paid exactly once across a sustained workload.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.engine.physical import (
    ExecutionResult,
    FilterThenKnnOperator,
    IncrementalKnnOperator,
)
from repro.engine.planner import PlanExplanation, explain_select_batch
from repro.engine.queries import KnnSelectQuery
from repro.engine.stats import StatisticsManager
from repro.engine.table import SpatialTable
from repro.geometry import Point, Rect, mindist_point_rect
from repro.index.snapshot import as_snapshot
from repro.knn.merge import QueryMerge, merge_open, run_merges
from repro.serving.merge import PARTIAL_PLAN, merge_filter_topk
from repro.serving.worker import _worker_stats
from repro.resilience.errors import OverloadError, ShardExhaustedError
from repro.resilience.faultinject import WorkerFaultPlan
from repro.resilience.guards import guard_select_batch
from repro.serving.admission import AdmissionController
from repro.serving.shards import ShardPlan, partition_blocks, plan_shards
from repro.serving.supervisor import (
    Deadline,
    Round,
    ShardSupervisor,
    ShardWorkerHandle,
    SupervisionPolicy,
)
from repro.workloads.queries import QueryBatch
from repro.workloads.serving import ServingReport

#: Sentinel distinguishing "use the tier default" from an explicit None.
_UNSET = object()


@dataclass(frozen=True)
class ShardReport:
    """Per-shard provenance for one served batch.

    Attributes:
        shard_id: The shard.
        n_queries: Queries that asked it this batch.
        n_chunks: Protocol *rounds* (open, scan, resume) the shard was
            sent — one per chunk it was asked for in a healthy
            incremental-plan batch.
        attempts: Worker requests (includes retries).
        retries: Re-sent requests after a failed attempt.
        respawns: Worker incarnations killed and replaced (crash, hang
            or stale reply).
        timeouts: Attempts abandoned on the wait timeout.
        failures: Failed attempts of any kind.
        degraded_queries: Queries left estimate-only or partial because
            this shard did not answer.
        circuit_open: Whether the shard's breaker was open when the
            batch finished.
    """

    shard_id: int
    n_queries: int
    n_chunks: int
    attempts: int
    retries: int
    respawns: int
    timeouts: int
    failures: int
    degraded_queries: int
    circuit_open: bool

    def describe(self) -> str:
        """One line for the report summary."""
        bits = [
            f"shard {self.shard_id}: {self.n_queries} queries",
            f"{self.attempts} attempts",
        ]
        if self.retries:
            bits.append(f"{self.retries} retries")
        if self.respawns:
            bits.append(f"{self.respawns} respawns")
        if self.timeouts:
            bits.append(f"{self.timeouts} timeouts")
        if self.degraded_queries:
            bits.append(f"{self.degraded_queries} degraded")
        if self.circuit_open:
            bits.append("breaker OPEN")
        return ", ".join(bits)


@dataclass(frozen=True)
class ShardedServingReport(ServingReport):
    """A :class:`~repro.workloads.serving.ServingReport` with shard provenance.

    Attributes:
        shard_ids: ``(n,)`` shard each query was routed to (``-1`` in
            data-shard mode — every query fans out to all shards).
        degraded: ``(n,)`` bool mask of estimate-only answers (their
            ``results`` entry is ``None``).
        partial: ``(n,)`` bool mask of partial-coverage answers: the
            result holds a *verified prefix* of the true k-NN answer,
            clamped by the dead shards' bounds.
        shards: Per-shard :class:`ShardReport`, ascending by shard id.
        deadline_ms: The deadline the batch ran under (``None`` =
            unbounded).
        shard_mode: ``"replica"`` or ``"data"``.
    """

    shard_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    degraded: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    partial: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    shards: tuple[ShardReport, ...] = ()
    deadline_ms: float | None = None
    shard_mode: str = "replica"

    @property
    def n_degraded(self) -> int:
        """Estimate-only queries: planned, but no shard answered them."""
        return int(np.count_nonzero(self.degraded))

    @property
    def n_partial(self) -> int:
        """Queries answered with a verified prefix (coverage gap)."""
        return int(np.count_nonzero(self.partial))

    def describe(self) -> str:
        """Multi-line summary: base report + shard and degradation lines."""
        lines = [super().describe()]
        lines.append(f"shard mode:  {self.shard_mode}")
        if self.deadline_ms is not None:
            lines.append(f"deadline:    {self.deadline_ms:.0f} ms")
        healthy = self.n_queries - self.n_degraded - self.n_partial
        lines.append(
            f"degraded:    {self.n_degraded} of {self.n_queries} queries "
            f"({self.n_partial} partial, {healthy} exact)"
        )
        for shard in self.shards:
            lines.append(f"  {shard.describe()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ServeManyReport:
    """The outcome of one :meth:`ShardedServingTier.serve_many` run.

    Attributes:
        reports: Per-batch :class:`ShardedServingReport`, in submission
            order; ``None`` where admission refused the batch.
        n_batches: Batches submitted.
        n_overloaded: Batches refused at admission.
        seconds: Wall clock across the pipelined run.
        latencies_us: Per-query latencies concatenated across served
            batches, so the percentiles below reflect *queries*, not
            coordinator-side batch timing.
    """

    reports: tuple
    n_batches: int
    n_overloaded: int
    seconds: float
    latencies_us: np.ndarray

    @property
    def n_queries(self) -> int:
        """Queries actually served across all admitted batches."""
        return int(self.latencies_us.shape[0])

    @property
    def throughput_qps(self) -> float:
        """Served queries per second of wall clock."""
        return self.n_queries / self.seconds if self.seconds > 0 else 0.0

    def percentile_us(self, q: float) -> float:
        """A per-query latency percentile in microseconds."""
        if self.latencies_us.size == 0:
            return 0.0
        return float(np.percentile(self.latencies_us, q))

    def describe(self) -> str:
        """Multi-line sustained-run summary."""
        lines = [
            f"batches:     {self.n_batches} "
            f"({self.n_overloaded} refused at admission)",
            f"queries:     {self.n_queries}",
            f"wall clock:  {self.seconds:.3f} s "
            f"({self.throughput_qps:,.0f} q/s)",
        ]
        if self.latencies_us.size:
            lines.append(
                "latency:     "
                f"p50 {self.percentile_us(50):,.0f} us, "
                f"p95 {self.percentile_us(95):,.0f} us, "
                f"p99 {self.percentile_us(99):,.0f} us"
            )
        return "\n".join(lines)


class ShardedServingTier:
    """A supervised, sharded serving front end over one relation.

    Args:
        table: The relation to serve (replicated to every worker in
            replica mode; partitioned across workers in data mode).
        shard_mode: ``"replica"`` (every shard owns every block, a
            query asks the one shard its focal point routes to) or
            ``"data"`` (each shard owns only its blocks, a query asks
            every shard).
        n_shards: Spatial shards.
        workers_per_shard: Worker processes per shard; each extra worker
            adds one concurrent lane of chunks for that shard's traffic.
        chunk_size: Queries per worker request (the retry and
            degradation granularity).
        deadline_ms: Default per-batch deadline (``None`` = unbounded);
            :meth:`serve` can override per batch.
        policy: Supervision knobs (retries, backoff, breaker, timeout).
        admission: Optional shared admission gate.
        worker_faults: Fault-injection plan shipped to every worker
            (chaos testing).
        strict: Raise :class:`ShardExhaustedError` instead of degrading.
        manager_kwargs: :class:`~repro.engine.StatisticsManager`
            configuration of the coordinator's planner (estimates,
            arbitration, pins, guards).  Must match the reference
            engine's configuration for bit-identical plans.
        pinned_operators: Forced per-table/per-kind operator choices
            (``{"table:kind" | "kind": operator}``), merged into
            ``manager_kwargs``.  The reference engine must be configured
            with the same pins or the bit-identity with unsharded
            planning breaks.

    Raises:
        ValueError: On an unknown shard mode, a bad chunk size, an empty
            table, or a manager configuration
            :class:`~repro.engine.StatisticsManager` refuses (an invalid
            pin, ``max_k``, breaker or time budget) — before any worker
            spawns.

    The tier is a context manager; :meth:`close` terminates every
    worker.
    """

    def __init__(
        self,
        table: SpatialTable,
        *,
        shard_mode: str = "replica",
        n_shards: int = 4,
        workers_per_shard: int = 1,
        chunk_size: int = 1024,
        deadline_ms: float | None = None,
        policy: SupervisionPolicy | None = None,
        admission: AdmissionController | None = None,
        worker_faults: WorkerFaultPlan | None = None,
        strict: bool = False,
        manager_kwargs: dict | None = None,
        shard_plan: ShardPlan | None = None,
        pinned_operators: dict | None = None,
    ) -> None:
        if shard_mode not in ("replica", "data"):
            raise ValueError(f"unknown shard_mode {shard_mode!r}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if table.n_rows == 0:
            raise ValueError("cannot shard-serve an empty table")
        self.table = table
        self.shard_mode = shard_mode
        self.chunk_size = int(chunk_size)
        self.deadline_ms = deadline_ms
        self.strict = bool(strict)
        self.admission = admission
        self._workers_per_shard = int(workers_per_shard)
        snapshot = as_snapshot(table.index)
        # Routing (replica mode) and partitioning (data mode) are pure
        # load-balancing concerns: any ShardPlan over any substrate
        # yields the same answers.  A caller may therefore supply a
        # plan built from a different index (n_shards is then taken
        # from the plan).
        self.plan: ShardPlan = (
            shard_plan if shard_plan is not None else plan_shards(snapshot, n_shards)
        )
        manager_kwargs = dict(manager_kwargs or {})
        if pinned_operators:
            manager_kwargs["pinned_operators"] = dict(pinned_operators)
        # A bad manager configuration is refused here, before any worker
        # spawns.  Every query is planned under this manager, over the
        # whole relation, exactly as the unsharded engine plans it.  The
        # manager builds its estimators lazily, and chunks are planned
        # on several threads, so planning holds a lock.
        self._planner = StatisticsManager(**manager_kwargs)
        self._planner.register(table)
        self._plan_lock = threading.Lock()
        self.supervisor = ShardSupervisor(
            self._build_handles(snapshot.canonical(), worker_faults), policy
        )
        # The tier's own threads, started on first use and joined by
        # close(): one batch's widest set of lanes (concurrent batches
        # queue behind it).  A lane's thread drives its rounds itself.
        width = self._workers_per_shard
        self._chunk_pool = ThreadPoolExecutor(
            width * self.plan.n_shards if shard_mode == "replica" else width,
            thread_name_prefix="tier-chunk",
        )

    def _build_handles(
        self, canonical, worker_faults: WorkerFaultPlan | None
    ) -> dict[int, ShardWorkerHandle]:
        """Give every shard its blocks and build one worker handle each.

        A data shard owns the blocks :func:`partition_blocks` assigns
        it; a replica shard owns every block.  Blocks are listed in
        *canonical* (ascending global block id) order, so each shard's
        sub-snapshot inherits exactly its slice of the global tie-break
        contract and the coordinator's merge can replay the unsharded
        scan bit-for-bit.  Alongside each shard's payload the
        coordinator keeps the shard's *hull bound* — ``(union rect of
        its blocks, smallest member block id)`` — the guaranteed lower
        bound used when the shard dies before ever answering a query.
        """
        n_shards = self.plan.n_shards
        if self.shard_mode == "data":
            members, hulls = partition_blocks(canonical, self.plan)
            payloads = [self._shard_payload(canonical, blocks) for blocks in members]
        else:
            (every,), (hull,) = partition_blocks(canonical, plan_shards(canonical, 1))
            members, hulls = [every] * n_shards, [hull] * n_shards
            payloads = [self._shard_payload(canonical, every)] * n_shards
        self._hull_bounds: dict[int, tuple[tuple, int]] = {
            sid: (hulls[sid], int(canonical.block_ids[members[sid][0]]))
            for sid in range(n_shards)
            if members[sid].size
        }
        return {
            sid: ShardWorkerHandle(
                sid,
                payloads[sid],
                fault_plan=worker_faults,
                workers=self._workers_per_shard,
            )
            for sid in range(n_shards)
        }

    def _shard_payload(self, canonical, blocks: np.ndarray) -> dict:
        """What a worker owning ``blocks`` (canonical rows) is shipped."""
        g_starts = np.zeros(canonical.n_blocks + 1, dtype=np.int64)
        np.cumsum(canonical.counts, out=g_starts[1:])
        empty = np.empty(0, dtype=np.int64)
        rows = np.concatenate(
            [empty]
            + [
                np.asarray(self.table.block_row_ids(int(canonical.block_ids[m])), dtype=np.int64)
                for m in blocks
            ]
        )
        gpos = np.concatenate(
            [empty] + [np.arange(g_starts[m], g_starts[m + 1], dtype=np.int64) for m in blocks]
        )
        return {
            "snapshot": canonical.extract(blocks),
            "rows": rows,
            "points": np.ascontiguousarray(self.table.points[rows]),
            "gpos": gpos,
        }

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self, batch: QueryBatch, deadline_ms: float | None | object = _UNSET
    ) -> ShardedServingReport:
        """Serve one workload batch through the shards.

        The batch is guarded first, exactly as
        :meth:`~repro.engine.SpatialEngine.execute_batch` guards it: a
        bad query raises before admission and before any shard is
        asked, and notes on suspicious ones are appended to the served
        explanations.

        Args:
            batch: The workload.
            deadline_ms: Per-batch deadline override (``None`` =
                unbounded; omitted = the tier default).

        Raises:
            InvalidQueryError: On a non-finite focal point — and, when
                the tier's manager is ``strict``, on a suspicious query
                (far outside the indexed space, ``k`` above the row
                count) — at the first offender in batch order.
            OverloadError: Refused at admission (queue or time budget).
            ShardExhaustedError: Under ``strict`` serving, when any
                query's shard stayed unavailable through its retries.
        """
        notes = guard_select_batch(
            batch.points,
            batch.ks,
            self.table.n_rows,
            self.table.index.bounds,
            strict=self._planner.strict,
        )
        effective_deadline = (
            self.deadline_ms if deadline_ms is _UNSET else deadline_ms
        )
        deadline = Deadline.after_ms(effective_deadline)
        n = len(batch)
        if self.admission is not None:
            self.admission.admit(n, deadline.remaining())
        start = time.perf_counter()
        try:
            report = self._serve_admitted(batch, deadline, effective_deadline)
        finally:
            if self.admission is not None:
                self.admission.release(n, time.perf_counter() - start)
        for i, row in notes.items():
            report.explanations[i].notes.extend(row)
        return report

    def _serve_admitted(
        self, batch: QueryBatch, deadline: Deadline, deadline_ms: float | None
    ) -> ShardedServingReport:
        """Serve one admitted batch: every chunk through :meth:`_serve_data_chunk`.

        A replica query asks the one shard its focal point routes to, a
        data query every shard.  Each shard's chunks (in data mode, the
        batch's) are dealt round-robin to ``workers_per_shard`` lanes:
        lanes run concurrently, a lane's chunks one after another, so no
        shard has more chunks in flight than worker processes.
        """
        n = len(batch)
        sids = self.supervisor.shard_ids
        if self.shard_mode == "replica":
            shard_ids = self.plan.assign(batch.points) if n else np.empty(0, dtype=np.int64)
            groups = [(np.flatnonzero(shard_ids == sid), (sid,)) for sid in sids]
        else:
            shard_ids = np.full(n, -1, dtype=np.int64)
            groups = [(np.arange(n, dtype=np.int64), sids)]
        lanes = []
        for members, shards in groups:
            chunks = [
                (members[lo : lo + self.chunk_size], shards)
                for lo in range(0, members.size, self.chunk_size)
            ]
            for lane in range(min(self._workers_per_shard, len(chunks))):
                lanes.append(chunks[lane :: self._workers_per_shard])
        results: list = [None] * n
        explanations: list = [None] * n
        latencies_us = np.zeros(n, dtype=float)
        degraded = np.zeros(n, dtype=bool)
        partial = np.zeros(n, dtype=bool)
        counters_before = {sid: self._counter_snapshot(sid) for sid in sids}
        rounds_total = dict.fromkeys(sids, 0)
        gaps_total = dict.fromkeys(sids, 0)
        start = time.perf_counter()
        shared = (batch, deadline, results, explanations, latencies_us, degraded, partial)
        for rounds, gaps in self._run_lanes(lanes, shared):
            for sid in sids:
                rounds_total[sid] += rounds[sid]
                gaps_total[sid] += gaps[sid]
        if self.strict and (degraded.any() or partial.any()):
            lost = sorted(sid for sid, gaps in gaps_total.items() if gaps)
            raise ShardExhaustedError(
                f"{int(np.count_nonzero(degraded | partial))} of {n} queries lost "
                f"shards {lost} and strict serving forbids degradation"
            )
        seconds = time.perf_counter() - start
        shard_reports = tuple(
            self._shard_report(
                sid,
                n if self.shard_mode == "data" else int(np.count_nonzero(shard_ids == sid)),
                rounds_total[sid],
                gaps_total[sid],
                counters_before[sid],
            )
            for sid in sids
        )
        return ShardedServingReport(
            mode="sharded",
            n_queries=n,
            seconds=seconds,
            results=results,
            explanations=explanations,
            latencies_us=latencies_us,
            shard_ids=shard_ids,
            degraded=degraded,
            partial=partial,
            shards=shard_reports,
            deadline_ms=deadline_ms,
            shard_mode=self.shard_mode,
        )

    def _run_lanes(self, lanes: list[list], shared: tuple) -> list:
        """Serve every lane's ``(chunk, shards)`` tasks; returns their outcomes.

        A lane's chunks run in order.  A batch of one lane runs on the
        caller's thread; wider ones go through the tier's chunk pool.
        """

        def run(lane: list) -> list:
            return [self._serve_data_chunk(chunk, shards, *shared) for chunk, shards in lane]

        if len(lanes) <= 1:
            done = [run(lane) for lane in lanes]
        else:
            futures = [self._chunk_pool.submit(run, lane) for lane in lanes]
            done = [future.result() for future in futures]
        return [outcome for lane in done for outcome in lane]

    # ------------------------------------------------------------------
    # The merge protocol: send, open, merge
    # ------------------------------------------------------------------
    def _send(
        self,
        payloads: dict[int, dict],
        deadline: Deadline,
        rounds: dict[int, int],
        dead: set[int],
    ) -> Round:
        """Send one protocol round to every shard not yet ``dead``."""
        payloads = {sid: payload for sid, payload in payloads.items() if sid not in dead}
        for sid in payloads:
            rounds[sid] += 1
        return self.supervisor.send(payloads, deadline)

    def _collect(self, round_: Round, dead: set[int]) -> dict[int, dict]:
        """The round's answers.

        A shard that exhausted its supervision budget joins ``dead`` for
        the rest of this chunk; its absence from the returned answers
        is how the callers learn about the coverage gap.
        """
        answers = self.supervisor.collect(round_)
        dead.update(round_.payloads.keys() - answers.keys())
        return answers

    def _dead_bound(self, sid: int, point: Point) -> tuple | None:
        """A never-answering shard's hull bound for one query.

        ``(MINDIST to the union rect of its blocks, smallest member
        block id, same MINDIST as stop threshold)`` — conservative
        (the true nearest block can only be farther), which keeps
        exact-at-the-bound finishes and partial prefixes safe.
        ``None`` for a shard that owns no blocks (no possible gap).
        """
        hull = self._hull_bounds.get(sid)
        if hull is None:
            return None
        rect, gid = hull
        mindist = mindist_point_rect(point, Rect(*rect))
        return (mindist, gid, mindist)

    def _serve_data_chunk(
        self,
        chunk_idx: np.ndarray,
        shards: tuple[int, ...],
        batch: QueryBatch,
        deadline: Deadline,
        results: list,
        explanations: list,
        latencies_us: np.ndarray,
        degraded: np.ndarray,
        partial: np.ndarray,
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Drive one chunk through the full merge protocol on ``shards``.

        ``shards`` are the shards that own the chunk's blocks: the one
        a replica chunk routes to, or every data shard.  Writes land at
        disjoint workload indices across chunks, so the shared output
        arrays need no locking.  Returns per-shard ``(rounds
        submitted, coverage-gap queries)`` for the batch's shard
        reports.
        """
        chunk_start = time.perf_counter()
        pts = batch.points[chunk_idx]
        ks = batch.ks[chunk_idx]
        m = int(chunk_idx.size)
        all_sids = self.supervisor.shard_ids
        rounds = dict.fromkeys(all_sids, 0)
        gap_counts = dict.fromkeys(all_sids, 0)
        dead: set[int] = set()
        # The open payload does not depend on the plan: the shards browse
        # while the chunk is planned.
        open_payload = {"round": "open", "points": pts, "ks": ks}
        opened = self._send({sid: open_payload for sid in shards}, deadline, rounds, dead)
        queries = [
            KnnSelectQuery(self.table.name, batch.point(i), k=int(batch.ks[i]))
            for i in chunk_idx.tolist()
        ]
        try:
            with self._plan_lock:
                chunk_plans = explain_select_batch(self._planner, queries)
        finally:
            # Read the replies even when planning raises: a worker goes
            # back to its idle queue only once its reply is read.
            answers = self._collect(opened, dead)
        for i, explanation in zip(chunk_idx.tolist(), chunk_plans):
            explanations[i] = explanation
        if not answers:
            # Every asked shard down: there is nothing to merge, so the
            # chunk's answers are estimate-only.  Its plans stand.
            degraded[chunk_idx] = True
            for sid in dead:
                gap_counts[sid] += m
            for explanation in chunk_plans:
                explanation.degraded = True
                explanation.notes.append(
                    f"shards {sorted(dead)} unavailable; estimate-only answer"
                )
            latencies_us[chunk_idx] = (time.perf_counter() - chunk_start) / m * 1e6
            return rounds, gap_counts
        filter_pos: list[int] = []
        inc_pos: list[int] = []
        for i, explanation in enumerate(chunk_plans):
            if explanation.chosen == FilterThenKnnOperator.name:
                filter_pos.append(i)
            else:
                inc_pos.append(i)
        if filter_pos:
            self._serve_filter_group(
                filter_pos, pts, ks, chunk_idx, answers, dead, deadline,
                rounds, gap_counts, results, explanations, partial,
            )
        if inc_pos:
            self._serve_incremental_group(
                inc_pos, pts, ks, chunk_idx, answers, dead, deadline,
                rounds, gap_counts, results, explanations, partial,
            )
        latencies_us[chunk_idx] = (time.perf_counter() - chunk_start) / m * 1e6
        return rounds, gap_counts

    def _serve_filter_group(
        self,
        filter_pos: list[int],
        pts: np.ndarray,
        ks: np.ndarray,
        chunk_idx: np.ndarray,
        answers: dict[int, dict],
        dead: set[int],
        deadline: Deadline,
        rounds: dict[int, int],
        gap_counts: dict[int, int],
        results: list,
        explanations: list,
        partial: np.ndarray,
    ) -> None:
        """Full-scan-chosen queries: one scan round, one global merge.

        Each surviving shard returns its local top-k with global
        ``(distance, concatenation position)`` tie keys;
        :func:`~repro.serving.merge.merge_filter_topk` reproduces the
        unsharded full scan's stable emission.  Dead shards clamp the
        answer to the verified prefix below their tightest known bound.
        """
        fidx = np.asarray(filter_pos, dtype=np.int64)
        payload = {"round": "scan", "points": pts[fidx], "ks": ks[fidx]}
        scan_answers = self._collect(
            self._send({sid: payload for sid in answers}, deadline, rounds, dead), dead
        )
        for j, i in enumerate(filter_pos):
            k = int(ks[i])
            point = Point(float(pts[i, 0]), float(pts[i, 1]))
            rows, dists = merge_filter_topk(
                k, [scan_answers[sid]["topk"][j] for sid in sorted(scan_answers)]
            )
            t_gap = None
            gap_sids: list[int] = []
            for sid in sorted(dead):
                state = answers.get(sid)
                if state is not None:
                    entries, __, bound = state["columns"].stream(i)
                    if not entries and bound is None:
                        continue  # stream spent: shard holds no rows here
                    shard_min = float((entries[0] if entries else bound)[0])
                else:
                    hull_bound = self._dead_bound(sid, point)
                    if hull_bound is None:
                        continue  # shard owns no blocks: no gap
                    shard_min = float(hull_bound[0])
                gap_sids.append(sid)
                t_gap = shard_min if t_gap is None else min(t_gap, shard_min)
            workload_i = int(chunk_idx[i])
            blocks_scanned = int(self.table.index.num_blocks)
            if t_gap is None:
                results[workload_i] = ExecutionResult(
                    FilterThenKnnOperator.name, blocks_scanned, row_ids=rows
                )
            else:
                keep = rows[dists < t_gap]
                results[workload_i] = ExecutionResult(
                    FilterThenKnnOperator.name, blocks_scanned, row_ids=keep
                )
                partial[workload_i] = True
                for sid in gap_sids:
                    gap_counts[sid] += 1
                explanation = explanations[workload_i]
                explanation.degraded = True
                explanation.notes.append(
                    f"{PARTIAL_PLAN}: shards {gap_sids} unreachable; verified "
                    f"prefix of {int(keep.shape[0])} row(s) below bound {t_gap:.6g}"
                )

    def _serve_incremental_group(
        self,
        inc_pos: list[int],
        pts: np.ndarray,
        ks: np.ndarray,
        chunk_idx: np.ndarray,
        answers: dict[int, dict],
        dead: set[int],
        deadline: Deadline,
        rounds: dict[int, int],
        gap_counts: dict[int, int],
        results: list,
        explanations: list,
        partial: np.ndarray,
    ) -> None:
        """Distance-browsing-chosen queries: one array merge, then the replay loop.

        Shards browse to their own stops, which the global scan never
        passes, so :func:`~repro.knn.merge.merge_open` answers a healthy
        chunk.  The rest replay in :class:`~repro.knn.merge.QueryMerge`
        under :func:`~repro.knn.merge.run_merges`, resuming what starves.
        """
        columns = [answers[sid]["columns"] for sid in sorted(answers)]
        merged = [None] * len(inc_pos) if dead else merge_open(columns, ks, np.asarray(inc_pos))
        merges: dict[int, QueryMerge] = {}
        for i, done in zip(inc_pos, merged):
            if done is not None:
                results[int(chunk_idx[i])] = ExecutionResult(
                    IncrementalKnnOperator.name, done[2], row_ids=done[0]
                )
                continue
            point = Point(float(pts[i, 0]), float(pts[i, 1]))
            merge = QueryMerge(int(ks[i]))
            # Every shard asked at open either answered or is dead.
            for sid in sorted(answers.keys() | dead):
                state = answers.get(sid)
                if state is not None:
                    merge.add_stream(sid, *state["columns"].stream(i))
                    if sid in dead:  # answered open, died since
                        merge.mark_dead(sid)
                    continue
                # Never answered: a gap from the start, at its hull bound.
                hull_bound = self._dead_bound(sid, point)
                if hull_bound is not None:  # None: owns no blocks, no gap
                    merge.add_stream(sid, [], 0, hull_bound)
                    merge.mark_dead(sid)
            merges[i] = merge

        def fetch(requests: dict[int, list]) -> dict[int, list]:
            """One resume round per starved shard; a lost shard is absent."""
            payloads = {}
            for sid, asked in requests.items():
                ridx = np.asarray([r[0] for r in asked], dtype=np.int64)
                payloads[sid] = {
                    "round": "resume",
                    "points": pts[ridx],
                    "ks": ks[ridx],
                    "cursors": np.asarray([r[1] for r in asked], dtype=np.int64),
                    "min_points": np.asarray([r[2] for r in asked], dtype=np.int64),
                    "min_mindists": np.asarray([r[3] for r in asked], dtype=float),
                }
            replies = self._collect(self._send(payloads, deadline, rounds, dead), dead)
            return {sid: reply["streams"] for sid, reply in replies.items()}

        run_merges(merges, fetch)
        for i, merge in merges.items():
            rows, blocks_scanned, n_verified = merge.result()
            workload_i = int(chunk_idx[i])
            results[workload_i] = ExecutionResult(
                IncrementalKnnOperator.name, blocks_scanned, row_ids=rows
            )
            if merge.partial:
                partial[workload_i] = True
                for sid in merge.gap_shards:
                    gap_counts[sid] += 1
                explanation = explanations[workload_i]
                explanation.degraded = True
                explanation.notes.append(
                    f"{PARTIAL_PLAN}: shards {list(merge.gap_shards)} unreachable; "
                    f"verified prefix of {n_verified} row(s) below bound "
                    f"{merge.t_gap:.6g}"
                )

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------
    def _counter_snapshot(self, shard_id: int) -> tuple[int, int, int, int, int]:
        c = self.supervisor.counters(shard_id)
        return (c.attempts, c.retries, c.respawns, c.timeouts, c.failures)

    def _shard_report(
        self,
        shard_id: int,
        n_queries: int,
        n_chunks: int,
        degraded_queries: int,
        before: tuple[int, int, int, int, int],
    ) -> ShardReport:
        after = self._counter_snapshot(shard_id)
        attempts, retries, respawns, timeouts, failures = (
            after[i] - before[i] for i in range(5)
        )
        return ShardReport(
            shard_id=shard_id,
            n_queries=n_queries,
            n_chunks=n_chunks,
            attempts=attempts,
            retries=retries,
            respawns=respawns,
            timeouts=timeouts,
            failures=failures,
            degraded_queries=degraded_queries,
            circuit_open=self.supervisor.health(shard_id).circuit_open,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedServingTier":
        """Spawn every shard's workers eagerly and wait until live.

        Long-lived callers pay the spawn (and each worker's shard
        build) exactly once here instead of on the first served batch,
        and the planner's catalogs are built on the calling thread while
        the workers boot; :attr:`pools_spawned` then stays at
        ``n_shards * workers_per_shard`` across any number of :meth:`serve` /
        :meth:`serve_many` calls unless a worker crashes and is
        respawned.  Returns ``self`` so ``tier.start()`` chains with
        the context-manager form.
        """
        waits = [self.supervisor.handle(sid).spawn() for sid in self.supervisor.shard_ids]
        try:
            with self._plan_lock:
                self._planner.select_estimator(self.table.name)
        finally:
            for wait_live in waits:
                wait_live()
        return self

    @property
    def pools_spawned(self) -> int:
        """Worker processes ever booted across all shards.

        ``n_shards * workers_per_shard`` after :meth:`start`, plus one
        per respawn.
        """
        return sum(
            self.supervisor.handle(sid).spawned for sid in self.supervisor.shard_ids
        )

    @property
    def shipped_bytes(self) -> dict[int, int]:
        """Per-shard bytes of data shipped to each worker's initializer.

        Deterministic (independent of allocator behavior), which makes
        it the benchmark's primary memory-sublinearity measure: in data
        mode each shard receives roughly ``1/n_shards`` of the replica
        payload.
        """
        return {
            sid: self.supervisor.handle(sid).shipped_bytes
            for sid in self.supervisor.shard_ids
        }

    def worker_stats(self, timeout: float = 30.0) -> list[dict]:
        """Live per-shard worker telemetry (peak RSS, payload bytes)."""
        return [
            self.supervisor.handle(sid).call(_worker_stats, timeout=timeout)
            for sid in self.supervisor.shard_ids
        ]

    def serve_many(
        self,
        batches,
        deadline_ms: float | None | object = _UNSET,
        max_in_flight: int = 4,
    ) -> ServeManyReport:
        """Serve several batches pipelined through the live workers.

        Up to ``max_in_flight`` batches are in flight at once, so one
        batch's merge rounds interleave with another's through the same
        worker processes instead of serializing at the tier boundary.
        Admission refusals (:class:`~repro.resilience.errors.OverloadError`)
        are recorded per batch — ``reports[i]`` is ``None`` — rather
        than failing the run.  Per-query latencies are concatenated
        across batches, so the report's percentiles describe queries.
        """
        batches = list(batches)
        reports: list = [None] * len(batches)
        n_overloaded = 0
        start = time.perf_counter()
        if batches:
            with ThreadPoolExecutor(max_workers=max(1, int(max_in_flight))) as pool:
                futures = {
                    pool.submit(self.serve, b, deadline_ms): i
                    for i, b in enumerate(batches)
                }
                for future, i in futures.items():
                    try:
                        reports[i] = future.result()
                    except OverloadError:
                        n_overloaded += 1
        seconds = time.perf_counter() - start
        served = [r.latencies_us for r in reports if r is not None]
        latencies = (
            np.concatenate(served) if served else np.empty(0, dtype=float)
        )
        return ServeManyReport(
            reports=tuple(reports),
            n_batches=len(batches),
            n_overloaded=n_overloaded,
            seconds=seconds,
            latencies_us=latencies,
        )

    def close(self) -> None:
        """Stop the tier: afterwards none of its threads or workers is alive.

        The tier's chunk pool is shut down and joined first (a batch
        still being served finishes), then every worker process is
        terminated and joined.  A closed tier serves nothing more.
        """
        self._chunk_pool.shutdown(wait=True, cancel_futures=True)
        self.supervisor.close()

    def __enter__(self) -> "ShardedServingTier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_sharded(table: SpatialTable, batch: QueryBatch, **tier_kwargs) -> ShardedServingReport:
    """One-shot sharded serving: build a tier, serve, tear it down.

    Thin convenience over :class:`ShardedServingTier` for CLI and
    benchmark runs that serve a single batch; long-lived callers should
    hold a tier instead and amortize the worker spawns.
    """
    with ShardedServingTier(table, **tier_kwargs) as tier:
        return tier.serve(batch)
