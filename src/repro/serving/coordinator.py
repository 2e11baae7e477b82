"""The sharded serving coordinator: route, fan out, merge, degrade.

:class:`ShardedServingTier` is the front door of the serving
subsystem.  Per batch it:

1. guards the focal points and ``k`` values the way the engine does
   (:func:`~repro.resilience.guards.guard_select_batch`), so a bad
   query raises before it can cost a shard anything;
2. asks the :class:`~repro.serving.admission.AdmissionController` (if
   configured) for admission under the batch's deadline;
3. cuts the batch into ``chunk_size`` chunks, each addressed to the
   shards that own its blocks, and answers every chunk with the
   engine's own distance browse (:func:`~repro.knn.browse.browse`) over
   the table's global snapshot: the coordinator orders the blocks, and
   each round's gather — the only step that reads points — is one
   stateless ``gather`` round to the shards that own that round's
   window blocks (a shard that owns none is not asked).  The chunk's
   own thread sends a round to every asked shard's pipe and reads the
   replies; it sends the first round before planning the chunk
   (:func:`~repro.engine.planner.explain_select_batch`, the engine's
   planner over the whole relation; workers keep no statistics), so the
   coordinator plans while the shards gather.  Filter plans add a
   ``scan`` round.  A batch's concurrent lanes run on a chunk pool the
   tier owns (started on first use, reused by every batch, joined by
   ``close()``); a batch one lane wide runs on its caller's thread.
   Every round is served under the
   :class:`~repro.serving.supervisor.ShardSupervisor`'s
   deadline/retry/respawn/breaker contract, and a gather reply whose
   lengths do not match its blocks' counts is a failed attempt;
4. writes the answers back into workload order with per-shard
   provenance (:class:`ShardReport`);
5. degrades instead of failing, and only the answer, never the plan: a
   chunk no shard answered is estimate-only (``degraded=True``,
   ``results[i] is None``, its explanation the plan); a query whose
   browse reaches a block of a shard that did not answer, before its
   stop, comes back ``partial`` (its rows strictly below that block's
   MINDIST, a verified prefix of the true answer) — unless ``strict``
   serving was requested, in which case a
   :class:`~repro.resilience.errors.ShardExhaustedError` is raised.

The two **shard modes** differ only in which blocks a shard owns and
which shards a query asks:

* ``"replica"`` (the default) — every shard owns every block; a query
  routes to one shard by its focal point, and every gather round goes
  to that shard.
* ``"data"`` — the relation is *partitioned*: each shard owns only its
  blocks and rows (memory ∝ n/shards), and a gather round asks the
  shards that own its window's blocks.

Either way every non-degraded answer is bit-identical to an unsharded
:class:`~repro.engine.SpatialEngine` by construction: the browse is the
engine's, and the shards return the engine's distance floats.

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
from repro.geometry.kernels import mindist_rects_batch
from repro.index.base import concat_ranges
from repro.knn.browse import browse
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
        n_chunks: Protocol *rounds* (gather, scan) the shard was sent —
            one per browse round whose window holds blocks it owns.
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
        snapshot = table.snapshot
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
        self.supervisor = ShardSupervisor(self._build_handles(snapshot, worker_faults), policy)
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
        *canonical* (ascending global block id) order.  The coordinator
        keeps each block's owner and row count (by global block id) to
        address gather rounds and check their replies, and each shard's
        member rows for a filter plan's dead-shard bound.
        """
        n_shards = self.plan.n_shards
        ids = canonical.block_ids
        self._counts = np.zeros(int(ids.max(initial=-1)) + 1, dtype=np.int64)
        self._counts[ids] = canonical.counts
        if self.shard_mode == "data":
            members, __ = partition_blocks(canonical, self.plan)
            payloads = [self._shard_payload(canonical, blocks) for blocks in members]
            self._owner = np.empty_like(self._counts)
            for sid, blocks in enumerate(members):
                self._owner[ids[blocks]] = sid
        else:
            every = np.arange(canonical.n_blocks)
            members = [every] * n_shards
            payloads = [self._shard_payload(canonical, every)] * n_shards
            self._owner = None
        self._members = members
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
            "block_ids": canonical.block_ids[blocks].astype(np.int64),
            "counts": canonical.counts[blocks].astype(np.int64),
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
    # The protocol: gather rounds for the browse, a scan for filter plans
    # ------------------------------------------------------------------
    def _send(
        self,
        payloads: dict[int, dict],
        deadline: Deadline,
        rounds: dict[int, int],
        dead: set[int],
        check=None,
    ) -> Round:
        """Send one protocol round to every shard not yet ``dead``."""
        payloads = {sid: payload for sid, payload in payloads.items() if sid not in dead}
        for sid in payloads:
            rounds[sid] += 1
        return self.supervisor.send(payloads, deadline, check)

    def _collect(self, round_: Round, dead: set[int]) -> dict[int, dict]:
        """The round's answers.

        A shard that exhausted its supervision budget joins ``dead`` for
        the rest of this chunk; its absence from the returned answers
        is how the callers learn about the coverage gap.
        """
        answers = self.supervisor.collect(round_)
        dead.update(round_.payloads.keys() - answers.keys())
        return answers

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
        """Browse one chunk over ``shards``, then scan its filter plans.

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
        queries = [
            KnnSelectQuery(self.table.name, batch.point(i), k=int(batch.ks[i]))
            for i in chunk_idx.tolist()
        ]
        chunk_plans: list[PlanExplanation] = []

        def plan() -> None:
            with self._plan_lock:
                chunk_plans.extend(explain_select_batch(self._planner, queries))

        # The first gather round does not depend on the plan: the shards
        # gather while the chunk is planned.
        gather = _ChunkGather(self, shards, deadline, rounds, dead, plan)
        browsed = browse(self.table.snapshot, gather, pts, ks)
        if gather.before_collect is not None:
            plan()
        for i, explanation in zip(chunk_idx.tolist(), chunk_plans):
            explanations[i] = explanation
        if not gather.answered:
            # Every asked shard down: nothing was gathered, so the
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
        lost = sorted(sid for sid in dead if self._members[sid].size)
        filter_pos: list[int] = []
        for i, (explanation, found) in enumerate(zip(chunk_plans, browsed)):
            if explanation.chosen == FilterThenKnnOperator.name:
                filter_pos.append(i)
                continue
            k = int(ks[i])
            order = np.argsort(found.dists, kind="stable")
            if found.gap is not None:
                order = order[found.dists[order] < found.gap]
            rows = found.row_ids[order[:k]]
            self._answer(
                int(chunk_idx[i]), IncrementalKnnOperator.name, len(found.mindists), rows,
                found.gap, lost, gap_counts, results, explanations, partial,
            )
        if filter_pos:
            self._serve_filter_group(
                filter_pos, pts, ks, chunk_idx, shards, dead, deadline,
                rounds, gap_counts, results, explanations, partial,
            )
        latencies_us[chunk_idx] = (time.perf_counter() - chunk_start) / m * 1e6
        return rounds, gap_counts

    def _answer(
        self, i, operator, blocks_scanned, rows, gap, lost, gap_counts,
        results, explanations, partial,
    ) -> None:
        """Record query ``i``'s answer; below a ``gap`` it is a partial one."""
        results[i] = ExecutionResult(operator, blocks_scanned, row_ids=rows)
        if gap is None:
            return
        partial[i] = True
        for sid in lost:
            gap_counts[sid] += 1
        explanation = explanations[i]
        explanation.degraded = True
        explanation.notes.append(
            f"{PARTIAL_PLAN}: shards {lost} unreachable; verified "
            f"prefix of {int(rows.shape[0])} row(s) below bound {gap:.6g}"
        )

    def _serve_filter_group(
        self,
        filter_pos: list[int],
        pts: np.ndarray,
        ks: np.ndarray,
        chunk_idx: np.ndarray,
        shards: tuple[int, ...],
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
        unsharded full scan's stable emission.  A dead shard's rows lie
        at or beyond the MINDIST of its nearest owned block, so the
        answer is clamped to the verified prefix below the nearest such
        bound.
        """
        fidx = np.asarray(filter_pos, dtype=np.int64)
        payload = {"round": "scan", "points": pts[fidx], "ks": ks[fidx]}
        scan_answers = self._collect(
            self._send({sid: payload for sid in shards}, deadline, rounds, dead), dead
        )
        lost = sorted(sid for sid in dead if self._members[sid].size)
        rects = self.table.snapshot.rects
        bounds = [
            mindist_rects_batch(pts[fidx], rects[self._members[sid]]).min(axis=1) for sid in lost
        ]
        t_gaps = np.min(bounds, axis=0) if bounds else None
        blocks_scanned = int(self.table.index.num_blocks)
        for j, i in enumerate(filter_pos):
            rows, dists = merge_filter_topk(
                int(ks[i]), [scan_answers[sid]["topk"][j] for sid in sorted(scan_answers)]
            )
            gap = None if t_gaps is None else float(t_gaps[j])
            self._answer(
                int(chunk_idx[i]), FilterThenKnnOperator.name, blocks_scanned,
                rows if gap is None else rows[dists < gap], gap, lost, gap_counts,
                results, explanations, partial,
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


class _ChunkGather:
    """One chunk's gather rounds: the browse's gather at the coordinator.

    Each call sends one ``gather`` round to the shards that own the
    window's blocks (not to a shard already dead in this chunk), reads
    the replies and lays their rows out query by query, block by block.
    A dead shard's blocks come back lost (``-1``).  ``before_collect``
    runs once, between the first round's send and its collect.
    """

    def __init__(self, tier, shards, deadline, rounds, dead, before_collect) -> None:
        self.tier, self.shards, self.deadline = tier, shards, deadline
        self.rounds, self.dead = rounds, dead
        self.before_collect = before_collect
        #: Whether any shard answered a round.
        self.answered = False

    def __call__(self, xy: np.ndarray, ids: np.ndarray):
        tier = self.tier
        p, w = ids.shape
        sizes = tier._counts[ids].ravel()
        flat = ids.ravel()
        # Each asked shard's pairs (query, block), in scan order.
        if tier._owner is None:
            pairs = {self.shards[0]: np.arange(p * w)}
        else:
            owner = tier._owner[flat]
            pairs = {sid: np.flatnonzero(owner == sid) for sid in self.shards}
            pairs = {sid: at for sid, at in pairs.items() if at.size}
        payloads, expected = {}, {}
        for sid, at in pairs.items():
            counts = np.bincount(at // w, minlength=p)
            asked = counts > 0
            # Raw column bytes: see repro.serving.worker._gather.
            payloads[sid] = {
                "round": "gather",
                "points": xy[asked].tobytes(),
                "counts": counts[asked].tobytes(),
                "blocks": flat[at].tobytes(),
            }
            expected[sid] = 8 * int(sizes[at].sum())

        def check(sid: int, reply) -> str | None:
            try:
                got = (len(reply["row_ids"]), len(reply["dists"]))
            except (KeyError, TypeError):
                return f"malformed gather reply {type(reply).__name__}"
            if got != (expected[sid], expected[sid]):
                return f"gather reply of {got[0]} and {got[1]} bytes for {expected[sid] // 8} rows"
            return None

        round_ = tier._send(payloads, self.deadline, self.rounds, self.dead, check)
        try:
            if self.before_collect is not None:
                hook, self.before_collect = self.before_collect, None
                hook()
        finally:
            # Read the replies even when planning raises: a worker goes
            # back to its idle queue only once its reply is read.
            answers = tier._collect(round_, self.dead)
        self.answered |= bool(answers)
        rows = np.frombuffer(b"".join(a["row_ids"] for a in answers.values()), dtype=np.int64)
        dists = np.frombuffer(b"".join(a["dists"] for a in answers.values()), dtype=float)
        if len(pairs) == 1 and answers.keys() == pairs.keys():
            return rows, dists, sizes.reshape(p, w)
        start = np.zeros(p * w, dtype=np.int64)
        live = np.zeros(p * w, dtype=bool)
        base = 0
        for sid in answers:  # the replies' order in rows and dists
            at = pairs[sid]
            start[at] = base + np.cumsum(sizes[at]) - sizes[at]
            live[at] = True
            base += expected[sid] // 8
        take = concat_ranges(start[live], sizes[live])
        return rows[take], dists[take], np.where(live, sizes, -1).reshape(p, w)


def serve_sharded(table: SpatialTable, batch: QueryBatch, **tier_kwargs) -> ShardedServingReport:
    """One-shot sharded serving: build a tier, serve, tear it down.

    Thin convenience over :class:`ShardedServingTier` for CLI and
    benchmark runs that serve a single batch; long-lived callers should
    hold a tier instead and amortize the worker spawns.
    """
    with ShardedServingTier(table, **tier_kwargs) as tier:
        return tier.serve(batch)
