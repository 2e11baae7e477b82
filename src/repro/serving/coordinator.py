"""The sharded serving coordinator: route, fan out, merge, degrade.

:class:`ShardedServingTier` is the front door of the serving
subsystem.  Per batch it:

1. asks the :class:`~repro.serving.admission.AdmissionController` (if
   configured) for admission under the batch's deadline;
2. routes every query to its spatial shard via the
   :class:`~repro.serving.shards.ShardPlan`;
3. fans the per-shard sub-workloads out to supervised worker processes
   in ``chunk_size`` chunks — on threads the tier owns: started on
   first use, reused by every batch, joined by ``close()``; a batch
   of a single chunk runs on its caller's thread — each chunk served
   under the
   :class:`~repro.serving.supervisor.ShardSupervisor`'s
   deadline/retry/respawn/breaker contract;
4. merges the per-shard answers back into workload order with
   per-shard provenance (:class:`ShardReport`);
5. degrades instead of failing: queries whose shard stayed unavailable
   are answered by the coordinator's *local* uniform-model fallback —
   an estimate-only answer clamped to the guaranteed bound (the
   relation's block count), flagged ``degraded=True`` with
   ``results[i] is None`` — unless ``strict`` serving was requested, in
   which case a :class:`~repro.resilience.errors.ShardExhaustedError`
   is raised.

The tier runs in one of two **shard modes**:

* ``"replica"`` (the default) — every worker holds a full replica of
  the point set; queries route to their spatial shard and come back
  whole.  Because the quadtree partition is a pure function of
  (points, capacity), every *non-degraded* answer is bit-identical to
  an unsharded :class:`~repro.engine.SpatialEngine`.
* ``"data"`` — the relation is *partitioned*: each worker holds only
  its shard's index blocks and rows (memory ∝ n/shards), and every
  query fans out to all shards, answered by the streaming cross-shard
  merge of :mod:`repro.serving.merge`.  Answers are still bit-identical
  to the unsharded engine — the merge replays the exact global block
  admission — but a dead shard is now a *coverage gap*: affected
  queries degrade to an explicit ``partial`` outcome (a verified
  prefix of the true answer, clamped by the surviving shards' bounds)
  instead of replica mode's estimate-only fallback.

The tier is **long-lived**: :meth:`~ShardedServingTier.start` spawns
every worker pool eagerly, :meth:`~ShardedServingTier.serve_many`
pipelines multiple in-flight batches through the same pools with
per-query latency accounting, and ``pools_spawned`` proves the spawn
cost was paid exactly once across a sustained workload.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.engine.physical import (
    ExecutionResult,
    FilterThenKnnOperator,
    IncrementalKnnOperator,
)
from repro.engine.planner import PlanExplanation, assemble_select_explanations
from repro.engine.stats import StatisticsManager
from repro.engine.table import SpatialTable
from repro.estimators.uniform_model import UniformModelEstimator
from repro.geometry import Point, Rect, mindist_point_rect
from repro.geometry.backends import active_backend
from repro.index.snapshot import as_snapshot
from repro.knn.merge import QueryMerge, run_merges
from repro.serving.merge import (
    PARTIAL_PLAN,
    merge_filter_topk,
    merge_select_estimates,
)
from repro.serving.worker import (
    _serve_data_shard_chunk,
    _worker_stats,
)
from repro.resilience.errors import OverloadError, ShardExhaustedError
from repro.resilience.faultinject import WorkerFaultPlan
from repro.serving.admission import AdmissionController
from repro.serving.shards import ShardPlan, partition_blocks, plan_shards
from repro.serving.supervisor import (
    Deadline,
    ShardSupervisor,
    ShardUnavailable,
    ShardWorkerHandle,
    SupervisionPolicy,
)
from repro.workloads.queries import QueryBatch
from repro.workloads.serving import ServingReport

#: Plan label for degraded, estimate-only answers.
DEGRADED_PLAN = "degraded-estimate-only"

#: Sentinel distinguishing "use the tier default" from an explicit None.
_UNSET = object()


@dataclass(frozen=True)
class ShardReport:
    """Per-shard provenance for one served batch.

    Attributes:
        shard_id: The shard.
        n_queries: Queries routed to it this batch.
        n_chunks: Chunks its stream(s) submitted.  In data mode every
            query goes to every shard, and this counts the protocol
            *rounds* (open, scan, resume) the shard was sent — one per
            chunk for a healthy incremental-plan batch.
        attempts: Worker submissions (includes retries).
        retries: Re-submissions after a failed attempt.
        respawns: Pool incarnations killed and replaced (crash or hang).
        timeouts: Attempts abandoned on the future timeout.
        failures: Failed attempts of any kind.
        degraded_queries: Queries this shard could not answer (served by
            the coordinator's local fallback instead).
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
        partial: ``(n,)`` bool mask of partial-coverage answers
            (data-shard mode only): the result holds a *verified
            prefix* of the true k-NN answer, clamped by the dead
            shards' bounds.
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
        """Queries answered by the coordinator's degraded fallback."""
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
        shard_mode: ``"replica"`` (full copy per worker, queries
            routed by region) or ``"data"`` (each worker holds only
            its shard's blocks, queries answered by the cross-shard
            streaming merge).
        n_shards: Spatial shards / worker pools.
        workers_per_shard: Processes per shard pool; each extra worker
            adds one concurrent chunk stream for that shard's traffic.
        chunk_size: Queries per worker submission (the retry and
            degradation granularity).
        deadline_ms: Default per-batch deadline (``None`` = unbounded);
            :meth:`serve` can override per batch.
        policy: Supervision knobs (retries, backoff, breaker, timeout).
        admission: Optional shared admission gate.
        worker_faults: Fault-injection plan shipped to every worker
            (chaos testing).
        strict: Raise :class:`ShardExhaustedError` instead of degrading.
        manager_kwargs: :class:`~repro.engine.StatisticsManager`
            configuration for the worker replicas.  Must match the
            reference engine's configuration for bit-identical answers.
        pinned_operators: Forced per-table/per-kind operator choices
            for every worker's statistics manager — plain picklable data
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
    worker pool.
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
        self._manager_kwargs = dict(manager_kwargs or {})
        if pinned_operators:
            self._manager_kwargs["pinned_operators"] = dict(pinned_operators)
        # A bad manager configuration is refused here rather than as an
        # outage of every shard at its first chunk.  Data mode's
        # coordinator-side plans are arbitrated under this manager.
        self._arbiter = StatisticsManager(**self._manager_kwargs)
        capacity = int(table.index.capacity)
        if shard_mode == "replica":
            handles = {
                sid: ShardWorkerHandle(
                    sid,
                    table.points,
                    capacity,
                    self._manager_kwargs,
                    fault_plan=worker_faults,
                    workers=workers_per_shard,
                    backend=active_backend(),
                )
                for sid in range(self.plan.n_shards)
            }
        else:
            handles = self._build_data_handles(
                snapshot, capacity, worker_faults, workers_per_shard
            )
        self.supervisor = ShardSupervisor(handles, policy)
        # The tier's own threads, started on first use and joined by
        # close().  Chunk tasks wait on fan-out tasks, so the two never
        # share a pool: a full chunk pool cannot starve the rounds it is
        # waiting for.  Sizes: one batch's widest set of chunk tasks
        # (concurrent batches queue behind it), and one round to every
        # shard per pooled data chunk plus one for a batch running
        # inline on its caller's thread.
        n_shards, width = self.plan.n_shards, self._workers_per_shard
        self._chunk_pool = ThreadPoolExecutor(
            width * n_shards if shard_mode == "replica" else width,
            thread_name_prefix="tier-chunk",
        )
        self._fan_pool = ThreadPoolExecutor(
            n_shards * (width + 1), thread_name_prefix="tier-fan"
        )
        # The degradation tier: location-independent, estimate-only,
        # always inside the guaranteed bound.
        self._fallback_model = UniformModelEstimator(snapshot)
        self._guaranteed_bound = float(table.index.num_blocks)

    def _build_data_handles(
        self,
        snapshot,
        capacity: int,
        worker_faults: WorkerFaultPlan | None,
        workers_per_shard: int,
    ) -> dict[int, ShardWorkerHandle]:
        """Partition the relation and build one data-shard handle each.

        Blocks are assigned in *canonical* (ascending global block id)
        order, so each shard's sub-snapshot inherits exactly its slice
        of the global tie-break contract and the coordinator's merge
        can replay the unsharded scan bit-for-bit.  Alongside each
        shard's payload the coordinator keeps the shard's *hull bound*
        — ``(union rect of its blocks, smallest member block id)`` —
        the guaranteed lower bound used when the shard dies before
        ever answering a query.
        """
        canonical = snapshot.canonical()
        members, hulls = partition_blocks(canonical, self.plan)
        counts = canonical.counts.astype(np.int64)
        g_starts = np.zeros(canonical.n_blocks + 1, dtype=np.int64)
        np.cumsum(counts, out=g_starts[1:])
        self._hull_bounds: dict[int, tuple[tuple, int]] = {}
        handles: dict[int, ShardWorkerHandle] = {}
        for sid in range(self.plan.n_shards):
            rows_m = members[sid]
            if rows_m.size:
                rows = np.concatenate(
                    [
                        np.asarray(
                            self.table.block_row_ids(int(canonical.block_ids[m])),
                            dtype=np.int64,
                        )
                        for m in rows_m
                    ]
                )
                gpos = np.concatenate(
                    [
                        np.arange(g_starts[m], g_starts[m + 1], dtype=np.int64)
                        for m in rows_m
                    ]
                )
                self._hull_bounds[sid] = (
                    hulls[sid],
                    int(canonical.block_ids[rows_m[0]]),
                )
            else:
                rows = np.empty(0, dtype=np.int64)
                gpos = np.empty(0, dtype=np.int64)
            payload = {
                "snapshot": canonical.extract(rows_m),
                "rows": rows,
                "points": np.ascontiguousarray(self.table.points[rows]),
                "gpos": gpos,
                "capacity": capacity,
                "manager_kwargs": self._manager_kwargs,
            }
            handles[sid] = ShardWorkerHandle(
                sid,
                np.empty((0, 2), dtype=float),
                capacity,
                self._manager_kwargs,
                fault_plan=worker_faults,
                workers=workers_per_shard,
                backend=active_backend(),
                init_payload=payload,
                serve_fn=_serve_data_shard_chunk,
            )
        # Coordinator-side plans are arbitrated by the planner's own
        # select assembly under the tier's manager (pins included) — only
        # the cost numbers come from the cross-shard estimate merge.
        self._arbiter.register(self.table)
        return handles

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self, batch: QueryBatch, deadline_ms: float | None | object = _UNSET
    ) -> ShardedServingReport:
        """Serve one workload batch through the shards.

        Args:
            batch: The workload.
            deadline_ms: Per-batch deadline override (``None`` =
                unbounded; omitted = the tier default).

        Raises:
            OverloadError: Refused at admission (queue or time budget).
            ShardExhaustedError: Under ``strict`` serving, when any
                query's shard stayed unavailable through its retries.
        """
        effective_deadline = (
            self.deadline_ms if deadline_ms is _UNSET else deadline_ms
        )
        deadline = Deadline.after_ms(effective_deadline)
        n = len(batch)
        if self.admission is not None:
            self.admission.admit(n, deadline.remaining())
        start = time.perf_counter()
        serve = (
            self._serve_admitted_data
            if self.shard_mode == "data"
            else self._serve_admitted
        )
        try:
            report = serve(batch, deadline, effective_deadline)
        finally:
            if self.admission is not None:
                self.admission.release(n, time.perf_counter() - start)
        return report

    def _serve_admitted(
        self, batch: QueryBatch, deadline: Deadline, deadline_ms: float | None
    ) -> ShardedServingReport:
        n = len(batch)
        shard_ids = (
            self.plan.assign(batch.points) if n else np.empty(0, dtype=np.int64)
        )
        results: list = [None] * n
        explanations: list = [None] * n
        latencies_us = np.zeros(n, dtype=float)
        degraded = np.zeros(n, dtype=bool)
        counters_before = {
            sid: self._counter_snapshot(sid) for sid in self.supervisor.shard_ids
        }
        chunk_counts = dict.fromkeys(self.supervisor.shard_ids, 0)
        streams: list[tuple[int, list[np.ndarray]]] = []
        for sid in self.supervisor.shard_ids:
            member_idx = np.flatnonzero(shard_ids == sid)
            if member_idx.size == 0:
                continue
            chunks = [
                member_idx[lo : lo + self.chunk_size]
                for lo in range(0, member_idx.size, self.chunk_size)
            ]
            chunk_counts[sid] = len(chunks)
            for stream_no in range(min(self._workers_per_shard, len(chunks))):
                streams.append((sid, chunks[stream_no :: self._workers_per_shard]))
        start = time.perf_counter()
        shared = (batch, deadline, results, explanations, latencies_us, degraded)
        self._run_chunk_tasks(
            [
                functools.partial(self._serve_stream, sid, chunks, *shared)
                for sid, chunks in streams
            ],
            width=len(streams),
        )
        self._fill_degraded(batch, shard_ids, degraded, results, explanations)
        seconds = time.perf_counter() - start
        shard_reports = tuple(
            self._shard_report(
                sid,
                int(np.count_nonzero(shard_ids == sid)),
                chunk_counts[sid],
                int(np.count_nonzero(degraded[shard_ids == sid])),
                counters_before[sid],
            )
            for sid in self.supervisor.shard_ids
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
            partial=np.zeros(n, dtype=bool),
            shards=shard_reports,
            deadline_ms=deadline_ms,
            shard_mode="replica",
        )

    def _serve_stream(
        self,
        shard_id: int,
        chunks: list[np.ndarray],
        batch: QueryBatch,
        deadline: Deadline,
        results: list,
        explanations: list,
        latencies_us: np.ndarray,
        degraded: np.ndarray,
    ) -> None:
        """Serve one shard stream's chunks sequentially.

        Writes land at disjoint workload indices across streams, so the
        shared output arrays need no locking.
        """
        for chunk_idx in chunks:
            payload = {
                "points": batch.points[chunk_idx],
                "ks": batch.ks[chunk_idx],
            }
            chunk_start = time.perf_counter()
            try:
                (chunk_results, chunk_explanations), _attempts = (
                    self.supervisor.serve_chunk(shard_id, payload, deadline)
                )
            except ShardUnavailable:
                degraded[chunk_idx] = True
                latencies_us[chunk_idx] = (
                    (time.perf_counter() - chunk_start) / chunk_idx.size * 1e6
                )
                continue
            latencies_us[chunk_idx] = (
                (time.perf_counter() - chunk_start) / chunk_idx.size * 1e6
            )
            for offset, workload_i in enumerate(chunk_idx):
                results[workload_i] = chunk_results[offset]
                explanations[workload_i] = chunk_explanations[offset]

    def _fill_degraded(
        self,
        batch: QueryBatch,
        shard_ids: np.ndarray,
        degraded: np.ndarray,
        results: list,
        explanations: list,
    ) -> None:
        """Answer unavailable-shard queries from the local fallback tier."""
        degraded_idx = np.flatnonzero(degraded)
        if degraded_idx.size == 0:
            return
        if self.strict:
            failed = sorted(int(s) for s in np.unique(shard_ids[degraded_idx]))
            raise ShardExhaustedError(
                f"{degraded_idx.size} of {len(batch)} queries lost their shard "
                f"(shards {failed}) and strict serving forbids degradation"
            )
        costs = self._fallback_model.estimate_batch(
            batch.points[degraded_idx], batch.ks[degraded_idx]
        )
        # Belt and braces: the degraded answer must respect the
        # guaranteed bound even if the model misbehaves.
        costs = np.minimum(
            np.where(np.isfinite(costs) & (costs >= 0.0), costs, self._guaranteed_bound),
            self._guaranteed_bound,
        )
        for offset, workload_i in enumerate(degraded_idx):
            k = int(batch.ks[workload_i])
            sid = int(shard_ids[workload_i])
            where = "all data shards" if sid < 0 else f"shard {sid}"
            results[workload_i] = None
            explanations[workload_i] = PlanExplanation(
                chosen=DEGRADED_PLAN,
                alternatives={DEGRADED_PLAN: float(costs[offset])},
                effective_k=k,
                estimator_tier="uniform-model",
                degraded=True,
                notes=[
                    f"{where} unavailable; "
                    "estimate-only answer from the coordinator's local fallback"
                ],
            )

    # ------------------------------------------------------------------
    # Data-shard serving: fan out, stream, merge
    # ------------------------------------------------------------------
    def _serve_admitted_data(
        self, batch: QueryBatch, deadline: Deadline, deadline_ms: float | None
    ) -> ShardedServingReport:
        """Serve one batch in data-shard mode: every query, every shard.

        With several workers per shard, chunks run concurrently
        (pipelined through the worker pools); within a chunk the
        coordinator drives the merge protocol of :mod:`repro.knn.merge`
        — open (each shard's finished local browse), arbitrate, merge;
        a scan round for filter plans, resume rounds only as fallback.
        """
        n = len(batch)
        shard_ids = np.full(n, -1, dtype=np.int64)
        results: list = [None] * n
        explanations: list = [None] * n
        latencies_us = np.zeros(n, dtype=float)
        degraded = np.zeros(n, dtype=bool)
        partial = np.zeros(n, dtype=bool)
        counters_before = {
            sid: self._counter_snapshot(sid) for sid in self.supervisor.shard_ids
        }
        rounds_total = dict.fromkeys(self.supervisor.shard_ids, 0)
        gaps_total = dict.fromkeys(self.supervisor.shard_ids, 0)
        chunks = [
            np.arange(lo, min(lo + self.chunk_size, n), dtype=np.int64)
            for lo in range(0, n, self.chunk_size)
        ]
        start = time.perf_counter()
        shared = (batch, deadline, results, explanations, latencies_us, degraded, partial)
        served = self._run_chunk_tasks(
            [
                functools.partial(self._serve_data_chunk, chunk_idx, *shared)
                for chunk_idx in chunks
            ],
            width=min(len(chunks), self._workers_per_shard),
        )
        for rounds, gaps in served:
            for sid in rounds_total:
                rounds_total[sid] += rounds[sid]
                gaps_total[sid] += gaps[sid]
        if self.strict and partial.any():
            raise ShardExhaustedError(
                f"{int(np.count_nonzero(partial))} of {n} queries lost shard "
                "coverage (partial answers) and strict serving forbids "
                "degradation"
            )
        self._fill_degraded(batch, shard_ids, degraded, results, explanations)
        seconds = time.perf_counter() - start
        shard_reports = tuple(
            self._shard_report(
                sid, n, rounds_total[sid], gaps_total[sid], counters_before[sid]
            )
            for sid in self.supervisor.shard_ids
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
            shard_mode="data",
        )

    def _run_chunk_tasks(self, tasks: list, width: int) -> list:
        """Run one batch's chunk tasks (no-argument callables), in task order.

        A batch no wider than one concurrent task — a single chunk, or
        one worker per shard in data mode — runs on the caller's thread;
        anything wider goes through the tier's chunk pool.
        """
        if width <= 1:
            return [task() for task in tasks]
        futures = [self._chunk_pool.submit(task) for task in tasks]
        return [future.result() for future in futures]

    def _fan_out(
        self,
        payloads: dict[int, dict],
        deadline: Deadline,
        rounds: dict[int, int],
        dead: set[int],
    ) -> dict[int, dict]:
        """One protocol round against several shards, concurrently.

        A shard that exhausts its supervision budget joins ``dead`` for
        the rest of this chunk; its absence from the returned answers
        is how the callers learn about the coverage gap.
        """
        answers: dict[int, dict] = {}
        futures = {
            sid: self._fan_pool.submit(self.supervisor.serve_chunk, sid, payload, deadline)
            for sid, payload in payloads.items()
            if sid not in dead
        }
        for sid, future in futures.items():
            rounds[sid] += 1
            try:
                answer, __ = future.result()
            except ShardUnavailable:
                dead.add(sid)
            else:
                answers[sid] = answer
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
        batch: QueryBatch,
        deadline: Deadline,
        results: list,
        explanations: list,
        latencies_us: np.ndarray,
        degraded: np.ndarray,
        partial: np.ndarray,
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Drive one chunk through the full merge protocol.

        Writes land at disjoint workload indices across chunks, so the
        shared output arrays need no locking.  Returns per-shard
        ``(rounds submitted, coverage-gap queries)`` for the batch's
        shard reports.
        """
        chunk_start = time.perf_counter()
        pts = batch.points[chunk_idx]
        ks = batch.ks[chunk_idx]
        m = int(chunk_idx.size)
        all_sids = self.supervisor.shard_ids
        rounds = dict.fromkeys(all_sids, 0)
        gap_counts = dict.fromkeys(all_sids, 0)
        dead: set[int] = set()
        open_payload = {"round": "open", "points": pts, "ks": ks}
        answers = self._fan_out(
            {sid: open_payload for sid in all_sids}, deadline, rounds, dead
        )
        if not answers:
            # Every shard down: estimate-only degradation, as in
            # replica mode (there is nothing to merge).
            degraded[chunk_idx] = True
            for sid in dead:
                gap_counts[sid] += m
            latencies_us[chunk_idx] = (time.perf_counter() - chunk_start) / m * 1e6
            return rounds, gap_counts
        live = sorted(answers)
        estimates = {sid: answers[sid]["estimates"] for sid in live}
        merged = [
            merge_select_estimates(
                [estimates[sid][0][i] for sid in live],
                [estimates[sid][1][i] for sid in live],
                [estimates[sid][2][i] for sid in live],
                self._guaranteed_bound,
            )
            for i in range(m)
        ]
        costs, tiers, est_degraded = (list(column) for column in zip(*merged))
        est_degraded = np.asarray(est_degraded, dtype=bool) | bool(dead)
        # The planner's select assembly, over the merged estimates: the
        # tier label is the worst shard's.
        chunk_plans = assemble_select_explanations(
            self._arbiter, self.table, np.ones(m), ks, costs, tiers, est_degraded
        )
        filter_pos: list[int] = []
        inc_pos: list[int] = []
        for i, explanation in enumerate(chunk_plans):
            if est_degraded[i]:
                explanation.notes.append(
                    "merged shard estimates degraded (worst answering tier "
                    f"{tiers[i] or 'unknown'!r})"
                )
            explanations[chunk_idx[i]] = explanation
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
        scan_answers = self._fan_out(
            {sid: payload for sid in answers if sid not in dead},
            deadline,
            rounds,
            dead,
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
                    entries, __, bound = state["streams"][i]
                    if entries:
                        shard_min = float(entries[0][0])
                    elif bound is not None:
                        shard_min = float(bound[0])
                    else:
                        continue  # stream spent: shard holds no rows here
                else:
                    hull_bound = self._dead_bound(sid, point)
                    if hull_bound is None:
                        continue  # shard owns no blocks: no gap
                    shard_min = float(hull_bound[0])
                gap_sids.append(sid)
                t_gap = shard_min if t_gap is None else min(t_gap, shard_min)
            workload_i = int(chunk_idx[i])
            blocks_scanned = int(self._guaranteed_bound)
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
        """Distance-browsing-chosen queries: the streaming merge loop.

        Each query's :class:`~repro.knn.merge.QueryMerge` replays the
        global block admission under :func:`~repro.knn.merge.run_merges`
        — the local executor's loop — over what the shards opened with.
        Every shard browsed to its own stop, which the global replay
        provably never passes, so a healthy chunk's merges finish
        without a fetch: one round per shard.  A stream that does
        starve (a dead shard's gap to drain, a truncated reply) is
        resumed, batched into one round per shard per iteration.
        """
        merges: dict[int, QueryMerge] = {}
        for i in inc_pos:
            point = Point(float(pts[i, 0]), float(pts[i, 1]))
            merge = QueryMerge(int(ks[i]))
            for sid in self.supervisor.shard_ids:
                state = answers.get(sid)
                if state is not None:
                    merge.add_stream(sid, *state["streams"][i])
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
            replies = self._fan_out(payloads, deadline, rounds, dead)
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
        """Spawn every shard's worker pool eagerly and wait until live.

        Long-lived callers pay the spawn (and per-worker engine or
        sub-snapshot build) exactly once here instead of on the first
        served batch; :attr:`pools_spawned` then stays at
        ``n_shards`` across any number of :meth:`serve` /
        :meth:`serve_many` calls unless a worker crashes and is
        respawned.  Returns ``self`` so ``tier.start()`` chains with
        the context-manager form.
        """
        futures = [
            self._fan_pool.submit(self.supervisor.handle(sid).spawn)
            for sid in self.supervisor.shard_ids
        ]
        for future in futures:
            future.result()
        return self

    @property
    def pools_spawned(self) -> int:
        """Total pool incarnations ever created across all shards."""
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
        futures = [
            self.supervisor.handle(sid).submit_fn(_worker_stats)[1]
            for sid in self.supervisor.shard_ids
        ]
        return [future.result(timeout=timeout) for future in futures]

    def serve_many(
        self,
        batches,
        deadline_ms: float | None | object = _UNSET,
        max_in_flight: int = 4,
    ) -> ServeManyReport:
        """Serve several batches pipelined through the live worker pools.

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

        The tier's thread pools are shut down and joined first (a batch
        still being served finishes), then every worker process is
        terminated and joined.  A closed tier serves nothing more.
        """
        self._chunk_pool.shutdown(wait=True, cancel_futures=True)
        self._fan_pool.shutdown(wait=True, cancel_futures=True)
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
