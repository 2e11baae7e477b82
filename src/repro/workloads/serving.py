"""The batched serving driver: replay a workload, measure throughput.

One function, :func:`serve_workload`, runs a :class:`~repro.workloads.queries.QueryBatch`
against a :class:`~repro.engine.SpatialEngine` in one of two serving
modes — ``"batch"`` (one :meth:`~repro.engine.SpatialEngine.execute_batch`
call) or ``"sharded"`` (the supervised multi-process tier of
:mod:`repro.serving`) — and returns a :class:`ServingReport` with
wall-clock throughput and latency percentiles where the mode records
them.  The CLI ``--batch`` mode is a thin wrapper over it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.workloads.queries import QueryBatch


@dataclass(frozen=True)
class ServingReport:
    """Outcome of replaying one workload through the engine.

    Attributes:
        mode: ``"batch"`` or ``"sharded"``.
        n_queries: Workload size.
        seconds: Wall-clock time of the replay (planning + execution).
        results: Per-query :class:`~repro.engine.ExecutionResult`, in
            workload order.
        explanations: Per-query :class:`~repro.engine.PlanExplanation`.
        latencies_us: ``(n,)`` per-query latencies in microseconds, when
            the serving mode records them (``"sharded"`` amortizes per
            chunk; ``"batch"`` plans the whole workload at once, so
            per-query figures would be fiction and stay ``None``).
    """

    mode: str
    n_queries: int
    seconds: float
    results: list
    explanations: list
    latencies_us: np.ndarray | None = None

    @property
    def queries_per_second(self) -> float:
        """Serving throughput (0.0 for an empty or instantaneous run)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.n_queries / self.seconds

    @property
    def mean_latency_us(self) -> float:
        """Mean per-query latency in microseconds."""
        if self.n_queries == 0:
            return 0.0
        return self.seconds / self.n_queries * 1e6

    def _latency_percentile(self, q: float) -> float | None:
        if self.latencies_us is None or self.latencies_us.size == 0:
            return None
        return float(np.percentile(self.latencies_us, q))

    @property
    def p50_latency_us(self) -> float | None:
        """Median per-query latency (``None`` when not recorded)."""
        return self._latency_percentile(50.0)

    @property
    def p95_latency_us(self) -> float | None:
        """95th-percentile per-query latency (``None`` when not recorded)."""
        return self._latency_percentile(95.0)

    @property
    def p99_latency_us(self) -> float | None:
        """99th-percentile per-query latency — the serving-tier SLO
        figure (``None`` when not recorded)."""
        return self._latency_percentile(99.0)

    def describe(self) -> str:
        """Multi-line summary for the CLI."""
        lines = [
            f"mode:        {self.mode}",
            f"queries:     {self.n_queries}",
            f"elapsed:     {self.seconds:.3f} s",
            f"throughput:  {self.queries_per_second:,.0f} queries/s",
            f"latency:     {self.mean_latency_us:.1f} us/query (mean)",
        ]
        if self.p50_latency_us is not None:
            lines.append(
                "percentiles: "
                f"p50 {self.p50_latency_us:.1f} / "
                f"p95 {self.p95_latency_us:.1f} / "
                f"p99 {self.p99_latency_us:.1f} us/query"
            )
        return "\n".join(lines)


def serve_workload(
    engine,
    table: str,
    batch: QueryBatch,
    mode: str = "batch",
    *,
    shards: int = 4,
    shard_mode: str = "replica",
    workers: int = 1,
    deadline_ms: float | None = None,
    tier_options: dict | None = None,
) -> ServingReport:
    """Replay a workload against one table and time it.

    Args:
        engine: A :class:`~repro.engine.SpatialEngine` with ``table``
            registered.
        table: Target relation name.
        batch: The workload.
        mode: ``"batch"`` (vectorized ``execute_batch``) or
            ``"sharded"`` (the supervised sharded tier of
            :mod:`repro.serving` — one-shot: workers are spawned and
            torn down inside the call).
        shards: Shard count for ``"sharded"`` mode.
        shard_mode: ``"replica"`` (each worker holds the full dataset)
            or ``"data"`` (each worker holds one block-aligned slice
            and the coordinator runs the streaming k-NN merge).
        workers: Worker processes per shard for ``"sharded"`` mode.
        deadline_ms: Per-batch deadline for ``"sharded"`` mode
            (``None`` = unbounded).
        tier_options: Extra :class:`~repro.serving.ShardedServingTier`
            keyword arguments for ``"sharded"`` mode (fault plans,
            supervision policy, admission, ``strict``, ...).

    Raises:
        ValueError: On an unknown mode.
    """
    if mode not in ("batch", "sharded"):
        raise ValueError(f"mode must be 'batch' or 'sharded', got {mode!r}")
    if mode == "sharded":
        # Imported lazily: repro.serving sits above the workloads layer.
        from repro.serving import serve_sharded

        return serve_sharded(
            engine.stats.table(table),
            batch,
            n_shards=shards,
            shard_mode=shard_mode,
            workers_per_shard=workers,
            deadline_ms=deadline_ms,
            **(tier_options or {}),
        )
    queries = batch.as_knn_queries(table)
    start = time.perf_counter()
    pairs = engine.execute_batch(queries)
    seconds = time.perf_counter() - start
    return ServingReport(
        mode=mode,
        n_queries=len(queries),
        seconds=seconds,
        results=[result for result, __ in pairs],
        explanations=[explanation for __, explanation in pairs],
    )
