"""The fault-tolerant sharded serving tier.

A supervised, process-sharded front end over the
:class:`~repro.engine.SpatialEngine`:

* :mod:`~repro.serving.shards` — the shard planner (count-balanced
  spatial partitioning of query space), vectorized routing, and the
  block-level data partitioner for true data shards;
* :mod:`~repro.serving.worker` — the per-shard worker process: either a
  full engine replica serving chunks under a propagated deadline
  (``shard_mode="replica"``) or a data shard streaming MINDIST-ordered
  blocks to the coordinator (``shard_mode="data"``);
* :mod:`~repro.serving.merge` — the full-scan top-k and estimate
  merges; the streaming k-NN merge itself is the engine's browser,
  :mod:`repro.knn.merge` (``QueryMerge`` is re-exported here);
* :mod:`~repro.serving.supervisor` — deadlines, bounded retries with
  backoff, worker respawn, and per-shard circuit breakers;
* :mod:`~repro.serving.admission` — queue-depth and time-budget load
  shedding via :class:`~repro.resilience.errors.OverloadError`;
* :mod:`~repro.serving.coordinator` — routing, fan-out, merge with
  per-shard provenance, and graceful degradation.

Entry points: :class:`ShardedServingTier` for long-lived serving,
:func:`serve_sharded` for one-shot runs, and
``serve_workload(..., mode="sharded")`` in :mod:`repro.workloads`.
"""

from repro.serving.admission import AdmissionController
from repro.serving.coordinator import (
    DEGRADED_PLAN,
    ServeManyReport,
    ShardedServingReport,
    ShardedServingTier,
    ShardReport,
    serve_sharded,
)
from repro.serving.merge import PARTIAL_PLAN, QueryMerge, merge_filter_topk
from repro.serving.shards import ShardPlan, partition_blocks, plan_shards
from repro.serving.supervisor import (
    Deadline,
    ShardSupervisor,
    ShardUnavailable,
    ShardWorkerHandle,
    SupervisionPolicy,
)

__all__ = [
    "AdmissionController",
    "DEGRADED_PLAN",
    "Deadline",
    "PARTIAL_PLAN",
    "QueryMerge",
    "ServeManyReport",
    "ShardPlan",
    "ShardReport",
    "ShardSupervisor",
    "ShardUnavailable",
    "ShardWorkerHandle",
    "ShardedServingReport",
    "ShardedServingTier",
    "SupervisionPolicy",
    "merge_filter_topk",
    "partition_blocks",
    "plan_shards",
    "serve_sharded",
]
