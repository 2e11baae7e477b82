"""The fault-tolerant sharded serving tier.

A supervised, process-sharded front end over the
:class:`~repro.engine.SpatialEngine`:

* :mod:`~repro.serving.shards` — the shard planner (count-balanced
  spatial partitioning of query space), vectorized routing, and the
  block-level data partitioner for true data shards;
* :mod:`~repro.serving.worker` — the per-shard worker process: it holds
  the points of the blocks its shard owns (every block with
  ``shard_mode="replica"``, one slice with ``shard_mode="data"``) and
  answers stateless ``gather`` and ``scan`` rounds under a propagated
  deadline;
* :mod:`~repro.serving.merge` — the full-scan top-k merge for filter
  plans (``QueryMerge`` is re-exported here for the benchmark probe);
* :mod:`~repro.serving.supervisor` — deadlines, bounded retries with
  backoff, worker respawn, and per-shard circuit breakers;
* :mod:`~repro.serving.admission` — queue-depth and time-budget load
  shedding via :class:`~repro.resilience.errors.OverloadError`;
* :mod:`~repro.serving.coordinator` — planning (the engine's own
  planner over the whole relation), routing, the engine's distance
  browse over the global snapshot with each round's gather sent to the
  shards that own its blocks, per-shard provenance, and graceful
  degradation.

Entry points: :class:`ShardedServingTier` for long-lived serving,
:func:`serve_sharded` for one-shot runs, and
``serve_workload(..., mode="sharded")`` in :mod:`repro.workloads`.
"""

from repro.serving.admission import AdmissionController
from repro.serving.coordinator import (
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
