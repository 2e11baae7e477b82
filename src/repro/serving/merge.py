"""What only a sharded tier needs of the k-NN merge.

Every worker holds only the blocks its shard owns (all of them in
replica mode), so the coordinator answers a k-NN query with the
engine's own browser,
:mod:`repro.knn.merge`: each shard is one block-stream source of a
:class:`~repro.knn.merge.QueryMerge` (re-exported here) and a dead
shard is a coverage gap — bit-identical to the unsharded
:func:`~repro.engine.physical.execute_incremental_knn_batch`, the same
replay over n sources instead of one.

Left here: the full-scan top-k merge for queries whose plan chose the
filter operator, and the per-query estimate merge — incremental-scan
cost is the *sum* of the per-shard estimates (each shard browses its
own blocks), the tier is the *worst* (most degraded) shard tier, and
the merged numbers are arbitrated by the unsharded planner's own select
assembly (one cost comparison plus the manager's operator pins), so
``PlanExplanation`` keeps its shape.
"""

from __future__ import annotations

import numpy as np

from repro.knn.merge import QueryMerge, ShardStream  # noqa: F401 (re-exported)

#: Note marker for partial-coverage degraded answers.
PARTIAL_PLAN = "partial-coverage"

#: Select-estimator tiers from most to least trusted; the merged
#: explanation reports the *worst* tier any shard answered with.
_TIER_RANK = {
    "": -1,
    "staircase": 0,
    "density": 1,
    "uniform-model": 2,
    "guaranteed-bound": 3,
}


def worst_tier(tiers) -> str:
    """The most degraded tier label among per-shard answers."""
    worst = ""
    rank = -1
    for tier in tiers:
        r = _TIER_RANK.get(tier, 3)
        if r > rank:
            worst, rank = tier, r
    return worst


def merge_filter_topk(
    k: int, candidates: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard full-scan top-k lists into the global top-k.

    Each shard's candidate list carries ``(row_ids, dists, gpos)``
    where ``gpos`` is the row's position in the *global* block-order
    concatenation — the tie-break key of the unsharded
    :class:`~repro.engine.physical.FilterThenKnnOperator`'s stable
    argsort.  Merging all candidates on ``(dist, gpos)`` therefore
    reproduces the global scan's emission bit-for-bit.

    Returns:
        ``(row_ids, dists)`` of the merged top-``k``.
    """
    live = [c for c in candidates if c is not None and c[0].size]
    if not live:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=float)
    rows = np.concatenate([c[0] for c in live])
    dists = np.concatenate([c[1] for c in live])
    gpos = np.concatenate([c[2] for c in live])
    order = np.lexsort((gpos, dists))[:k]
    return rows[order], dists[order]


def merge_select_estimates(
    costs: list[float], tiers: list[str], degraded: list[bool], bound: float
) -> tuple[float, str, bool]:
    """Merge per-shard select estimates into one global estimate.

    The browse cost sums (each shard browses its own blocks for its
    own ``k``-prefix), clamped by the full-scan bound; the tier is the
    worst answering tier; degradation is sticky.
    """
    total = float(sum(costs)) if costs else bound
    return min(total, bound), worst_tier(tiers), bool(any(degraded))
