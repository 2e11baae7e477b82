"""What only a sharded tier needs of the k-NN merge.

The coordinator answers every distance-browsing query with the engine's
own browse (:func:`repro.knn.browse.browse`), gathering each round's
blocks from the shards that own them, so no browse answer is merged.
Left here: the full-scan top-k merge for queries whose plan chose the
filter operator, and :class:`~repro.knn.merge.QueryMerge` re-exported
for the benchmark's merge probe.  Plans are not merged at all: the
coordinator plans every query with the unsharded planner over the whole
relation.
"""

from __future__ import annotations

import numpy as np

from repro.knn.merge import QueryMerge, ShardStream  # noqa: F401 (re-exported)

#: Note marker for partial-coverage degraded answers.
PARTIAL_PLAN = "partial-coverage"


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
