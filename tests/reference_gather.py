"""Reference shard gather round: the worker's ``gather`` as it was first written.

It locates each named block by a binary search over the shard's owned
ids, checks ownership with two passes, repeats every focal point per
block and then per row, and measures with
:meth:`repro.index.base.BlockPointsView.gather`.  The worker's
``_gather`` (a global-id map and one repeat per row) must reply the
same bytes and refuse the same rounds: ``tests/test_worker_gather.py``
compares the two.
"""

from __future__ import annotations

import numpy as np

from repro.index.base import BlockPointsView


def reference_gather(init: dict, payload: dict) -> dict:
    """The gather reply of a shard initialized with ``init`` (a worker
    payload: ``block_ids``, ``counts``, ``rows``, ``points``) to the
    round ``payload``; raises ``ValueError`` on a malformed round."""
    owned = np.asarray(init["block_ids"], dtype=np.int64)
    counts_b = np.asarray(init["counts"], dtype=np.int64)
    offsets = np.zeros(counts_b.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts_b, out=offsets[1:])
    view = BlockPointsView(np.asarray(init["points"], dtype=float).reshape(-1, 2), offsets)
    try:
        points = np.frombuffer(payload["points"], dtype=float).reshape(-1, 2)
        counts = np.frombuffer(payload["counts"], dtype=np.int64)
        blocks = np.frombuffer(payload["blocks"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"a gather round needs float64 points, int64 counts and ids: {exc}")
    if counts.shape != points.shape[:1] or (counts < 0).any() or counts.sum() != blocks.shape[0]:
        raise ValueError("a gather round needs m points, m block counts and their block ids")
    local = np.searchsorted(owned, blocks)
    if (local >= owned.shape[0]).any() or (owned[local] != blocks).any():
        raise ValueError("a gather round names a block this shard does not own")
    starts = view.offsets[local]
    lengths = view.offsets[local + 1] - starts
    dists, at = view.gather(np.repeat(points, counts, axis=0), starts[:, None], lengths[:, None])
    rows = np.asarray(init["rows"], dtype=np.int64)
    return {"row_ids": rows[at].tobytes(), "dists": dists.tobytes()}
