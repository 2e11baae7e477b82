"""The distance browse: a select batch as fixed-shape array rounds.

:func:`browse` takes every query of a batch to distance browsing's stop
— the first block after which ``k`` qualifying rows lie strictly below
the next block's MINDIST, Procedure 1's staircase read at the query's
own ``k`` — in a few array passes.  It executes every k-NN select: the
engine's over its local view, and the serving coordinator's over the
shards that own the blocks.  Each round:

1. **Runs, candidates, window.**  Each query keys the snapshot's runs of
   ``g = isqrt(n)`` rows (:attr:`IndexSnapshot.block_runs`; Z-ordered
   rows make a run compact), then the blocks of its ``m`` nearest runs
   (of all once ``m`` reaches their count; NaN pads key NaN, which
   partitions last), on ``dx*dx + dy*dy``, the MINDIST kernel's own
   ufunc chain.  Only the ``w``-key window of these candidates gets the
   exact ``np.hypot`` MINDIST, ordered by ``(MINDIST, block id)``.
2. **Certificate.**  The chain is monotone in floats, so a block keys at
   least its run's key, and an excluded block's MINDIST is at least ``L
   = sqrt(min(w-th candidate key, m-th run key)) * (1 - 1e-12)``
   (0-based) — 0 when that key is not finite or below ``2**-900``, where
   squares overflow or lose precision.  Window ranks below ``L`` are the
   global scan order, and a rank's threshold is ``min(next window
   MINDIST, L)``: exact up to them and a lower bound past them, so a stop
   found at a certain rank is the true first stop.
3. **Gather and stop rule.**  The window's rows come from a *gather*
   (the only step that reads points: :func:`view_gather` for a local
   :class:`BlockPointsView`, a round to the shards at the coordinator)
   and are masked per query.  A block's rows lie at or beyond its
   MINDIST, so ``k`` rows lie below a threshold iff the query's ``k``-th
   distance does: the stop is the first threshold above it.  Unsure
   rows go round again with twice the window and the runs; the last
   round holds every block.

A gather may report blocks as **lost** (a shard that did not answer).
Their rows lie at or beyond their MINDIST, so a query whose stop comes
before its first lost block is exact; one whose first lost block comes
first at a certain rank stops there, and only its rows strictly below
that block's MINDIST (:attr:`Browsed.gap`) are a verified prefix.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.index.base import BlockPointsView
from repro.index.snapshot import IndexSnapshot

#: Cells (queries x blocks) per slab: bounds each transient ``dx`` /
#: ``dy`` / key array to half a megabyte.
_SLAB_CELLS = 1 << 16
#: Blocks the first window holds beyond twice those a slab's largest ``k`` fills.
WINDOW_SLACK = 8
#: Below this key a square may have lost relative precision.
_TINY_KEY = 2.0**-900
#: Margin of the certified bound below ``sqrt(key)``.
_SHRINK = 1.0 - 1e-12
#: Runs the first round keeps at least.
_RUNS = 8
#: Rows per query below which one sort beats a partition per query.
_SHORT_ROWS = 32


class Browsed(NamedTuple):
    """One query's browse up to its stop: the scanned blocks' MINDISTs,
    ids and qualifying row counts (their number is ``blocks_scanned``),
    and those rows and their distances in scan order.  ``gap`` is
    ``None`` for an exact browse, else the MINDIST of the lost block it
    stopped before: only its rows strictly below ``gap`` are certain."""

    mindists: np.ndarray
    block_ids: np.ndarray
    sizes: np.ndarray
    row_ids: np.ndarray
    dists: np.ndarray
    gap: float | None


#: ``gather(xy, block_ids)`` of a round: ``xy`` ``(p, 2)`` focal points,
#: ``block_ids`` ``(p, w)`` their window's blocks in scan order.  Returns
#: the blocks' rows ``(row_ids, dists)`` — query by query, block by block,
#: each block's rows in view order — and their ``(p, w)`` counts, ``-1``
#: for a lost block (which contributes no rows).
Gather = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def view_gather(view: BlockPointsView, row_ids: np.ndarray) -> Gather:
    """The gather of a local view in which view block = block id, and
    ``row_ids`` names each view point's row."""

    def gather(xy: np.ndarray, block_ids: np.ndarray):
        starts = view.offsets[block_ids]
        sizes = view.offsets[block_ids + 1] - starts
        dists, at = view.gather(xy, starts, sizes)
        return row_ids[at], dists, sizes

    return gather


def browse(
    snapshot: IndexSnapshot,
    gather: Gather,
    points: np.ndarray,
    ks: np.ndarray,
    masks: Sequence[Callable[[np.ndarray], np.ndarray] | None] | None = None,
    *,
    checkpoint: Callable[[], None] | None = None,
) -> list[Browsed]:
    """Browse every query to its stop over ``snapshot``'s blocks (any layout).

    ``gather`` reads each round's window (see :data:`Gather`).
    ``masks[i]``, if set, keeps query ``i``'s qualifying rows (a masked
    row still counts its block as scanned); ``checkpoint`` is called
    before every round.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    n = snapshot.n_blocks
    if n == 0:
        none = np.empty(0, dtype=np.int64)
        return [Browsed(np.empty(0), none, none, none, np.empty(0), None)] * ks.shape[0]
    per_block = max(1.0, snapshot.total_count / n)
    mbrs, cols = snapshot.block_runs
    __, n_runs, g = cols.shape
    out: list[Browsed] = []
    step = max(1, _SLAB_CELLS // (n_runs * g))
    for lo in range(0, ks.shape[0], step):
        xy, k = points[lo : lo + step], ks[lo : lo + step]
        keep_of = None if masks is None else masks[lo : lo + step]
        q = k.shape[0]
        slab: list[Browsed | None] = [None] * q
        pending = np.arange(q)
        # Twice the blocks the slab's largest k fills, plus slack: a round
        # may be a round trip to the shards.  Runs for w + 1.
        w = min(n, int(min(2.0 * float(k.max()) / per_block, n)) + WINDOW_SLACK)
        m = max(_RUNS, -(-(w + 1 + n_runs * g - n) // g))
        while pending.shape[0]:
            if checkpoint is not None:
                checkpoint()
            p = pending.shape[0]
            each = np.arange(p)[:, None]
            x, y = xy[pending, :1], xy[pending, 1:]
            if m < n_runs:
                run_key = mindist_gaps(*mbrs, x, y)[2]
                part = np.argpartition(run_key, m, axis=1)
                near, run_bound = part[:, :m], run_key[each[:, 0], part[:, m]]
                # Candidate blocks: run r's slots r * g .. r * g + g - 1.
                cand = (near[:, :, None] * g + np.arange(g)).reshape(p, -1)
                rects = cols[:, near].reshape(4, p, -1)
            else:
                cand = np.broadcast_to(np.arange(n_runs * g), (p, n_runs * g))
                rects, run_bound = cols.reshape(4, 1, -1), np.inf
            dx, dy, key = mindist_gaps(*rects, x, y)
            if w < n:
                part = np.argpartition(key, w, axis=1)
                pick = part[:, :w]
                certain = certified_bound(np.minimum(key[each[:, 0], part[:, w]], run_bound))
            else:
                pick = np.broadcast_to(np.arange(n), (p, n))
                certain = np.full(p, np.inf)
            window = cand[each, pick]
            mindists = np.hypot(dx[each, pick], dy[each, pick])
            ids = snapshot.block_ids[window]
            order = np.lexsort((ids, mindists), axis=1)
            mindists, ids = mindists[each, order], ids[each, order]
            complete = (mindists < certain[:, None]).sum(axis=1)
            thresholds = np.empty_like(mindists)
            np.minimum(mindists[:, 1:], certain[:, None], out=thresholds[:, :-1])
            thresholds[:, -1] = certain

            # Every window block's rows in scan order, with their distances.
            rows, dists, sizes = gather(xy[pending], ids)
            lost = sizes < 0
            gap_at = np.where(lost.any(axis=1), lost.argmax(axis=1), w)
            sizes = np.maximum(sizes, 0)
            masked = [] if keep_of is None else [
                i for i, j in enumerate(pending.tolist()) if keep_of[j] is not None
            ]
            if masked:
                keep = np.ones(rows.shape[0], dtype=bool)
                cuts = np.cumsum(sizes.sum(axis=1)).tolist()
                for i in masked:
                    a = cuts[i - 1] if i else 0
                    keep[a : cuts[i]] = keep_of[pending[i]](rows[a : cuts[i]])
                dists, rows = dists[keep], rows[keep]
                slot = np.repeat(np.arange(p * w), sizes.ravel())
                sizes = np.bincount(slot[keep], minlength=p * w).reshape(p, w)
            ends = np.cumsum(sizes, axis=1)
            firsts = np.cumsum(ends[:, -1]) - ends[:, -1]
            reached = thresholds > _kth(dists, firsts, ends[:, -1], k[pending])[:, None]
            found = reached.any(axis=1)
            stop = reached.argmax(axis=1)
            stop[~found] = w - 1
            # Certain ranks; the last round, which holds every block, ends
            # every row.  A stop before the first lost block is exact; a
            # certain lost block before the stop ends the row there.
            if w >= n:
                found[:], complete = True, np.full(p, w)
            exact = found & (stop < np.minimum(complete, gap_at))
            done = exact | (gap_at < complete)
            ends_at = np.where(exact, stop + 1, gap_at)
            firsts = firsts.tolist()
            for i in np.flatnonzero(done).tolist():
                s = int(ends_at[i])
                a, b = firsts[i], firsts[i] + (int(ends[i, s - 1]) if s else 0)
                gap = None if exact[i] else float(mindists[i, s])
                slab[pending[i]] = Browsed(
                    mindists[i, :s], ids[i, :s], sizes[i, :s], rows[a:b], dists[a:b], gap
                )
            pending = pending[~done]
            w, m = min(n, 2 * w), 2 * m
        out += slab
    return out


def mindist_gaps(x0, y0, x1, y1, x: np.ndarray, y: np.ndarray):
    """The MINDIST kernel's ``dx``, ``dy`` (its float is their hypot) and key."""
    dx = np.maximum(np.maximum(x0 - x, 0.0), x - x1)
    dy = np.maximum(np.maximum(y0 - y, 0.0), y - y1)
    key = dx * dx
    key += dy * dy
    return dx, dy, key


def certified_bound(key: np.ndarray) -> np.ndarray:
    """Step 2's certified lower bound on the MINDIST of a block that keys
    at least ``key``: 0 where ``key`` is not finite or below ``2**-900``."""
    return np.where((key >= _TINY_KEY) & (key < np.inf), np.sqrt(key) * _SHRINK, 0.0)


def _kth(dists, firsts, totals, k) -> np.ndarray:
    """Row ``r``'s ``k[r]``-th distance of ``dists[firsts[r]:][:totals[r]]``
    (``inf`` if fewer): a partition each, or for short rows one sort of
    complex ``row + 1j * dist`` keys (by real, then imaginary part)."""
    kth, has = np.full(k.shape[0], np.inf), np.flatnonzero(totals >= k)
    if dists.shape[0] < _SHORT_ROWS * k.shape[0]:
        keys = np.empty(dists.shape[0], dtype=complex)
        keys.real, keys.imag = np.repeat(np.arange(k.shape[0]), totals), dists
        kth[has] = np.sort(keys).imag[firsts[has] + k[has] - 1]
    else:
        for r, a, i in zip(has.tolist(), firsts[has].tolist(), (k[has] - 1).tolist()):
            kth[r] = np.partition(dists[a : a + int(totals[r])], i)[i]
    return kth
