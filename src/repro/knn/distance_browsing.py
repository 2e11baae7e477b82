"""Distance browsing (Hjaltason & Samet): the cost the paper estimates.

Distance browsing scans leaf blocks in MINDIST order from the query
point and returns a point only when its distance is strictly below the
next block's MINDIST — the strict comparison matches Procedure 1 of the
paper, so catalogs and ground truth agree exactly at catalog anchors.
Internal nodes cost nothing to pop, so hierarchical browsing scans leaf
blocks in plain MINDIST order, and the cost — blocks scanned — is read
off the flat block list.

The paper's one operator has one cost path per phase:

* query time: :func:`repro.knn.browse.browse`, which the engine and the
  serving tier execute selects with, and which :func:`select_costs`,
  :func:`select_cost_exact`, :func:`select_cost` and :func:`knn_select`
  run over a block sequence, reading only each round's window blocks;
* build time: :func:`repro.perf.profile_staircases`, Procedure 1 for
  many anchors, of which :func:`select_cost_profile` is the one-anchor
  case.

:class:`SnapshotBlockStream` is the same MINDIST order as a
cursor-resumable block stream, the source side of the per-query merge
(:mod:`repro.knn.merge`); no query runs it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry import Point
from repro.geometry.kernels import mindist_rects
from repro.index.base import Block, BlockPointsView, SpatialIndex
from repro.index.snapshot import IndexSnapshot, as_snapshot
from repro.knn.browse import Browsed, Gather, browse


def _blocks_gather(blocks: Sequence[Block]) -> Gather:
    """The gather of a block sequence (block id = position): each round
    flattens only its window's blocks, once each."""

    def gather(xy: np.ndarray, block_ids: np.ndarray):
        ids, local = np.unique(block_ids, return_inverse=True)
        view = BlockPointsView.from_blocks([blocks[i] for i in ids.tolist()])
        local = local.reshape(block_ids.shape)
        starts = view.offsets[local]
        sizes = view.offsets[local + 1] - starts
        dists, at = view.gather(xy, starts, sizes)
        return at, dists, sizes

    return gather


def _browse(snapshot, blocks: Sequence[Block], points, ks) -> list[Browsed]:
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    if ks.shape[0] and int(ks.min()) < 1:
        raise ValueError(f"k must be >= 1, got {int(ks.min())}")
    return browse(as_snapshot(snapshot), _blocks_gather(blocks), points, ks)


def select_costs(snapshot, blocks: Sequence[Block], points, ks) -> np.ndarray:
    """Exact distance-browsing costs (blocks scanned) of many selects.

    Args:
        snapshot: Block summary of the data blocks, in any layout (an
            :class:`~repro.index.snapshot.IndexSnapshot`, or a raw
            index to gather one from).
        blocks: The data blocks, indexable by the summary's block ids.
        points: ``(q, 2)`` focal points.
        ks: ``(q,)`` values of k.  A ``k`` above the number of indexed
            points scans every block; an empty index costs 0.

    Raises:
        ValueError: If any ``k < 1``.
    """
    return np.array(
        [b.block_ids.shape[0] for b in _browse(snapshot, blocks, points, ks)],
        dtype=np.int64,
    )


def select_cost_exact(snapshot, blocks: Sequence[Block], query: Point, k: int) -> int:
    """Exact distance-browsing cost of ``σ_kNN,q``: :func:`select_costs`
    of one query — the ground truth of the experiment harness."""
    return int(select_costs(snapshot, blocks, [(query.x, query.y)], [k])[0])


def knn_select(index: SpatialIndex, query: Point, k: int) -> tuple[np.ndarray, int]:
    """Run a k-NN-Select via distance browsing.

    Returns:
        ``(neighbors, cost)`` where ``neighbors`` is a ``(m, 2)`` array
        of the k nearest points ordered by distance, then x, then y
        (``m < k`` if the index holds fewer points) and ``cost`` is the
        number of blocks scanned.

    Raises:
        ValueError: If ``k < 1``.
    """
    blocks = index.blocks
    (found,) = _browse(index, blocks, [(query.x, query.y)], [k])
    points = np.concatenate(
        [np.empty((0, 2))] + [blocks[i].points for i in found.block_ids.tolist()]
    )
    order = np.lexsort((points[:, 1], points[:, 0], found.dists))[:k]
    return points[order], int(found.block_ids.shape[0])


def select_cost(index: SpatialIndex, query: Point, k: int) -> int:
    """Exact distance-browsing cost of ``σ_kNN,q`` over a raw index."""
    return select_cost_exact(index, index.blocks, query, k)


def select_cost_profile(
    snapshot,
    blocks: Sequence[Block],
    query: Point,
    max_k: int,
) -> list[tuple[int, int, int]]:
    """The full cost-vs-k staircase at ``query`` (Procedure 1).

    :func:`repro.perf.select_cost_profiles` with one anchor: after
    scanning the ``i``-th block in MINDIST order, the points
    retrievable at cost ``i`` are the scanned ones strictly nearer than
    the next block's MINDIST.

    Returns:
        ``(k_start, k_end, cost)`` entries with contiguous, increasing
        k ranges.  The final entry's ``k_end`` is at least ``max_k``
        unless the whole index holds fewer points, in which case the
        profile ends at the total point count.

    Raises:
        ValueError: If ``max_k < 1``.
    """
    from repro.perf.parallel import select_cost_profiles  # repro.perf imports repro.knn

    view = BlockPointsView.from_blocks(blocks)
    return select_cost_profiles(snapshot, view, [query], max_k)[0][0]


def brute_force_knn(points: np.ndarray, query: Point, k: int) -> np.ndarray:
    """Exact k-NN by full scan; correctness oracle for the algorithms.

    Returns:
        ``(min(k, n), 2)`` array of the nearest points in distance
        order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        return np.empty((0, 2))
    dists = np.hypot(pts[:, 0] - query.x, pts[:, 1] - query.y)
    k_eff = min(k, pts.shape[0])
    idx = np.argpartition(dists, k_eff - 1)[:k_eff]
    idx = idx[np.argsort(dists[idx], kind="stable")]
    return pts[idx]


def _ordered_window(snapshot: IndexSnapshot, mindists: np.ndarray, want: int):
    """A row's nearest blocks in ``(MINDIST, block id)`` order.

    Returns ``(mindists, block_ids, snapshot rows, complete)`` for the
    ``want + 1`` smallest MINDISTs (a partial partition), sorted.  Only
    the first ``complete`` ranks are a prefix of the global scan order —
    those strictly below the largest selected value, since a block tied
    with it may have been left out — unless the window spans every
    block.  Ties can leave ``complete`` short of ``want``, even at zero;
    callers retry with a larger ``want``.
    """
    n = mindists.shape[0]
    rows = np.argpartition(mindists, want)[: want + 1] if want < n else np.arange(n)
    rows = rows[np.lexsort((snapshot.block_ids[rows], mindists[rows]))]
    window = mindists[rows]
    complete = int((window < window[-1]).sum()) if want < n else n
    return window, snapshot.block_ids[rows], rows, complete


class SnapshotBlockStream:
    """Resumable MINDIST-ordered block stream over one snapshot.

    The source side of the per-query merge (:mod:`repro.knn.merge`):
    the snapshot's blocks in the exact (MINDIST, ascending block id)
    order distance browsing visits them, but *incrementally* — the
    consumer pulls a prefix, merges it (against other sources' streams,
    when the snapshot is one shard's slice), and resumes from a plain
    integer cursor only while this stream's :meth:`bound` is still
    below the running k-th distance.  The cursor is the whole state.

    MINDISTs come from the :func:`~repro.geometry.kernels.mindist_rects`
    kernel, but a query that scans a handful of blocks never sorts every
    leaf: only a window of the :data:`FIRST_WINDOW` nearest is ordered,
    doubled on demand.
    A block's stop-test ``threshold`` *is* its MINDIST: the kernel and
    the scalar :func:`~repro.geometry.mindist_point_rect` the heap
    browser compares gathered distances against are one float.

    Args:
        snapshot: The (sub-)snapshot to stream, in any layout; its
            ``block_ids`` are reported back with every entry so a
            cross-shard consumer can merge on the global ``(MINDIST,
            block id)`` key.
        query: The focal point.
    """

    FIRST_WINDOW = 32

    def __init__(self, snapshot: IndexSnapshot, query: Point) -> None:
        self._snapshot = snapshot
        self.query = query
        # MINDIST per snapshot row (unordered) and the ordered window of
        # the nearest rows (see _ordered_window): filled in on first use.
        self._mindists: np.ndarray | None = None
        self._window = (None, None, None, 0)
        self._entries: dict[int, tuple[float, int, float, int]] = {}

    @property
    def n_blocks(self) -> int:
        """Total blocks the stream can ever emit."""
        return self._snapshot.n_blocks

    def entry(self, rank: int) -> tuple[float, int, float, int]:
        """The stream's ``rank``-th block as ``(mindist, block_id, threshold, row)``.

        ``row`` is the block's physical row in the snapshot (for
        pairing with per-block row/point arrays); ``threshold``, the
        value the browser's stop test compares against, is ``mindist``.
        """
        entry = self._entries.get(rank)
        if entry is None:
            if not 0 <= rank < self.n_blocks:
                raise IndexError(f"stream rank {rank} out of range")
            if self._mindists is None:
                self._mindists = mindist_rects(
                    (self.query.x, self.query.y), self._snapshot.rects
                )
            want = max(2 * (rank + 1), self.FIRST_WINDOW)
            while rank >= self._window[3]:
                self._window = _ordered_window(self._snapshot, self._mindists, want)
                want *= 2
            mindists, block_ids, rows, __ = self._window
            mindist = float(mindists[rank])
            entry = self._entries[rank] = (
                mindist,
                int(block_ids[rank]),
                mindist,
                int(rows[rank]),
            )
        return entry

    def bound(self, cursor: int) -> tuple[float, int, float] | None:
        """Lower bound of everything not yet emitted, or ``None`` if spent.

        The next block's ``(mindist, block_id, threshold)``: no
        unemitted row of this stream can lie closer than ``threshold``,
        and no unemitted block sorts before ``(mindist, block_id)`` in
        the global scan order.
        """
        if cursor >= self.n_blocks:
            return None
        return self.entry(cursor)[:3]

    def take(
        self,
        cursor: int,
        *,
        min_points: int = 0,
        min_mindist: float = -np.inf,
    ) -> tuple[list[tuple[float, int, float, int]], int]:
        """Emit blocks from ``cursor`` until both stop conditions hold.

        Emission continues while the emitted blocks hold fewer than
        ``min_points`` rows *or* the next block's MINDIST is strictly
        below ``min_mindist`` — the two pull shapes of the merge
        protocol (gather-a-k-prefix, and drain-below-a-dead-shard's
        bound) — and stops at exhaustion regardless.

        Returns:
            ``(entries, new_cursor)`` with entries as in :meth:`entry`.
        """
        counts = self._snapshot.counts
        entries: list[tuple[float, int, float, int]] = []
        gathered = 0
        n = self.n_blocks
        while cursor < n:
            entry = self.entry(cursor)
            if gathered >= min_points and entry[0] >= min_mindist:
                break
            entries.append(entry)
            gathered += int(counts[entry[3]])
            cursor += 1
        return entries, cursor
