"""Distance browsing (Hjaltason & Samet) and its exact cost.

Distance browsing retrieves nearest neighbors incrementally through two
priority queues: a *blocks-queue* of index nodes ordered by MINDIST from
the query point, and a *tuples-queue* of already-scanned points ordered
by their distance.  A point is returned only when its distance is
strictly below the MINDIST at the top of the blocks-queue — the strict
comparison matches Procedure 1 of the paper, so catalogs and ground
truth agree exactly at catalog anchor points.

The paper models the cost of this algorithm as the number of (non-empty
leaf) blocks scanned.  Two cost paths are provided:

* :class:`DistanceBrowser` / :func:`knn_select` — the faithful heap-
  based incremental algorithm over the index hierarchy, with a scan
  counter: the paper-faithful reference the test suite compares the
  other two against.
* :func:`select_cost_profile` — a vectorized equivalent that returns the
  whole cost-vs-k staircase in one pass.  Because internal nodes cost
  nothing to pop, hierarchical browsing scans leaf blocks in plain
  MINDIST order, so the profile can be computed over the flat block
  list; the test suite cross-checks both paths against each other.
* :class:`SnapshotBlockStream` — the same flat MINDIST order as a
  cursor-resumable block stream: the source side of the per-query
  merge (:mod:`repro.knn.merge`).  Every select runs as an array pass
  instead
  (:mod:`repro.knn.browse`); the scan cost of both is the hierarchical
  reference's: the strict ``<`` return test means every block at
  MINDIST below the next returned distance must be scanned regardless
  of tie order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator

import numpy as np

from repro.geometry import Point, mindist_point_rect
from repro.geometry.kernels import mindist_rects
from repro.index.base import Block, SpatialIndex
from repro.index.snapshot import IndexSnapshot, as_snapshot


class DistanceBrowser:
    """Incremental nearest-neighbor browser over a hierarchical index.

    Usage::

        browser = DistanceBrowser(index, query_point)
        nearest = next(browser)            # (distance, x, y)
        more = browser.next_nearest()      # same, method form
        browser.blocks_scanned             # cost so far

    The browser is an iterator yielding points in non-decreasing
    distance order; iteration ends when the index is exhausted.

    Args:
        index: The data index.
        query: The query focal point.
    """

    def __init__(self, index: SpatialIndex, query: Point) -> None:
        self._query = query
        self._counter = itertools.count()  # tie-breaker for heap entries
        self._block_queue: list[tuple[float, int, object]] = []
        self._tuple_queue: list[tuple[float, float, float]] = []
        self._blocks_scanned = 0
        root = index.root
        heapq.heappush(
            self._block_queue,
            (mindist_point_rect(query, root.rect), next(self._counter), root),
        )

    @property
    def blocks_scanned(self) -> int:
        """Number of non-empty leaf blocks scanned so far (the cost)."""
        return self._blocks_scanned

    def __iter__(self) -> Iterator[tuple[float, float, float]]:
        return self

    def __next__(self) -> tuple[float, float, float]:
        result = self.next_nearest()
        if result is None:
            raise StopIteration
        return result

    def _scan(self, block: Block) -> None:
        self._blocks_scanned += 1
        dists = block.distances_from(self._query)
        for dist, (x, y) in zip(dists, block.points):
            heapq.heappush(self._tuple_queue, (float(dist), float(x), float(y)))

    def next_nearest(self) -> tuple[float, float, float] | None:
        """Return the next nearest ``(distance, x, y)``, or ``None``.

        Mirrors the paper's ``getNextNearest()``: the top of the
        tuples-queue is returned if its distance is strictly less than
        the MINDIST of the top of the blocks-queue; otherwise the top
        block is scanned and its tuples enqueued.
        """
        while True:
            if self._tuple_queue and (
                not self._block_queue
                or self._tuple_queue[0][0] < self._block_queue[0][0]
            ):
                return heapq.heappop(self._tuple_queue)
            if not self._block_queue:
                return None
            __, __, node = heapq.heappop(self._block_queue)
            if node.is_leaf:
                block = node.block
                if block is None:
                    continue  # structurally-empty leaf: no block to scan
                self._scan(block)
            else:
                for child in node.children:
                    heapq.heappush(
                        self._block_queue,
                        (
                            mindist_point_rect(self._query, child.rect),
                            next(self._counter),
                            child,
                        ),
                    )


def knn_select(index: SpatialIndex, query: Point, k: int) -> tuple[np.ndarray, int]:
    """Run a k-NN-Select via distance browsing.

    Args:
        index: The data index.
        query: The query focal point.
        k: Number of neighbors to retrieve.

    Returns:
        ``(neighbors, cost)`` where ``neighbors`` is a ``(m, 2)`` array
        of the k nearest points in distance order (``m < k`` if the
        index holds fewer points) and ``cost`` is the number of blocks
        scanned.

    Raises:
        ValueError: If ``k < 1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    browser = DistanceBrowser(index, query)
    found = list(itertools.islice(browser, k))
    neighbors = np.array([(x, y) for __, x, y in found], dtype=float).reshape(-1, 2)
    return neighbors, browser.blocks_scanned


def select_cost(index: SpatialIndex, query: Point, k: int) -> int:
    """Exact distance-browsing cost of ``σ_kNN,q`` (blocks scanned)."""
    __, cost = knn_select(index, query, k)
    return cost


def select_cost_profile(
    snapshot,
    blocks,
    query: Point,
    max_k: int,
) -> list[tuple[int, int, int]]:
    """Compute the full cost-vs-k staircase at ``query`` in one pass.

    This is the vectorized core of Procedure 1.  Blocks are visited in
    MINDIST order from ``query``; after scanning the ``i``-th block, the
    number of points retrievable at cost ``i`` is the count of scanned
    points with distance strictly below the next block's MINDIST.

    Args:
        snapshot: Block summary of the data blocks (an
            :class:`~repro.index.snapshot.IndexSnapshot`, or a raw
            index to gather one from) — supplies the MINDIST ordering
            without touching points.
        blocks: The data blocks themselves, indexable by the
            summary's block order (catalog *construction* is the one
            offline step that does read points).
        query: The anchor point.
        max_k: Largest k the profile must cover.

    Returns:
        A list of ``(k_start, k_end, cost)`` entries with contiguous,
        increasing k ranges.  The final entry's ``k_end`` is at least
        ``max_k`` unless the whole index holds fewer points, in which
        case the profile ends at the total point count.

    Raises:
        ValueError: If ``max_k < 1``.
    """
    return select_cost_profile_covered(snapshot, blocks, query, max_k)[0]


def select_cost_profile_covered(
    snapshot,
    blocks,
    query: Point,
    max_k: int,
) -> tuple[list[tuple[int, int, int]], float]:
    """:func:`select_cost_profile` plus the profile's coverage radius.

    The scan stops at the first block after which ``max_k`` points are
    retrievable.  Every quantity the profile reads — the scanned
    blocks' point distances and the per-step thresholds (each next
    block's MINDIST) — concerns only blocks with MINDIST at most ``C``,
    the MINDIST of the first *unscanned* block, which the scan holds as
    its final threshold.  Mutations confined to regions with
    ``MINDIST(query, region) > C`` therefore leave the profile (and any
    catalog built from it) bit-for-bit unchanged: mutated blocks lie
    inside their noted region, so they sort strictly after the scanned
    prefix and past the final threshold.

    :func:`repro.perf.profile_staircases` runs this scan for many
    anchors at once, in fixed-shape rounds over candidate sets that
    this bound certifies, and is held to it anchor for anchor.

    Returns:
        ``(profile, C)``.  ``C`` is ``inf`` — any mutation anywhere may
        be visible — when the profile is empty, never reaches ``max_k``
        (fewer than ``max_k`` points: any insert could extend it), or
        scanned every block (the final threshold was unbounded).
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    snap = as_snapshot(snapshot)
    n_blocks = snap.n_blocks
    if n_blocks == 0:
        return [], np.inf
    mindists_all = mindist_rects((query.x, query.y), snap.rects)

    # Only the blocks nearest to the query matter, but how many is not
    # known in advance (low-density areas can force scanning far beyond
    # the first max_k points).  Select a candidate set with a partial
    # partition — far cheaper than a full argsort of every block for
    # every catalog anchor — and grow it geometrically until the
    # profile reaches max_k.
    avg_count = max(1.0, snap.total_count / n_blocks)
    candidates = min(n_blocks, int(max_k / avg_count) + 8)
    while True:
        if candidates < n_blocks:
            nearest = np.argpartition(mindists_all, candidates)[: candidates + 1]
            nearest = nearest[np.argsort(mindists_all[nearest], kind="stable")]
            order = nearest[:candidates]
            # MINDIST of the nearest block *outside* the candidate set:
            # the threshold that applies after scanning the last one.
            beyond = float(mindists_all[nearest[candidates]])
        else:
            order = np.argsort(mindists_all, kind="stable")
            beyond = np.inf
        mindists = mindists_all[order]
        prefix = order.shape[0]

        # One concatenated sort answers every per-step threshold: every
        # point in a block beyond position i lies at distance >= that
        # block's MINDIST >= the step-i threshold, so counting over the
        # whole prefix never overcounts an earlier step.
        # ``order`` indexes snapshot *rows*; the summary's ``block_ids``
        # map rows to positions in ``blocks``, so a physically reordered
        # snapshot (Hilbert layout) still reads the right blocks.  The
        # profile itself is tie-invariant — equal-MINDIST blocks share
        # every threshold they could straddle — so no tie correction of
        # the row order is needed for layout parity.
        dists = np.concatenate(
            [blocks[int(i)].distances_from(query) for i in snap.block_ids[order]]
        )
        dists.sort(kind="stable")
        # Threshold after scanning block i is the next block's MINDIST.
        thresholds = np.empty(prefix, dtype=float)
        thresholds[: prefix - 1] = mindists[1:prefix]
        thresholds[prefix - 1] = beyond
        retrievable = np.searchsorted(dists, thresholds, side="left")
        if retrievable[-1] >= max_k or candidates >= n_blocks:
            break
        candidates = min(n_blocks, candidates * 2)

    profile: list[tuple[int, int, int]] = []
    k_reached = 0  # points already retrievable at the previous cost
    for i in range(prefix):
        r = int(retrievable[i])
        if r > k_reached:
            profile.append((k_reached + 1, r, i + 1))
            k_reached = r
        if k_reached >= max_k:
            return profile, float(thresholds[i])
    return profile, np.inf


def select_cost_exact(
    snapshot,
    blocks,
    query: Point,
    k: int,
) -> int:
    """Exact distance-browsing cost via the vectorized profile.

    Equivalent to :func:`select_cost` (the test suite cross-checks the
    two) but orders of magnitude faster for large k, which makes it the
    ground-truth oracle of the experiment harness.  A ``k`` exceeding
    the number of indexed points forces a scan of every block, matching
    the incremental algorithm's exhaustion behaviour.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    snap = as_snapshot(snapshot)
    profile = select_cost_profile(snap, blocks, query, k)
    if not profile:
        return 0
    for k_start, k_end, cost in profile:
        if k <= k_end:
            return cost
    # Fewer than k points exist: the browser exhausts the whole index.
    return snap.n_blocks


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
