"""A per-query k-NN merge over block streams, for probes and oracles.

Every select — the engine's, and the serving coordinator's over its
shards — runs :func:`repro.knn.browse.browse`; no answer goes through
this module.  It keeps the per-query replay that the serving tier's
benchmark probe times, and that tests hold the browse to:

* :class:`~repro.knn.distance_browsing.SnapshotBlockStream` sources,
  each walking *its* blocks in ``(MINDIST, block id)`` order from a
  plain integer cursor, with the next block's key as the stream's
  **bound**, below which the source holds nothing;
* one :class:`QueryMerge` per query, admitting whichever source's head
  sorts first on the global key and applying the browser's stop rule:
  once ``k`` gathered rows lie *strictly* below the next block's
  MINDIST (the entries' ``threshold`` field, the same float), no
  unscanned block can contribute.

The admitted block count is distance browsing's ``blocks_scanned`` and
the emitted rows — a stable argsort over the admitted blocks' distances
— its answer in (distance, scan order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ShardStream:
    """Merge-side state of one source's block stream for one query.

    Attributes:
        shard_id: The source.
        entries: Fetched-but-unadmitted-or-admitted blocks, in stream
            order: ``(mindist, global block id, threshold, row_ids,
            dists)``.
        pos: Next unadmitted entry index.
        cursor: Source-side stream rank already fetched (the resume
            token).
        bound: ``(mindist, global block id, threshold)`` of the next
            *unfetched* block, or ``None`` when the stream is spent.
    """

    shard_id: int
    entries: list = field(default_factory=list)
    pos: int = 0
    cursor: int = 0
    bound: tuple | None = None

    def extend(self, entries: list, cursor: int, bound: tuple | None) -> None:
        """Append one resume round's entries and advance the cursor."""
        self.entries.extend(entries)
        self.cursor = int(cursor)
        self.bound = bound


class QueryMerge:
    """Replay the global block admission for one query across sources.

    Drive with :meth:`advance`: it admits blocks
    until the query is answered (``None``) or a live stream starves (a
    ``{shard_id: (cursor, min_points, min_mindist)}`` resume request).
    Feed resume results back through the streams'
    :meth:`ShardStream.extend` and call :meth:`advance` again.  When it
    returns ``None``, read :meth:`result`.  A stream registered with no
    entries and its rank-0 bound starves at once with ``(0, k, -inf)``:
    opening a stream *is* resuming it from cursor 0.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.streams: dict[int, ShardStream] = {}
        self._row_parts: list[np.ndarray] = []
        self._dist_parts: list[np.ndarray] = []
        # The <= k smallest distances over the first _pooled admitted
        # blocks, and the k-th of them (inf while fewer than k).
        self._nearest, self._pooled, self._kth = np.empty(0), 0, np.inf
        self.gathered = 0
        self.admitted = 0
        self.finished = False

    # -- stream wiring --------------------------------------------------
    def add_stream(
        self, shard_id: int, entries: list, cursor: int, bound: tuple | None
    ) -> None:
        """Register one live source's opening stream state."""
        self.streams[shard_id] = ShardStream(
            int(shard_id), list(entries), 0, int(cursor), bound
        )

    # -- the replay -----------------------------------------------------
    def _k_below(self, threshold: float) -> bool:
        """Whether ``k`` gathered rows lie strictly below ``threshold``."""
        if self._pooled < len(self._dist_parts):
            pool = np.concatenate((self._nearest, *self._dist_parts[self._pooled :]))
            self._pooled = len(self._dist_parts)
            if pool.shape[0] >= self.k:
                pool.partition(self.k - 1)  # in place: pool[k-1] is the k-th
                self._kth = float(pool[self.k - 1])
            self._nearest = pool[: self.k]
        return self._kth < threshold

    def advance(self) -> dict[int, tuple[int, int, float]] | None:
        """Admit blocks until answered (``None``) or a resume is needed.

        Returns:
            ``None`` when the query is answered, or
            ``{shard_id: (cursor, min_points, min_mindist)}`` naming
            every starved stream whose next blocks must be fetched
            before the replay can continue (``min_points`` is ``k``,
            ``min_mindist`` is ``-inf``).
        """
        while True:
            # Keys are (mindist, block id, threshold): block ids are
            # unique, so the order is the global (mindist, block id) scan
            # order and the stop-test threshold rides along.  ``nxt`` is
            # the smallest fetched head (held by ``source``) or starved
            # bound (``source`` None).
            nxt = source = None
            for stream in self.streams.values():
                if stream.pos < len(stream.entries):
                    key = stream.entries[stream.pos][:3]
                    if nxt is None or key < nxt:
                        nxt, source = key, stream
                elif stream.bound is not None:
                    key = tuple(stream.bound)
                    if nxt is None or key < nxt:
                        nxt, source = key, None
            # Every stream spent, or the browser's stop rule on the
            # threshold of whichever block comes next globally.
            if nxt is None or (self.gathered >= self.k and self._k_below(nxt[2])):
                self.finished = True
                return None
            if source is None:
                # A bound gates the merge: fetch more from every starved
                # stream, batching round trips.
                return {
                    stream.shard_id: (stream.cursor, self.k, -np.inf)
                    for stream in self.streams.values()
                    if stream.pos >= len(stream.entries) and stream.bound is not None
                }
            __, __, __, rows, dists = source.entries[source.pos]
            source.pos += 1
            self._row_parts.append(rows)
            self._dist_parts.append(dists)
            self.gathered += int(rows.shape[0])
            self.admitted += 1

    # -- the answer -----------------------------------------------------
    def result(self) -> tuple[np.ndarray, int, int]:
        """The merged answer: ``(row_ids, blocks_scanned, n_rows)``.

        The ``k`` nearest rows (fewer only when the relation holds
        fewer); ``n_rows`` is ``len(row_ids)``.
        """
        if not self.finished:
            raise RuntimeError("merge has not finished")
        if not self._row_parts:
            return np.empty(0, dtype=np.int64), self.admitted, 0
        order = np.argsort(np.concatenate(self._dist_parts), kind="stable")[: self.k]
        return np.concatenate(self._row_parts)[order], self.admitted, int(order.shape[0])
