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

**Coverage gaps.**  A dead source contributes only a lower bound (its
last reported bound).  When the replay's next global block belongs to a
dead source, either the stop rule already holds at the dead bound's
threshold — the answer is **exact** — or the query degrades to a
**partial** answer: the live sources are drained below the gap
threshold ``t_gap`` and the verified prefix is returned, every row
strictly below ``t_gap`` in global emission order, clamped to ``k``.
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
        dead: Whether the source stopped answering; fetched entries stay
            admissible, but the bound becomes a permanent coverage gap.
    """

    shard_id: int
    entries: list = field(default_factory=list)
    pos: int = 0
    cursor: int = 0
    bound: tuple | None = None
    dead: bool = False

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
        self.t_gap: float | None = None
        self.gap_shards: tuple[int, ...] = ()
        self.finished = False

    # -- stream wiring --------------------------------------------------
    def add_stream(
        self, shard_id: int, entries: list, cursor: int, bound: tuple | None
    ) -> None:
        """Register one live source's opening stream state."""
        self.streams[shard_id] = ShardStream(
            int(shard_id), list(entries), 0, int(cursor), bound
        )

    def mark_dead(self, shard_id: int) -> None:
        """Demote a stream whose source stopped answering: bound = gap."""
        self.streams[shard_id].dead = True

    @property
    def partial(self) -> bool:
        """Whether the replay crossed a dead source's coverage gap."""
        return self.t_gap is not None

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
            ``None`` when the query is answered (exact or partial), or
            ``{shard_id: (cursor, min_points, min_mindist)}`` naming
            every live stream whose next blocks must be fetched before
            the replay can continue.
        """
        while True:
            # Keys are (mindist, block id, threshold): block ids are
            # unique, so the order is the global (mindist, block id) scan
            # order and the stop-test threshold rides along.  ``live`` is
            # the smallest fetched head (held by ``source``) or starved
            # live bound (``source`` None); ``gap`` the smallest dead one.
            live = gap = source = None
            for stream in self.streams.values():
                if stream.pos < len(stream.entries):
                    key = stream.entries[stream.pos][:3]
                    if live is None or key < live:
                        live, source = key, stream
                elif stream.bound is not None:
                    key = tuple(stream.bound)
                    if stream.dead:
                        if gap is None or key < gap:
                            gap = key
                    elif live is None or key < live:
                        live, source = key, None
            if self.t_gap is not None:
                # Partial mode: drain live blocks strictly below the gap
                # (the dead source's rows all lie at or beyond it) until
                # k rows are verified below it or nothing closer is left.
                if live is None or live[0] >= self.t_gap or self._k_below(self.t_gap):
                    self.finished = True
                    return None
                if source is None:
                    return self._resume_requests(min_mindist=self.t_gap)
            else:
                nxt = live if gap is None or (live is not None and live < gap) else gap
                # Every stream spent, or the browser's stop rule on the
                # threshold of whichever block comes next globally.
                if nxt is None or (self.gathered >= self.k and self._k_below(nxt[2])):
                    self.finished = True
                    return None
                if nxt is gap:
                    # The next global block is unreachable: coverage gap.
                    self.t_gap = float(gap[2])
                    self.gap_shards = tuple(
                        sorted(
                            s.shard_id
                            for s in self.streams.values()
                            if s.dead and s.bound is not None
                        )
                    )
                    continue
                if source is None:
                    # A live stream's bound gates the merge: fetch more
                    # (from every starved live stream, batching round trips).
                    return self._resume_requests(min_points=self.k)
            __, __, __, rows, dists = source.entries[source.pos]
            source.pos += 1
            self._row_parts.append(rows)
            self._dist_parts.append(dists)
            self.gathered += int(rows.shape[0])
            self.admitted += 1

    def _resume_requests(
        self, *, min_points: int = 0, min_mindist: float = -np.inf
    ) -> dict[int, tuple[int, int, float]]:
        needs = {
            stream.shard_id: (stream.cursor, min_points, float(min_mindist))
            for stream in self.streams.values()
            if not stream.dead
            and stream.pos >= len(stream.entries)
            and stream.bound is not None
            and (min_mindist == -np.inf or stream.bound[0] < min_mindist)
        }
        if not needs:  # pragma: no cover - defensive: advance() gates this
            raise RuntimeError("merge starved with no resumable stream")
        return needs

    # -- the answer -----------------------------------------------------
    def result(self) -> tuple[np.ndarray, int, int]:
        """The merged answer: ``(row_ids, blocks_scanned, n_verified)``.

        Exact queries return the ``k`` nearest rows (fewer only when
        the relation holds fewer); partial queries return the verified
        prefix — rows strictly below the gap threshold, clamped to
        ``k``.  ``n_verified`` counts rows the merge could prove
        correct (== ``len(row_ids)``; exposed for reporting).
        """
        if not self.finished:
            raise RuntimeError("merge has not finished")
        if not self._row_parts:
            return np.empty(0, dtype=np.int64), self.admitted, 0
        rows = np.concatenate(self._row_parts)
        dists = np.concatenate(self._dist_parts)
        order = np.argsort(dists, kind="stable")
        if self.t_gap is not None:
            verified = order[dists[order] < self.t_gap]
            take = verified[: self.k]
        else:
            take = order[: self.k]
        return rows[take], self.admitted, int(take.shape[0])
