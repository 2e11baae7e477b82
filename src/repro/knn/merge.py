"""The cross-shard k-NN merge: block streams + a k-bounded replay.

Local selects — the engine's, and each data shard's ``open`` round —
run as one array pass per batch (:func:`repro.knn.browse.browse`).
What crosses shards is this module, at the serving coordinator:

* :class:`~repro.knn.distance_browsing.SnapshotBlockStream` sources,
  each walking *its* blocks in ``(MINDIST, block id)`` order from a
  plain integer cursor; a shard opens with the prefix its local browse
  scanned and the next block's key as the stream's **bound**, below
  which the source holds nothing, and :func:`gather_blocks` answers a
  ``resume`` round's pulls in the same format;
* one :class:`QueryMerge` per query, admitting whichever source's head
  sorts first on the global key and applying the browser's stop rule:
  once ``k`` gathered rows lie *strictly* below the next block's
  MINDIST (the entries' ``threshold`` field, the same float), no
  unscanned block can contribute;
* :func:`run_merges`, the resume loop — ``advance()`` → fetch what
  starved → ``extend()`` — whose fetch is one supervised round per
  starved shard;
* :func:`merge_open`, that replay for a healthy chunk in one array pass
  over :class:`OpenReply` columns, refusing what it cannot certify.

The admitted block count is distance browsing's ``blocks_scanned`` and
the emitted rows — a stable argsort over the admitted blocks' distances
— its answer in (distance, scan order); n sources replay the same
global block sequence the local browse scans over one, with the same
floats.

**Coverage gaps.**  A dead source contributes only a lower bound (its
last reported bound, or a hull bound when it never answered).  When
the replay's next global block belongs to a dead source, either the
stop rule already holds at the dead bound's threshold — the true scan
would have stopped there too, and the answer is **exact** — or the
query degrades to a **partial** answer: the live sources are drained
below the gap threshold ``t_gap`` and the verified prefix is returned,
every row strictly below ``t_gap`` in global emission order, clamped
to ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.index.base import concat_ranges
from repro.knn.distance_browsing import SnapshotBlockStream


class OpenReply(NamedTuple):
    """A shard's ``open`` reply as flat columns.  Query ``i`` owns the next
    ``counts[i]`` blocks (``mindists``, ``block_ids``, row counts ``sizes``)
    and their rows (``row_ids``, ``dists``) in scan order; ``bounds[i]`` is
    its next block's ``(mindist, block id, threshold)``, NaN when spent."""

    counts: np.ndarray
    mindists: np.ndarray
    block_ids: np.ndarray
    sizes: np.ndarray
    row_ids: np.ndarray
    dists: np.ndarray
    bounds: np.ndarray

    def stream(self, i: int) -> tuple[list, int, tuple | None]:
        """Query ``i``'s ``(entries, cursor, bound)``, as :meth:`QueryMerge.add_stream` takes it."""
        lo, hi = int(self.counts[:i].sum()), int(self.counts[: i + 1].sum())
        ends = [0, *np.cumsum(self.sizes[:hi]).tolist()]
        entries = [
            (float(self.mindists[b]), int(self.block_ids[b]), float(self.mindists[b]),
             self.row_ids[ends[b] : ends[b + 1]], self.dists[ends[b] : ends[b + 1]])
            for b in range(lo, hi)
        ]
        mindist, block_id, threshold = self.bounds[i].tolist()
        return entries, hi - lo, None if np.isnan(mindist) else (mindist, int(block_id), threshold)


def merge_open(replies: list[OpenReply], ks: np.ndarray, queries: np.ndarray) -> list:
    """Answer a healthy chunk's ``queries`` from all its shards' open replies at once.

    Blocks and live bounds (zero-row markers) sort on ``(query, mindist,
    block id)`` into the scan :class:`QueryMerge` replays.  Rows lie at or
    beyond their block's MINDIST, so the stop is the first block whose
    threshold — the next key's MINDIST in its query, +inf after the last
    — exceeds the query's ``k``-th distance, else its last block; it is
    certified when no marker comes before it.  Returns per query
    ``(row_ids, dists, blocks_scanned)``, or ``None`` where refused.
    """
    slot = np.full(replies[0].counts.shape[0], -1)  # -1: not asked; sorts first, cut
    slot[queries] = np.arange(queries.shape[0])
    slots = np.concatenate([slot] * len(replies))
    bounds = np.concatenate([r.bounds for r in replies])
    live = np.flatnonzero(~np.isnan(bounds[:, 0]))
    sizes = np.concatenate([r.sizes for r in replies])
    # Every block, then every live bound as a marker: no rows, start -1.
    q = np.concatenate((np.repeat(slots, np.concatenate([r.counts for r in replies])), slots[live]))
    mindist = np.concatenate([r.mindists for r in replies] + [bounds[live, 0]])
    block_id = np.concatenate([r.block_ids for r in replies] + [bounds[live, 1].astype(np.int64)])
    order = np.lexsort((block_id, mindist, q))[np.count_nonzero(q < 0) :]
    q, mindist = q[order], mindist[order]
    size = np.concatenate((sizes, np.zeros(live.shape[0], dtype=np.int64)))[order]
    start = np.concatenate((np.cumsum(sizes) - sizes, np.full(live.shape[0], -1)))[order]
    at = concat_ranges(start, size)
    dists = np.concatenate([r.dists for r in replies])[at]
    row_ids = np.concatenate([r.row_ids for r in replies])[at]
    first, end = (np.searchsorted(q, slot[queries], side=side) for side in ("left", "right"))
    ends = np.concatenate(([0], np.cumsum(size)))
    k = np.asarray(ks)[queries]
    kth, nearest = np.empty(queries.shape[0]), []
    for j, (lo, hi, kj) in enumerate(zip(ends[first].tolist(), ends[end].tolist(), k.tolist())):
        near = dists[lo:hi]
        take = np.argsort(near, kind="stable")[:kj]
        kth[j] = near[take[-1]] if take.shape[0] == kj else np.inf
        nearest.append((row_ids[lo:hi][take], near[take]))
    threshold = np.append(np.where(q[1:] == q[:-1], mindist[1:], np.inf), np.inf)
    hits = np.flatnonzero((threshold > kth[q]) & (start >= 0))
    stop = np.minimum(np.append(hits, q.shape[0])[np.searchsorted(hits, first)], end - 1)
    marks = np.flatnonzero(start < 0)
    certified = np.append(marks, q.shape[0])[np.searchsorted(marks, first)] > stop
    answers = zip(nearest, stop.tolist(), first.tolist(), certified.tolist())
    return [(*rows, s - f + 1) if ok else None for rows, s, f, ok in answers]


def gather_blocks(
    pulls: list[tuple[SnapshotBlockStream, int, int, float]],
    block_rows: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
) -> list[tuple[list, int, tuple | None]]:
    """Answer block-stream pulls in merge format, with one distance pass.

    Each pull ``(stream, cursor, min_points, min_mindist)`` takes blocks
    from ``cursor`` (see :meth:`SnapshotBlockStream.take`);
    ``block_rows(block_id, row)`` returns a block's ``(row_ids,
    points)`` in scan order, and distances are computed over whole
    blocks — all pulls' blocks at once.

    Returns:
        Per pull ``(entries, new_cursor, bound)`` with entries
        ``(mindist, block_id, threshold, row_ids, dists)`` — the triple
        :meth:`ShardStream.extend` takes.
    """
    taken = [s.take(c, min_points=p, min_mindist=m) for s, c, p, m in pulls]
    blocks = [[block_rows(e[1], e[3]) for e in raw] for raw, __ in taken]
    sizes = [sum(ids.shape[0] for ids, __ in held) for held in blocks]
    dists = np.empty(0)
    if any(sizes):
        focus = np.array([(s.query.x, s.query.y) for s, *__ in pulls]).repeat(sizes, axis=0)
        delta = np.concatenate([pts for held in blocks for __, pts in held]) - focus
        dists = np.hypot(delta[:, 0], delta[:, 1])
    replies, lo = [], 0
    for (stream, *__), (raw, cursor), held in zip(pulls, taken, blocks):
        entries = []
        for (mindist, block_id, threshold, __), (row_ids, __) in zip(raw, held):
            entries.append(
                (mindist, block_id, threshold, row_ids, dists[lo : lo + row_ids.shape[0]])
            )
            lo += row_ids.shape[0]
        replies.append((entries, cursor, stream.bound(cursor)))
    return replies


def run_merges(
    merges: dict[int, "QueryMerge"],
    fetch: Callable[[dict[int, list[tuple[int, int, int, float]]]], dict[int, list]],
) -> None:
    """Drive every merge to its answer: advance → fetch → extend.

    Args:
        merges: ``{query key: merge}``; each is finished on return.
        fetch: Answers one resume round.  Given ``{source id: [(query
            key, cursor, min_points, min_mindist), ...]}`` it returns
            ``{source id: [(entries, cursor, bound), ...]}`` aligned
            with the requests.  A requested source missing from the
            reply stopped answering: it becomes a permanent coverage
            gap (its last known bound) on every still-running merge.
    """
    pending = dict(merges)
    while True:
        requests: dict[int, list[tuple[int, int, int, float]]] = {}
        for key in list(pending):
            needs = pending[key].advance()
            if needs is None:
                del pending[key]
                continue
            for sid, need in needs.items():
                requests.setdefault(sid, []).append((key, *need))
        if not pending:
            return
        replies = fetch(requests)
        for sid, asked in requests.items():
            if sid not in replies:
                for merge in pending.values():
                    if sid in merge.streams:
                        merge.mark_dead(sid)
                continue
            for (key, *__), reply in zip(asked, replies[sid]):
                pending[key].streams[sid].extend(*reply)


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

    Drive with :meth:`advance` (or :func:`run_merges`): it admits blocks
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
