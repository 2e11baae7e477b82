"""Shard-worker process internals.

Every worker slot of a shard is one long-lived process with one duplex
pipe to the coordinator (:func:`_worker_main`).  The process is
initialized once with its (pickle-shipped) payload and serving
configuration, then answers requests ``(seq, function, args)`` with
``(seq, ok, value)`` until the coordinator closes its end.  There is
one kind of worker (:func:`_init_data_shard_worker`,
:func:`_serve_data_shard_chunk`): it holds the blocks its shard owns — a
sub-snapshot with global block ids, the member rows and points — and
answers the rounds of the cross-shard merge protocol
(``open`` / ``resume`` / ``scan``) that :mod:`repro.knn.merge` merges
into the unsharded answer at the coordinator.
A data shard owns one slice of the blocks; a replica shard owns every
block, so its ``open`` reply already is the whole answer.

Deadline propagation: every chunk message carries the coordinator's
*remaining* time budget, and the worker calls
:func:`~repro.resilience.fallback.budget_check` between serving slices
— a blown deadline surfaces as a typed
:class:`~repro.resilience.errors.BudgetExceededError` mid-chunk instead
of the worker obliviously finishing work nobody is waiting for.

Fault injection: the initializer also receives a
:class:`~repro.resilience.faultinject.WorkerFaultPlan` plus this
process's incarnation number; the plan is applied at the top of every
batch, which is how the chaos suite kills, hangs, or slows a worker on
a chosen batch deterministically.
"""

from __future__ import annotations

import itertools
import time
from functools import partial

import numpy as np

from repro.resilience.fallback import budget_check
from repro.resilience.faultinject import WorkerFaultPlan

#: Queries per cooperative budget checkpoint inside one chunk.
BUDGET_SLICE = 256

_WORKER_STATE: dict = {}


def payload_bytes(payload: dict) -> int:
    """Bytes of data in a shard payload: its block arrays and row columns."""
    snapshot = payload["snapshot"]
    return int(
        snapshot.rects.nbytes
        + snapshot.counts.nbytes
        + snapshot.centers.nbytes
        + snapshot.block_ids.nbytes
        + sum(np.asarray(payload[key]).nbytes for key in ("rows", "points", "gpos"))
    )


def _worker_main(conn) -> None:
    """A worker process: initialize from the first message, then serve.

    The first message is the argument tuple of
    :func:`_init_data_shard_worker`.  Every later one is a request
    ``(seq, function, args)``, answered with ``(seq, True, result)`` or
    ``(seq, False, exception)`` — a typed error goes back to the
    coordinator and the worker stays up.  The coordinator closing its
    end of the pipe ends the loop.
    """
    try:
        init = conn.recv()
    except EOFError:
        return
    _init_data_shard_worker(*init)
    while True:
        try:
            seq, fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = (seq, True, fn(*args))
        except Exception as exc:  # noqa: BLE001 — returned typed, not raised
            reply = (seq, False, exc)
        try:
            conn.send(reply)
        except OSError:  # the coordinator is gone
            return
        except Exception as exc:  # noqa: BLE001 — an unpicklable reply
            conn.send((seq, False, RuntimeError(f"unpicklable reply: {exc!r}")))


def _init_data_shard_worker(
    shard_id: int,
    incarnation: int,
    payload: dict,
    fault_plan: WorkerFaultPlan | None,
) -> None:
    """Worker initializer: the blocks this shard owns, nothing else.

    ``payload`` carries the shard's canonical sub-snapshot (global
    block ids preserved), the member blocks' global row ids and points
    concatenated in canonical block order, and each row's position in
    the *global* block-order concatenation (``gpos`` — the unsharded
    full scan's tie-break key).  A worker keeps no statistics: the
    coordinator plans every query over the whole relation.
    """
    from repro.index.base import BlockPointsView

    snapshot = payload["snapshot"]
    rows = np.asarray(payload["rows"], dtype=np.int64)
    points = np.asarray(payload["points"], dtype=float).reshape(-1, 2)
    gpos = np.asarray(payload["gpos"], dtype=np.int64)
    starts = np.zeros(snapshot.n_blocks + 1, dtype=np.int64)
    np.cumsum(snapshot.counts, out=starts[1:])
    _WORKER_STATE.clear()
    _WORKER_STATE["snapshot"] = snapshot
    _WORKER_STATE["rows"] = rows
    _WORKER_STATE["points"] = points
    _WORKER_STATE["gpos"] = gpos
    _WORKER_STATE["view"] = BlockPointsView(points, starts)
    _WORKER_STATE["shard_id"] = int(shard_id)
    _WORKER_STATE["incarnation"] = int(incarnation)
    _WORKER_STATE["fault_plan"] = fault_plan
    _WORKER_STATE["batches_served"] = 0
    _WORKER_STATE["payload_bytes"] = payload_bytes(payload)


def _browse_to_local_stop(pts: np.ndarray, ks: np.ndarray, checkpoint):
    """The open round: browse each query to the shard's own stop.

    One :func:`~repro.knn.browse.browse` over the shard's blocks, the
    engine executor's, ``BUDGET_SLICE`` queries at a time, replied as
    flat columns (:class:`~repro.knn.merge.OpenReply`): per query every
    block up to the one the stop rule fired on, and the next block's key.
    """
    from repro.knn.browse import browse
    from repro.knn.merge import OpenReply

    snapshot = _WORKER_STATE["snapshot"]
    view, rows = _WORKER_STATE["view"], _WORKER_STATE["rows"]
    local = np.arange(snapshot.n_blocks)
    browsed = []
    for lo in range(0, ks.shape[0], BUDGET_SLICE):
        checkpoint("shard stream open")
        browsed += browse(
            snapshot, view, rows, pts[lo : lo + BUDGET_SLICE], ks[lo : lo + BUDGET_SLICE],
            blocks=local, bounds=True, checkpoint=partial(checkpoint, "shard local browse"),
        )
    *columns, bounds = zip(*browsed)
    counts = np.array([len(mindists) for mindists in columns[0]], dtype=np.int64)
    bounds = np.array([bound or (np.nan,) * 3 for bound in bounds], dtype=float)
    return OpenReply(counts, *(np.concatenate(column) for column in columns), bounds)


def _resume_streams(streams, m: int, payload: dict, block_rows, checkpoint) -> list[tuple]:
    """The resume round: continue each named stream from its cursor.

    ``payload`` must name ``cursors``, ``min_points`` and
    ``min_mindists``, one per each of the ``m`` queries (see
    :meth:`~repro.knn.distance_browsing.SnapshotBlockStream.take`).
    """
    from repro.knn.merge import gather_blocks

    needs = [payload.get(key) for key in ("cursors", "min_points", "min_mindists")]
    if any(need is None or len(need) != m for need in needs):
        raise ValueError(
            f"a resume round needs cursors, min_points and min_mindists, one per query ({m})"
        )
    pulls = zip(streams, *(np.asarray(need).tolist() for need in needs))
    replies = []
    while chunk := list(itertools.islice(pulls, BUDGET_SLICE)):
        checkpoint("shard stream resume")
        replies += gather_blocks(chunk, block_rows)
    return replies


def _serve_data_shard_chunk(payload: dict) -> dict:
    """Serve one round of the cross-shard merge protocol.

    Three round kinds (``payload["round"]``):

    * ``"open"`` — the shard's own finished **local browse**
      (:func:`_browse_to_local_stop`) as ``{"columns": OpenReply}``.  The
      shard's own k-th distance upper-bounds the global one, so the
      coordinator's merge never has to extend what a healthy shard
      opened with (see ``docs/serving.md``);
    * ``"resume"`` — the stateless fallback: continue named queries'
      streams from their ``cursors`` until ``min_points`` are gathered
      or ``min_mindists`` is reached, replied as ``{"streams": [(entries,
      cursor, bound), ...]}`` (:func:`~repro.knn.merge.gather_blocks`);
    * ``"scan"`` — the shard's full-scan local top-k with global
      tie-break keys, for queries whose plan chose the filter operator.

    Distances are computed here, over each block's rows in canonical
    order, so the coordinator's merge reproduces the unsharded
    browser's gather bit-for-bit.  Rounds are stateless in the worker (a
    resume rebuilds each stream from its cursor), so a respawned
    incarnation resumes transparently and retries are idempotent.  The
    fault plan fires per *round* — ``batches_served`` counts rounds —
    which is how the chaos suite kills a data shard mid-stream.

    Raises:
        ValueError: On an unknown round kind, or a resume round whose
            cursors, point minima or MINDIST minima are missing or not
            one per query.
        BudgetExceededError: When the propagated deadline expires
            between serving slices or local browse rounds.
    """
    from repro.geometry import Point
    from repro.knn.distance_browsing import SnapshotBlockStream

    fault_plan = _WORKER_STATE["fault_plan"]
    batch_index = _WORKER_STATE["batches_served"]
    _WORKER_STATE["batches_served"] = batch_index + 1
    if fault_plan is not None:
        fault_plan.apply(
            _WORKER_STATE["shard_id"], batch_index, _WORKER_STATE["incarnation"]
        )
    snapshot = _WORKER_STATE["snapshot"]
    round_kind = payload["round"]
    pts = np.asarray(payload["points"], dtype=float).reshape(-1, 2)
    ks = np.asarray(payload["ks"], dtype=np.int64).reshape(-1)
    budget = payload.get("budget_seconds")
    start = time.perf_counter()
    rows, points = _WORKER_STATE["rows"], _WORKER_STATE["points"]
    checkpoint = partial(budget_check, start, budget)
    if round_kind == "open":
        return {"columns": _browse_to_local_stop(pts, ks, checkpoint)}
    if round_kind == "resume":
        starts = _WORKER_STATE["view"].offsets

        def block_rows(block_id: int, row: int) -> tuple[np.ndarray, np.ndarray]:
            lo, hi = int(starts[row]), int(starts[row + 1])
            return rows[lo:hi], points[lo:hi]

        streams = (SnapshotBlockStream(snapshot, Point(x, y)) for x, y in pts.tolist())
        return {"streams": _resume_streams(streams, pts.shape[0], payload, block_rows, checkpoint)}
    if round_kind == "scan":
        gpos = _WORKER_STATE["gpos"]
        topk = []
        for i in range(pts.shape[0]):
            if i % BUDGET_SLICE == 0:
                budget_check(start, budget, "shard full scan")
            if points.shape[0] == 0:
                empty = np.empty(0, dtype=np.int64)
                topk.append((empty, np.empty(0, dtype=float), empty))
                continue
            dists = np.hypot(points[:, 0] - pts[i, 0], points[:, 1] - pts[i, 1])
            order = np.lexsort((gpos, dists))[: int(ks[i])]
            topk.append((rows[order], dists[order], gpos[order]))
        return {"topk": topk}
    raise ValueError(f"unknown data-shard round {round_kind!r}")


def _worker_ping() -> tuple[int, int]:
    """Liveness probe used by eager tier spawn: ``(shard, incarnation)``."""
    return _WORKER_STATE.get("shard_id", -1), _WORKER_STATE.get("incarnation", -1)


def _worker_stats() -> dict:
    """Worker-side memory telemetry for the benchmark's RSS recording."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "shard_id": _WORKER_STATE.get("shard_id", -1),
        "incarnation": _WORKER_STATE.get("incarnation", -1),
        "payload_bytes": _WORKER_STATE.get("payload_bytes", 0),
        "ru_maxrss_kb": int(usage.ru_maxrss),
    }
