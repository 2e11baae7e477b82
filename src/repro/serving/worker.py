"""Shard-worker process internals.

Every worker slot of a shard is one long-lived process with one duplex
pipe to the coordinator (:func:`_worker_main`).  The process is
initialized once with its (pickle-shipped) payload and serving
configuration, then answers requests ``(seq, function, args)`` with
``(seq, ok, value)`` until the coordinator closes its end.  There is
one kind of worker (:func:`_init_data_shard_worker`,
:func:`_serve_data_shard_chunk`): it holds the points of the blocks its
shard owns — every block in replica mode, one slice in data mode — and
answers two stateless rounds: ``gather``, the rows and distances of
named blocks for the coordinator's distance browse, and ``scan``, a
full-scan top-k for filter plans.  The coordinator orders the blocks;
a worker never browses.

Deadline propagation: every chunk message carries the coordinator's
*remaining* time budget, and the scan round calls
:func:`~repro.resilience.fallback.budget_check` between serving slices
— a blown deadline surfaces as a typed
:class:`~repro.resilience.errors.BudgetExceededError` mid-round instead
of the worker obliviously finishing work nobody is waiting for.

Fault injection: the initializer also receives a
:class:`~repro.resilience.faultinject.WorkerFaultPlan` plus this
process's incarnation number; the plan is applied at the top of every
round, which is how the chaos suite kills, hangs, or slows a worker on
a chosen round deterministically.
"""

from __future__ import annotations

import time

import numpy as np

from repro.resilience.fallback import budget_check
from repro.resilience.faultinject import WorkerFaultPlan

#: Queries per cooperative budget checkpoint inside one chunk.
BUDGET_SLICE = 256

_WORKER_STATE: dict = {}


def payload_bytes(payload: dict) -> int:
    """Bytes of data in a shard payload: its block and row columns."""
    return int(sum(np.asarray(column).nbytes for column in payload.values()))


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

    ``payload`` carries the owned blocks' global ids (ascending) and
    row counts, their rows' global ids and points concatenated in that
    block order, and each row's position in the *global* block-order
    concatenation (``gpos`` — the unsharded full scan's tie-break key).
    A worker keeps no statistics and no block geometry: the coordinator
    plans and orders every query over the whole relation.
    """
    from repro.index.base import BlockPointsView

    counts = np.asarray(payload["counts"], dtype=np.int64)
    points = np.asarray(payload["points"], dtype=float).reshape(-1, 2)
    starts = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    _WORKER_STATE.clear()
    _WORKER_STATE["block_ids"] = np.asarray(payload["block_ids"], dtype=np.int64)
    _WORKER_STATE["rows"] = np.asarray(payload["rows"], dtype=np.int64)
    _WORKER_STATE["points"] = points
    _WORKER_STATE["gpos"] = np.asarray(payload["gpos"], dtype=np.int64)
    _WORKER_STATE["view"] = BlockPointsView(points, starts)
    _WORKER_STATE["shard_id"] = int(shard_id)
    _WORKER_STATE["incarnation"] = int(incarnation)
    _WORKER_STATE["fault_plan"] = fault_plan
    _WORKER_STATE["batches_served"] = 0
    _WORKER_STATE["payload_bytes"] = payload_bytes(payload)


def _gather(payload: dict) -> dict:
    """The gather round: named blocks' rows and distances, block by block.

    Every column travels as raw native-endian bytes (a numpy array's
    buffer pickles at several times the cost): ``points`` holds the
    round's ``m`` focal points as float64 ``(x, y)`` pairs, ``counts``
    the number of blocks asked for each (int64) and ``blocks`` their
    global ids, point by point (int64).  Replies ``{"row_ids",
    "dists"}`` as int64 / float64 bytes: each block's rows in the
    shard's view order, with ``np.hypot`` distances (the engine's
    floats).
    """
    owned, view = _WORKER_STATE["block_ids"], _WORKER_STATE["view"]
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
    return {"row_ids": _WORKER_STATE["rows"][at].tobytes(), "dists": dists.tobytes()}


def _scan(payload: dict) -> dict:
    """The scan round: the shard's full-scan local top-k, with global tie keys."""
    rows, points, gpos = (_WORKER_STATE[key] for key in ("rows", "points", "gpos"))
    pts = np.asarray(payload["points"], dtype=float).reshape(-1, 2)
    ks = np.asarray(payload["ks"], dtype=np.int64).reshape(-1)
    start, budget = time.perf_counter(), payload.get("budget_seconds")
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


def _serve_data_shard_chunk(payload: dict) -> dict:
    """Serve one round: ``payload["round"]`` is ``"gather"`` or ``"scan"``.

    * ``"gather"`` (:func:`_gather`) — one round of the coordinator's
      distance browse: the rows and distances of the blocks it names.
      Distances are computed here, over each block's rows in canonical
      order, so the coordinator's browse is the engine's bit for bit;
    * ``"scan"`` (:func:`_scan`) — the shard's full-scan local top-k
      with global tie-break keys, for queries whose plan chose the
      filter operator.

    Rounds are stateless in the worker, so a respawned incarnation
    serves any round and retries are idempotent.  The fault plan fires
    per *round* — ``batches_served`` counts rounds — which is how the
    chaos suite kills a data shard mid-browse.

    Raises:
        ValueError: On an unknown round kind, or a gather round whose
            points, counts and block ids do not fit together or name a
            block the shard does not own.
        BudgetExceededError: When the propagated deadline expires
            between a scan round's serving slices.
    """
    fault_plan = _WORKER_STATE["fault_plan"]
    batch_index = _WORKER_STATE["batches_served"]
    _WORKER_STATE["batches_served"] = batch_index + 1
    if fault_plan is not None:
        fault_plan.apply(
            _WORKER_STATE["shard_id"], batch_index, _WORKER_STATE["incarnation"]
        )
    round_kind = payload["round"]
    if round_kind == "gather":
        return _gather(payload)
    if round_kind == "scan":
        return _scan(payload)
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
