"""A shard worker's gather round against the reference round.

``repro.serving.worker._gather`` reads a round through a global-id map
and repeats each focal point once per row.  ``tests/reference_gather``
keeps the round as first written (a binary search over the owned ids,
two ownership passes, a repeat per block and then per row).  Over
hypothesis-drawn rounds on two- to four-shard data tiers:

* a **valid** round — any owned ids in any order, an id repeated within
  one point's list, points with no blocks, points far outside the
  universe — replies the reference's bytes, row ids and distance bits;
* a **malformed** round raises ``ValueError`` exactly when the reference
  does: a negative id, an id at or past the global block count, another
  shard's id, counts that do not sum to the ids, a column truncated or
  padded, points holding an odd number of floats;
* counts whose int64 sum wraps around to the id count are refused before
  any ``np.repeat`` trusts that sum (the reference crashes on them).
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import SpatialTable
from repro.serving import ShardedServingTier, worker
from tests.reference_gather import reference_gather

COORDS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@lru_cache(maxsize=None)
def _shards(n_shards: int) -> tuple[list[dict], int]:
    """The worker payloads of a data tier over a fixed relation, and the
    global block count."""
    rng = np.random.default_rng(n_shards)
    lattice = np.stack(np.meshgrid(np.arange(10.0), np.arange(10.0)), axis=-1).reshape(-1, 2)
    points = np.vstack([lattice, lattice[::4], rng.uniform(0.0, 9.0, (80, 2))])
    table = SpatialTable("t", points, capacity=6)
    tier = ShardedServingTier(table, shard_mode="data", n_shards=n_shards)
    payloads = [tier.supervisor.handle(sid)._init_payload for sid in tier.supervisor.shard_ids]
    tier.close()
    return payloads, table.snapshot.n_blocks


@st.composite
def rounds(draw):
    """``(init payload, round payload, global block count, other shards' ids)``."""
    payloads, n_global = _shards(draw(st.integers(2, 4)))
    sid = draw(st.sampled_from([s for s, p in enumerate(payloads) if p["block_ids"].size]))
    owned = payloads[sid]["block_ids"].tolist()
    foreign = sorted(set(range(n_global)) - set(owned))
    m = draw(st.integers(0, 5))
    lists = [draw(st.lists(st.sampled_from(owned), max_size=8)) for __ in range(m)]
    points = np.array(
        [[draw(COORDS), draw(COORDS)] if draw(st.booleans()) else
         [draw(st.floats(0.0, 9.0)), draw(st.floats(0.0, 9.0))] for __ in range(m)],
        dtype=float,
    ).reshape(-1, 2)
    payload = {
        "round": "gather",
        "points": points.tobytes(),
        "counts": np.array([len(ids) for ids in lists], dtype=np.int64).tobytes(),
        "blocks": np.array([b for ids in lists for b in ids], dtype=np.int64).tobytes(),
    }
    return payloads[sid], payload, n_global, foreign


def _outcome(fn, *args):
    """``("ok", reply)`` or ``("ValueError", None)``; any other error propagates."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        assert "gather round" in str(exc)
        return "ValueError", None


def _check(init: dict, payload: dict) -> str:
    worker._init_data_shard_worker(0, 0, init, None)
    got = _outcome(worker._gather, payload)
    want = _outcome(reference_gather, init, payload)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got[1]["row_ids"] == want[1]["row_ids"]
        assert got[1]["dists"] == want[1]["dists"]
    return got[0]


@pytest.fixture(autouse=True)
def _clear_worker_state():
    yield
    worker._WORKER_STATE.clear()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rounds())
def test_a_valid_round_replies_the_reference_bytes(drawn):
    init, payload, __, __ = drawn
    assert _check(init, payload) == "ok"


def _with_blocks(payload: dict, mutate) -> dict:
    blocks = np.frombuffer(payload["blocks"], dtype=np.int64).copy()
    counts = np.frombuffer(payload["counts"], dtype=np.int64).copy()
    if blocks.size == 0:  # give the first point one block to mutate
        if counts.size == 0:
            return payload
        counts[0], blocks = 1, np.zeros(1, dtype=np.int64)
    blocks = mutate(blocks)
    return dict(payload, counts=counts.tobytes(), blocks=blocks.tobytes())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rounds(), st.data())
def test_a_malformed_round_raises_when_the_reference_does(drawn, data):
    init, payload, n_global, foreign = drawn
    kind = data.draw(
        st.sampled_from(["negative", "past", "foreign", "counts", "cut", "pad", "odd"])
    )
    at = data.draw(st.integers(0, 63))

    def put(value):
        def mutate(blocks):
            blocks[at % blocks.size] = value
            return blocks
        return mutate

    if kind == "negative":
        bad = _with_blocks(payload, put(data.draw(st.integers(-(2**63), -1))))
    elif kind == "past":
        bad = _with_blocks(payload, put(data.draw(st.integers(n_global, 2**63 - 1))))
    elif kind == "foreign":
        bad = _with_blocks(payload, put(data.draw(st.sampled_from(foreign))))
    elif kind == "counts":
        counts = np.frombuffer(payload["counts"], dtype=np.int64).copy()
        if counts.size:
            counts[at % counts.size] += data.draw(st.integers(-3, 3).filter(bool))
        bad = dict(payload, counts=counts.tobytes())
    else:
        column = data.draw(st.sampled_from(["points", "counts", "blocks"]))
        raw = payload[column]
        if kind == "cut":
            raw = raw[: data.draw(st.integers(0, max(0, len(raw) - 1)))]
        elif kind == "pad":
            raw = raw + bytes(data.draw(st.integers(1, 16)))
        else:
            column, raw = "points", payload["points"] + bytes(8)
        bad = dict(payload, **{column: raw})
    _check(init, bad)


@pytest.mark.parametrize(
    "kind", ["negative", "past", "foreign", "sum", "negative count", "cut", "odd"]
)
def test_each_malformation_is_refused_by_both(kind):
    """One round of every kind, so a refusal the draw misses still runs."""
    payloads, n_global = _shards(3)
    init = payloads[1]
    owned = init["block_ids"]
    foreign = sorted(set(range(n_global)) - set(owned.tolist()))
    blocks = np.array([owned[0], owned[-1], owned[0]], dtype=np.int64)
    counts = np.array([2, 1], dtype=np.int64)
    points = np.array([[1.0, 2.0], [50.0, -3.0]])
    if kind == "negative":
        blocks[1] = -1
    elif kind == "past":
        blocks[1] = n_global
    elif kind == "foreign":
        blocks[1] = foreign[0]
    elif kind == "sum":
        counts[1] = 2
    elif kind == "negative count":
        counts[:] = [4, -1]
    payload = {"round": "gather", "points": points.tobytes(), "counts": counts.tobytes(),
               "blocks": blocks.tobytes()}
    if kind == "cut":
        payload["blocks"] = payload["blocks"][:-3]
    elif kind == "odd":
        payload["points"] = payload["points"][:-8]
    assert _check(init, payload) == "ValueError"


def test_counts_whose_sum_wraps_are_refused():
    """Counts 2**63 - 1, 2**63 - 1 and 3 sum, wrapping, to one block id.
    ``np.repeat`` would trust that sum and write far past its buffer (a
    segmentation fault), so the worker must refuse the round first.  It
    runs in a child process, so a regression fails this test, not the
    session."""
    code = (
        "import numpy as np\n"
        "from tests.test_worker_gather import _shards\n"
        "from repro.serving import worker\n"
        "init = _shards(2)[0][0]\n"
        "worker._init_data_shard_worker(0, 0, init, None)\n"
        "counts = np.array([2**63 - 1, 2**63 - 1, 3], dtype=np.int64)\n"
        "assert int(counts.sum()) == 1\n"
        "payload = {'round': 'gather', 'points': np.zeros((3, 2)).tobytes(),\n"
        "           'counts': counts.tobytes(), 'blocks': init['block_ids'][:1].tobytes()}\n"
        "try:\n"
        "    worker._gather(payload)\n"
        "except ValueError as exc:\n"
        "    print('refused:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("refused: a gather round needs"), done.stdout
