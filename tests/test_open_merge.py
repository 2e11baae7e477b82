"""The array merge of a chunk's open replies against the ``QueryMerge`` replay.

``merge_open`` answers a healthy chunk's queries in one array pass.  A
query it certifies must equal the replay of one ``QueryMerge`` over the
same streams — row ids, distance bits and ``blocks_scanned`` — and a
query it refuses must be one the replay would resume.  The real shards'
open replies (relations x substrates x 2, 3, 5 shards) are held to this
in ``tests/test_serving_rounds.py``; here the columns are built by hand
for the edge cases: an empty shard, ``k >= n``, MINDIST ties between
shards, and a bound that sorts before the stop, which is refused and
then answered through ``resume``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import SpatialEngine, SpatialTable, StatisticsManager
from repro.knn.merge import OpenReply, QueryMerge, merge_open, run_merges
from repro.serving import ShardedServingTier, worker
from tests.test_serving_rounds import (
    INCREMENTAL,
    MAX_K,
    RELATIONS,
    _adversarial_batch,
    assert_same_merge,
    first_blocks_only,
    replay,
)


@pytest.fixture()
def worker_state():
    """The worker module's process state, emptied again afterwards."""
    yield worker._WORKER_STATE
    worker._WORKER_STATE.clear()


def columns(*queries) -> OpenReply:
    """One shard's reply: per query ``(blocks, bound)``, each block
    ``(mindist, block id, {row id: distance})``, the bound ``(mindist,
    block id)`` or ``None`` for a spent stream."""
    counts, mindists, block_ids, sizes, rows, dists, bounds = ([] for __ in range(7))
    for blocks, bound in queries:
        counts.append(len(blocks))
        for mindist, block_id, members in blocks:
            mindists.append(mindist)
            block_ids.append(block_id)
            sizes.append(len(members))
            rows += list(members)
            dists += list(members.values())
        bounds.append((np.nan,) * 3 if bound is None else (bound[0], bound[1], bound[0]))
    return OpenReply(
        np.array(counts, dtype=np.int64),
        np.array(mindists, dtype=float),
        np.array(block_ids, dtype=np.int64),
        np.array(sizes, dtype=np.int64),
        np.array(rows, dtype=np.int64),
        np.array(dists, dtype=float),
        np.array(bounds, dtype=float).reshape(-1, 3),
    )


def check(replies: list[OpenReply], ks) -> list:
    """``merge_open`` == the replay on every query (or both refuse)."""
    ks = np.asarray(ks, dtype=np.int64)
    merged = merge_open(replies, ks, np.arange(ks.shape[0]))
    assert len(merged) == ks.shape[0]
    for i, k in enumerate(ks.tolist()):
        replayed = replay(replies, i, k)
        assert (merged[i] is None) == (replayed is None), i
        if replayed is not None:
            assert_same_merge(merged[i], replayed)
    return merged


#: Query 0 stops at its first block (k = 2); query 1's stream is spent.
SHARD_A = columns(
    ([(1.0, 0, {10: 1.0, 11: 1.5}), (2.0, 2, {12: 2.5})], (4.0, 6)),
    ([(0.5, 0, {10: 0.7})], None),
)
EMPTY = columns(([], None), ([], None))


def test_an_empty_shard_changes_nothing():
    alone = check([SHARD_A], [2, 1])
    with_empty = check([SHARD_A, EMPTY], [2, 1])
    for (rows, dists, blocks), again in zip(alone, with_empty):
        assert_same_merge((rows, dists, blocks), again)
    assert alone[0][0].tolist() == [10, 11] and alone[0][2] == 1
    assert alone[1][0].tolist() == [10] and alone[1][2] == 1
    (nothing, __, blocks), __ = check([EMPTY, EMPTY], [3, 1])
    assert nothing.shape == (0,) and blocks == 0


def test_k_at_least_n_takes_every_block_of_spent_streams_only():
    spent = columns(
        ([(1.0, 1, {20: 1.25, 21: 1.25}), (3.0, 3, {22: 3.0})], None),
        ([(0.0, 1, {20: 0.5})], None),
    )
    merged = check([SHARD_A, spent], [10, 10])
    # Query 0: shard A still has a block at 4.0, so the replay would
    # resume it; query 1: every stream is spent and every row is the answer.
    assert merged[0] is None
    rows, __, blocks = merged[1]
    assert rows.tolist() == [20, 10] and blocks == 2
    (rows, dists, blocks), __ = check([spent, EMPTY], [10, 10])
    assert rows.tolist() == [20, 21, 22] and blocks == 2
    assert dists.tolist() == [1.25, 1.25, 3.0]


@pytest.mark.parametrize("bound_id", [3, 7])
def test_a_bound_tied_with_another_shards_entry_is_ordered_by_block_id(bound_id):
    """Shard Q's bound ties shard P's second block at MINDIST 2.0."""
    p = columns(([(1.0, 0, {1: 1.1}), (2.0, 5, {2: 2.1})], (3.0, 8)))
    q = columns(([(1.5, 1, {3: 2.05})], (2.0, bound_id)))
    # Before the tie one row lies below 2.0: either order needs Q resumed.
    (merged,) = check([p, q], [2])
    assert merged is None
    # With Q's block fetched the replay finishes; ids order the tie.
    q_fetched = columns(([(1.5, 1, {3: 2.05}), (2.0, bound_id, {4: 2.1})], None))
    (merged,) = check([p, q_fetched], [3])
    rows, __, blocks = merged
    assert rows.tolist() == ([1, 3, 4] if bound_id < 5 else [1, 3, 2])
    assert blocks == 4


def test_entries_tied_across_shards_keep_the_global_scan_order():
    """Forty rows at one distance, four blocks on two shards: the answer
    is the stable order of the global scan, block id by block id."""
    dist = 2.0
    blocks = {
        block_id: {100 * block_id + j: dist for j in range(10)} for block_id in range(4)
    }
    p = columns(([(1.0, 0, blocks[0]), (1.0, 3, blocks[3])], None))
    q = columns(([(1.0, 1, blocks[1]), (1.0, 2, blocks[2])], None))
    (rows, __, scanned), = check([p, q], [40])
    assert rows.tolist() == [row for b in range(4) for row in blocks[b]] and scanned == 4
    (rows, __, scanned), = check([q, p], [25])
    assert rows.tolist() == [row for b in range(4) for row in blocks[b]][:25]


def test_a_bound_before_the_stop_is_refused_and_resume_answers_it():
    """P's two rows lie at 1.1 and 1.15, not strictly below Q's bound
    1.1: the stop needs Q's block, so the chunk merge refuses the query
    and the replay resumes Q."""
    p = columns(([(1.0, 0, {1: 1.1, 2: 1.15})], None))
    q_open = columns(([], (1.1, 1)))
    (merged,) = check([p, q_open], [2])
    assert merged is None
    q_block = (1.1, 1, 1.1, np.array([3]), np.array([1.12]))
    merge = QueryMerge(2)
    merge.add_stream(0, *p.stream(0))
    merge.add_stream(1, *q_open.stream(0))
    fetched = []

    def fetch(requests):
        fetched.append(requests)
        return {1: [([q_block], 1, None)]}

    run_merges({0: merge}, fetch)
    assert fetched == [{1: [(0, 0, 2, -np.inf)]}]
    rows, blocks, __ = merge.result()
    assert rows.tolist() == [1, 3] and blocks == 2
    # The finished streams, merged as columns, give the same answer.
    (merged,) = check([p, columns(([(1.1, 1, {3: 1.12})], None))], [2])
    assert merged[0].tolist() == [1, 3] and merged[2] == 2


def test_real_replies_cut_short_are_refused_and_resumed_to_the_engines_answer(worker_state):
    """Two real shards' open replies, each query cut to its first block:
    what ``merge_open`` certifies and what ``run_merges`` resumes through
    in-process ``resume`` rounds both equal the unsharded engine."""
    points, capacity = RELATIONS["lattice"]
    batch = _adversarial_batch(points)
    table = SpatialTable("t", points, capacity=capacity)
    engine = SpatialEngine(StatisticsManager(max_k=MAX_K, pinned_operators=INCREMENTAL))
    engine.register(table)
    reference = engine.execute_batch(batch.as_knn_queries("t"))
    tier = ShardedServingTier(table, shard_mode="data", n_shards=2)
    payloads = [tier.supervisor.handle(sid)._init_payload for sid in tier.supervisor.shard_ids]
    tier.close()

    def serve(sid: int, payload: dict):
        worker._init_data_shard_worker(sid, 0, payloads[sid], None)
        return worker._serve_data_shard_chunk(payload)

    open_round = {"round": "open", "points": batch.points, "ks": batch.ks}
    opened = [first_blocks_only(serve(sid, open_round)["columns"]) for sid in range(2)]
    merged = check(opened, batch.ks)
    refused = [i for i, answer in enumerate(merged) if answer is None]
    assert refused, "cutting every reply to one block left nothing to resume"

    def fetch(requests):
        replies = {}
        for sid, asked in requests.items():
            idx = np.array([key for key, *__ in asked])
            replies[sid] = serve(sid, {
                "round": "resume", "points": batch.points[idx], "ks": batch.ks[idx],
                "cursors": [a[1] for a in asked], "min_points": [a[2] for a in asked],
                "min_mindists": [a[3] for a in asked],
            })["streams"]
        return replies

    merges = {}
    for i in refused:
        merges[i] = QueryMerge(int(batch.ks[i]))
        for sid, reply in enumerate(opened):
            merges[i].add_stream(sid, *reply.stream(i))
    run_merges(merges, fetch)
    for i, (expected, __) in enumerate(reference):
        rows, blocks = (merged[i][0], merged[i][2]) if i not in merges else merges[i].result()[:2]
        assert rows.tolist() == expected.row_ids.tolist(), i
        assert blocks == expected.blocks_scanned, i
