"""Per-layer probes: one public call per layer, timed from outside.

A layer is a module under ``src/repro/``.  Every probe times calls into
that layer's public functions on inputs made from the run's seed and
reports the fastest repetition (see :mod:`quiet`), or reads a count the
layer reports.  Counts repeat exactly for a seed; timings are the
sandbox's.  The README lists, for each probe, the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

from repro.datasets import WORLD_BOUNDS
from repro.engine import SpatialTable
from repro.estimators import MaintainedStaircaseEstimator
from repro.geometry import Point, hilbert, kernels
from repro.index import IndexSnapshot, MutableQuadtree
from repro.knn import locality_sizes, select_cost_exact
from repro.knn.distance_browsing import SnapshotBlockStream
from repro.perf import BlockPointsView, select_cost_profiles
from repro.serving import QueryMerge, partition_blocks, plan_shards
from repro.workloads import churn_phases, run_churn
from repro.workloads.metrics import error_ratio, time_callable

from scenarios import (
    INCREMENTAL,
    N_SHARDS,
    POINTS,
    POIS,
    Fixture,
    answer_digest,
    build_tier,
    churn_initial_points,
    same_answers,
    stop_tier,
    workers_rss_kb,
)

#: Reported error-ratio bands (the k-bands of the requests, the two
#: smallest merged: their catalogs have one or two steps each).
ERROR_BANDS = {"k1-16": (1, 16), "k17-64": (17, 64), "k65-256": (65, 256)}


def run_all(fixture: Fixture) -> tuple[dict[str, float], list[str]]:
    """Every layer metric for this seed, plus the probes' own failed checks."""
    metrics: dict[str, float] = {}
    problems: list[str] = []
    engine = fixture.build_engine(with_pois=True)
    _index_and_build(fixture, engine, metrics)
    _geometry_and_knn(fixture, engine, metrics)
    _catalog_and_estimators(fixture, engine, metrics)
    _optimizer_and_engine(fixture, engine, metrics)
    _maintenance(fixture, metrics)
    _serving(fixture, engine, metrics, problems)
    return metrics, problems


def quiet_call(fn, repeats: int) -> float:
    """Fastest of ``repeats`` timed calls of ``fn()``, in seconds."""
    return time_callable(fn, repeats=repeats, warmup=0).min_seconds


def _index_and_build(fixture, engine, m) -> None:
    """Set-up layers: index, snapshot and catalog preprocessing."""
    sizes, stats = fixture.sizes, engine.stats
    m["index.build_ms"] = 1e3 * quiet_call(
        lambda: SpatialTable(POINTS, fixture.points, capacity=sizes.capacity), 2
    )
    index = stats.table(POINTS).index

    def gather():
        snapshot = IndexSnapshot.from_index(index)
        return snapshot.with_layout(hilbert.hilbert_order(snapshot.centers, snapshot.bounds))

    m["index.snapshot_ms"] = 1e3 * quiet_call(gather, 3)
    m["index.n_blocks"] = float(stats.snapshot(POINTS).n_blocks)
    stats.snapshot(POIS)
    # In-process builds (workers=None): a process pool would time spawn.
    start = time.perf_counter()
    stats.select_estimator(POINTS)
    m["estimators.staircase_build_s"] = time.perf_counter() - start
    start = time.perf_counter()
    stats.join_estimator(POIS, POINTS)
    m["estimators.join_build_s"] = time.perf_counter() - start


def _geometry_and_knn(fixture, engine, m) -> None:
    stats = engine.stats
    snapshot = stats.snapshot(POINTS)
    batch = fixture.mixed_batch(64, 40)
    anchors = batch.points[:16]
    seconds = quiet_call(lambda: kernels.mindist_rects_batch(anchors, snapshot.rects), 20)
    m["geometry.mindist_batch_ns_per_pair"] = 1e9 * seconds / (16 * snapshot.n_blocks)
    seconds = quiet_call(
        lambda: [
            kernels.mindist_argsort(a, snapshot.rects, tie_order=snapshot.tie_order)
            for a in batch.points[:32]
        ],
        5,
    )
    m["geometry.mindist_argsort_us_per_call"] = 1e6 * seconds / 32

    streams = [SnapshotBlockStream(snapshot, batch.point(i)) for i in range(len(batch))]
    emitted = sum(len(s.take(0, min_points=int(k))[0]) for s, k in zip(streams, batch.ks))
    seconds = quiet_call(
        lambda: [s.take(0, min_points=int(k)) for s, k in zip(streams, batch.ks)], 5
    )
    m["knn.stream_take_us_per_block"] = 1e6 * seconds / emitted

    outer = stats.snapshot(POIS).rects[:128]
    seconds = quiet_call(lambda: locality_sizes(snapshot, outer, 16), 3)
    m["knn.locality_us_per_outer_block"] = 1e6 * seconds / outer.shape[0]

    canonical = snapshot.canonical()
    view = BlockPointsView.from_blocks(stats.table(POINTS).index.blocks)
    points = [batch.point(i) for i in range(32)]
    seconds = quiet_call(
        lambda: select_cost_profiles(canonical, view, points, fixture.sizes.max_k), 2
    )
    m["perf.profiles_us_per_anchor"] = 1e6 * seconds / len(points)


def _catalog_and_estimators(fixture, engine, m) -> None:
    stats, sizes = engine.stats, fixture.sizes
    staircase = stats.select_estimator(POINTS)
    store = staircase.to_store()
    catalogs = [store.get(key) for key in store.keys()]
    m["catalog.bytes"] = float(stats.total_catalog_bytes())
    m["catalog.entries"] = float(sum(c.n_entries for c in catalogs))
    m["catalog.n_catalogs"] = float(staircase.n_catalogs())
    ks = np.rint(np.geomspace(1, sizes.max_k, 256)).astype(np.int64)
    some = catalogs[:: max(1, len(catalogs) // 64)]
    seconds = quiet_call(lambda: [c.lookup_many(ks) for c in some], 10)
    m["catalog.lookup_many_ns_per_key"] = 1e9 * seconds / (len(some) * ks.shape[0])

    snapshot = stats.snapshot(POINTS)
    batch = fixture.mixed_batch(2048, 41)
    seconds = quiet_call(lambda: snapshot.leaf_ids_for_points(batch.points), 10)
    m["index.leaf_binning_ns_per_query"] = 1e9 * seconds / len(batch)
    seconds = quiet_call(lambda: staircase.estimate_batch(batch.points, batch.ks), 10)
    m["estimators.staircase_batch_ns_per_query"] = 1e9 * seconds / len(batch)
    scalar = [(batch.point(i), int(batch.ks[i])) for i in range(0, len(batch), 8)]
    seconds = quiet_call(lambda: [staircase.estimate(p, k) for p, k in scalar], 3)
    m["estimators.staircase_scalar_us_per_query"] = 1e6 * seconds / len(scalar)
    join = stats.join_estimator(POIS, POINTS)
    join_ks = [int(k) for k in ks[::8]]
    seconds = quiet_call(lambda: [join.estimate(k) for k in join_ks], 5)
    m["estimators.join_estimate_us_per_query"] = 1e6 * seconds / len(join_ks)

    # Estimation accuracy per k-band: the paper's error ratio.
    table = stats.table(POINTS)
    canonical = IndexSnapshot.from_index(table.index)
    rng = fixture.rng(42)
    for label, (lo, hi) in ERROR_BANDS.items():
        n = max(8, sizes.verify_sample // 4)
        focal = fixture.points[rng.integers(0, fixture.points.shape[0], size=n)]
        band_ks = np.rint(np.geomspace(lo, min(hi, sizes.max_k), n)).astype(np.int64)
        estimates = staircase.estimate_batch(focal, band_ks)
        ratios = [
            error_ratio(
                float(e),
                float(select_cost_exact(canonical, table.index.blocks, Point(x, y), int(k))),
            )
            for e, (x, y), k in zip(estimates, focal, band_ks)
        ]
        m[f"estimators.est_error_ratio_{label}"] = float(np.mean(ratios))


def _optimizer_and_engine(fixture, engine, m) -> None:
    stats, sizes = engine.stats, fixture.sizes
    plan_requests = fixture.select_requests(16, sizes.plan_batch, 43)
    plan_queries = [b.as_knn_queries(POINTS) for b in plan_requests]
    flat, walk_us = [], 0.0
    for queries in plan_queries:
        # The walk's own clock (LinkDecision.elapsed_us), fastest of 3.
        repeats = [engine.explain_batch(queries) for __ in range(3)]
        walk_us += min(sum(d.elapsed_us for e in r for d in e.trail) for r in repeats)
        flat.extend(repeats[0])
    m["optimizer.chain_walk_us_per_query"] = walk_us / len(flat)
    m["optimizer.incremental_plan_share"] = sum(e.chosen == INCREMENTAL for e in flat) / len(flat)

    estimator = stats.select_estimator_for_planning(POINTS)
    n_plan = sum(len(b) for b in plan_requests)
    estimate_s = sum(
        quiet_call(
            lambda b=b: stats.estimate_select_costs_batch(POINTS, estimator, b.points, b.ks), 5
        )
        for b in plan_requests
    )
    explain_s = sum(quiet_call(lambda q=q: engine.explain_batch(q), 5) for q in plan_queries)
    m["engine.stats_estimate_ns_per_query"] = 1e9 * estimate_s / n_plan
    m["engine.plan_self_us_per_query"] = 1e6 * (explain_s - estimate_s) / n_plan

    exec_queries = [
        b.as_knn_queries(POINTS) for b in fixture.select_requests(16, sizes.exec_batch, 44)
    ]
    n_exec = sum(len(q) for q in exec_queries)
    plan_s = sum(quiet_call(lambda q=q: engine.explain_batch(q), 5) for q in exec_queries)
    execute_s = sum(quiet_call(lambda q=q: engine.execute_batch(q), 5) for q in exec_queries)
    m["engine.executor_us_per_query"] = 1e6 * (execute_s - plan_s) / n_exec
    m["engine.plan_share"] = plan_s / execute_s


def _maintenance(fixture, m) -> None:
    """Mutations alone, then a short churn replay through ``run_churn``."""
    sizes = fixture.sizes
    initial = churn_initial_points(sizes)
    phases = churn_phases(
        initial,
        WORLD_BOUNDS,
        phases=max(4, sizes.churn_phases // 4),
        inserts_per_phase=sizes.churn_inserts,
        deletes_per_phase=sizes.churn_deletes,
        queries_per_phase=1,
        max_k=sizes.churn_max_k,
        hotspot_fraction=0.9,
        seed=fixture.seed,
    )

    def mutate():
        tree = MutableQuadtree(initial, bounds=WORLD_BOUNDS, capacity=sizes.churn_capacity)
        start = time.perf_counter()
        for phase in phases:
            for x, y in phase.inserts:
                tree.insert(float(x), float(y))
            for x, y in phase.deletes:
                tree.delete(float(x), float(y))
        return time.perf_counter() - start

    mutations = sum(phase.n_mutations for phase in phases)
    m["index.mutate_us_per_op"] = 1e6 * min(mutate(), mutate()) / mutations
    tree = MutableQuadtree(initial, bounds=WORLD_BOUNDS, capacity=sizes.churn_capacity)
    estimator = MaintainedStaircaseEstimator(tree, max_k=sizes.churn_max_k)
    estimator.refresh_incremental()
    # Phases consume the tree and cannot be repeated: this is a mean.
    report = run_churn(tree, estimator, phases)
    m["estimators.reconcile_ms_per_phase"] = 1e3 * report.maintain_seconds / report.phases
    m["estimators.catalogs_rebuilt_per_mutation"] = report.catalogs_rebuilt / report.n_mutations
    m["estimators.rebuild_ratio"] = report.rebuild_ratio


def _serving(fixture, engine, m, problems) -> None:
    sizes = fixture.sizes
    requests = fixture.select_requests(16, sizes.exec_batch, 46)
    queries = [b.as_knn_queries(POINTS) for b in requests]
    local_s = sum(quiet_call(lambda q=q: engine.execute_batch(q), 3) for q in queries)
    local = [engine.execute_batch(q) for q in queries]

    tier = build_tier(fixture)
    try:
        start = time.perf_counter()
        tier.start()
        m["serving.spawn_s"] = time.perf_counter() - start
        reports = [tier.serve(b) for b in requests]
        serve_s = sum(quiet_call(lambda b=b: tier.serve(b), 3) for b in requests)
        m["serving.shipped_bytes"] = float(sum(tier.shipped_bytes.values()))
        m["serving.worker_rss_mb"] = workers_rss_kb(tier) / 1024.0
    finally:
        stop_tier(tier)
    m["serving.overhead_ms_per_request"] = 1e3 * (serve_s - local_s) / len(requests)
    shards = [s for r in reports for s in r.shards]
    rounds = sum(s.n_chunks for s in shards)
    m["serving.rounds_per_request"] = rounds / len(requests)
    # 1.0 when no chunk needed a second attempt.
    m["serving.attempts_per_round"] = sum(s.attempts for s in shards) / rounds
    pickle_s = sum(
        quiet_call(
            lambda b=b, r=r: (pickle.loads(pickle.dumps(b)), pickle.loads(pickle.dumps(r))), 3
        )
        for b, r in zip(requests, reports)
    )
    m["serving.pickle_us_per_request"] = 1e6 * pickle_s / len(requests)
    for report, answer in zip(reports, local):
        expected = answer_digest([r for r, __ in answer], [e for __, e in answer])
        if not same_answers(answer_digest(report.results, report.explanations), expected):
            problems.append("serving probe: served answer differs from in-process engine")
            break
    m["serving.merge_us_per_query"] = _merge_probe(tier.table, requests[:4], local[:4], problems)


def _merge_probe(table, requests, local, problems) -> float:
    """``QueryMerge`` fed in-process from two block streams, timed alone.

    The streams are produced (untimed) the way a data-shard worker
    produces them: a ``SnapshotBlockStream`` over each shard's slice of
    the canonical snapshot, each block carrying its rows and distances.
    """
    canonical = IndexSnapshot.from_index(table.index)
    members, __ = partition_blocks(canonical, plan_shards(canonical, N_SHARDS))
    shards = [canonical.extract(rows) for rows in members]
    merge_s, n_queries = 0.0, 0

    def wire(point, entries):
        out = []
        for mindist, block_id, threshold, __ in entries:
            rows = np.asarray(table.block_row_ids(block_id), dtype=np.int64)
            pts = table.points[rows]
            out.append(
                (mindist, block_id, threshold, rows,
                 np.hypot(pts[:, 0] - point.x, pts[:, 1] - point.y))
            )
        return out

    for batch, answers in zip(requests, local):
        for i, (result, explanation) in enumerate(answers):
            point, k = batch.point(i), int(batch.ks[i])
            streams = [SnapshotBlockStream(shard, point) for shard in shards]
            opened = []
            for stream in streams:
                entries, cursor = stream.take(0, min_points=k)
                opened.append((wire(point, entries), cursor, stream.bound(cursor)))
            start = time.perf_counter()
            merge = QueryMerge(k)
            for sid, (entries, cursor, bound) in enumerate(opened):
                merge.add_stream(sid, entries, cursor, bound)
            needs = merge.advance()
            merge_s += time.perf_counter() - start
            while needs is not None:
                resumed = {}
                for sid, (cursor, min_points, min_mindist) in needs.items():
                    entries, new_cursor = streams[sid].take(
                        cursor, min_points=min_points, min_mindist=min_mindist
                    )
                    resumed[sid] = (wire(point, entries), new_cursor, streams[sid].bound(new_cursor))
                start = time.perf_counter()
                for sid, (entries, cursor, bound) in resumed.items():
                    merge.streams[sid].extend(entries, cursor, bound)
                needs = merge.advance()
                merge_s += time.perf_counter() - start
            start = time.perf_counter()
            rows, scanned, __ = merge.result()
            merge_s += time.perf_counter() - start
            n_queries += 1
            if explanation.chosen == INCREMENTAL and (
                scanned != result.blocks_scanned or not np.array_equal(rows, result.row_ids)
            ):
                problems.append("merge probe: merged answer differs from in-process engine")
    return 1e6 * merge_s / n_queries
