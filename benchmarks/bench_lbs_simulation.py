"""Extension experiment: a location-based-service query stream.

Section 1's closing motivation: "location-based services that serve
multiple queries at very high rates, e.g., thousands of queries per
second.  Thus, estimating the cost needs to be extremely fast as it is
a preliminary step before the query itself is executed."

This benchmark simulates that stream end to end: a mixed workload of
predicate-constrained k-NN selects is executed under three policies —

* ``optimized``   — the engine's estimator-driven plan choice;
* ``always-scan`` — filter-then-knn for everything;
* ``always-browse`` — incremental browsing for everything;

reporting total blocks scanned and the planning overhead, so the cost
of estimation can be weighed against the execution it saves.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_utils import RESULTS_DIR
from repro.datasets import generate_osm_like
from repro.engine import (
    KnnSelectQuery,
    SpatialEngine,
    SpatialTable,
    StatisticsManager,
    column,
)
from repro.engine.physical import FilterThenKnnOperator, IncrementalKnnOperator
from repro.experiments.common import ExperimentResult
from repro.geometry import Point


def _workload(points: np.ndarray, n: int, max_k: int, seed: int):
    """A realistic LBS mix: mostly small k, occasional analytics."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, points.shape[0], size=n)
    small = rng.integers(1, 20, size=n)
    large = rng.integers(max_k // 2, max_k, size=n)
    ks = np.where(rng.uniform(size=n) < 0.85, small, large)
    budgets = rng.uniform(15, 110, size=n)
    return [
        KnnSelectQuery(
            "places",
            Point(float(points[picks[i], 0]), float(points[picks[i], 1])),
            k=int(ks[i]),
            predicate=column("price") < float(budgets[i]),
        )
        for i in range(n)
    ]


def test_lbs_stream_simulation(benchmark, bench_config):
    cfg = bench_config
    n_points = cfg.base_n * min(2, max(cfg.scales))
    rng = np.random.default_rng(cfg.seed)
    points = generate_osm_like(n_points, seed=cfg.seed)
    engine = SpatialEngine(StatisticsManager(max_k=cfg.max_k))
    engine.register(
        SpatialTable(
            "places",
            points,
            {"price": rng.uniform(10, 110, n_points)},
            capacity=cfg.capacity,
        )
    )
    table = engine.stats.table("places")
    queries = _workload(points, n=30, max_k=cfg.max_k, seed=cfg.seed)
    engine.explain(queries[0])  # build catalogs outside the timed region

    planning_seconds = 0.0
    blocks = {"optimized": 0, "always-scan": 0, "always-browse": 0}
    for query in queries:
        start = time.perf_counter()
        engine.explain(query)
        planning_seconds += time.perf_counter() - start
        blocks["optimized"] += engine.execute(query)[0].blocks_scanned
        blocks["always-scan"] += (
            FilterThenKnnOperator(table, query).execute().blocks_scanned
        )
        blocks["always-browse"] += (
            IncrementalKnnOperator(table, query).execute().blocks_scanned
        )

    result = ExperimentResult(
        name="lbs_simulation",
        title="LBS stream: total blocks by planning policy",
        columns=("policy", "total_blocks", "planning_us_per_query"),
    )
    per_query_us = planning_seconds / len(queries) * 1e6
    result.add_row("optimized", blocks["optimized"], per_query_us)
    result.add_row("always-scan", blocks["always-scan"], 0.0)
    result.add_row("always-browse", blocks["always-browse"], 0.0)
    result.notes.append(
        "85% small-k + 15% analytical queries with price predicates"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "lbs_simulation.txt").write_text(result.format_table() + "\n")

    # The optimized stream never does worse than the better static
    # policy, and beats the worse one decisively.
    assert blocks["optimized"] <= min(blocks["always-scan"], blocks["always-browse"]) * 1.02
    assert blocks["optimized"] < max(blocks["always-scan"], blocks["always-browse"]) * 0.8

    # Planning is "extremely fast": well under a millisecond per query.
    assert per_query_us < 3_000

    # Benchmark unit: one planning decision on the warm engine.
    probe = queries[0]
    explanation = benchmark(engine.explain, probe)
    assert explanation.chosen
