"""Extension experiment: a location-based-service query stream.

Section 1's closing motivation: "location-based services that serve
multiple queries at very high rates, e.g., thousands of queries per
second.  Thus, estimating the cost needs to be extremely fast as it is
a preliminary step before the query itself is executed."

This experiment simulates that stream end to end: a mixed workload of
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

from repro.engine import KnnSelectQuery, column
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.experiments.plan_quality import blocks_by_operator, places_engine
from repro.geometry import Point

#: Queries in the stream.
N_QUERIES = 30


def _workload(points: np.ndarray, n: int, max_k: int, seed: int) -> list[KnnSelectQuery]:
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


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Total blocks scanned by the stream under each planning policy."""
    config = config or get_config()
    engine, points, __ = places_engine(config)
    queries = _workload(points, N_QUERIES, config.max_k, config.seed)
    engine.explain(queries[0])  # build catalogs outside the timed region

    planning_seconds = 0.0
    blocks = {"optimized": 0, "always-scan": 0, "always-browse": 0}
    for query in queries:
        start = time.perf_counter()
        engine.explain(query)
        planning_seconds += time.perf_counter() - start
        blocks["optimized"] += engine.execute(query)[0].blocks_scanned
        actual = blocks_by_operator(engine, query)
        blocks["always-scan"] += actual["filter-then-knn"]
        blocks["always-browse"] += actual["incremental-knn"]

    result = ExperimentResult(
        name="lbs_simulation",
        title="LBS stream: total blocks by planning policy",
        columns=("policy", "total_blocks", "planning_per_query_s"),
    )
    result.add_row("optimized", blocks["optimized"], planning_seconds / len(queries))
    result.add_row("always-scan", blocks["always-scan"], 0.0)
    result.add_row("always-browse", blocks["always-browse"], 0.0)
    result.notes.append(
        "85% small-k + 15% analytical queries with price predicates"
    )
    return result
