"""Extension experiment: end-to-end optimizer plan quality.

The paper motivates cost estimation by QEP arbitration but never
measures decision quality directly.  This experiment closes the loop:
over a workload of predicate-constrained k-NN-Select queries, the
engine's choice (driven by Staircase estimates) is compared with the
post-hoc optimal plan, reporting

* the correct-choice rate, and
* the *regret*: extra blocks scanned by the chosen plan relative to the
  per-query optimum, summed over the workload — the metric that
  actually matters, since wrong choices between near-tied plans are
  harmless.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import generate_osm_like
from repro.engine import (
    KnnSelectQuery,
    SpatialEngine,
    SpatialTable,
    StatisticsManager,
    column,
)
from repro.engine.physical import FilterThenKnnOperator, IncrementalKnnOperator
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.geometry import Point

#: Queries in the workload.
N_QUERIES = 40


def places_engine(
    config: ExperimentConfig,
) -> tuple[SpatialEngine, np.ndarray, np.random.Generator]:
    """An engine over one priced relation, ``places``.

    Returns the engine, the relation's points and the generator the
    prices were drawn from (callers continue its stream).
    """
    n = config.base_n * min(2, max(config.scales))
    rng = np.random.default_rng(config.seed)
    points = generate_osm_like(n, seed=config.seed)
    engine = SpatialEngine(StatisticsManager(max_k=config.max_k))
    engine.register(
        SpatialTable(
            "places", points, {"price": rng.uniform(10, 110, n)}, capacity=config.capacity
        )
    )
    return engine, points, rng


def blocks_by_operator(engine: SpatialEngine, query: KnnSelectQuery) -> dict[str, int]:
    """Blocks each candidate select operator actually scans for ``query``."""
    table = engine.stats.table(query.table)
    return {
        operator.name: operator(table, query).execute().blocks_scanned
        for operator in (FilterThenKnnOperator, IncrementalKnnOperator)
    }


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Score the engine's plan choices against the per-query optimum."""
    config = config or get_config()
    engine, points, rng = places_engine(config)
    # A workload that straddles the plan boundary: k from tiny to large,
    # budgets from rare to permissive.
    picks = rng.integers(0, points.shape[0], size=N_QUERIES)
    ks = rng.integers(1, config.max_k // 2, size=N_QUERIES)
    budgets = rng.uniform(11, 110, size=N_QUERIES)

    correct = chosen_total = optimal_total = 0
    for pick, k, budget in zip(picks, ks, budgets):
        query = KnnSelectQuery(
            "places",
            Point(float(points[pick, 0]), float(points[pick, 1])),
            k=int(k),
            predicate=column("price") < float(budget),
        )
        actual = blocks_by_operator(engine, query)
        chosen, best = actual[engine.explain(query).chosen], min(actual.values())
        chosen_total += chosen
        optimal_total += best
        correct += chosen == best

    result = ExperimentResult(
        name="plan_quality",
        title="Optimizer plan quality on predicate-constrained k-NN selects",
        columns=("n_queries", "correct_choices", "regret"),
    )
    result.add_row(N_QUERIES, correct, (chosen_total - optimal_total) / optimal_total)
    result.notes.append(
        "regret = extra blocks of the chosen plans over the per-query optimum"
    )
    return result
