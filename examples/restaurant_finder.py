#!/usr/bin/env python3
"""The paper's motivating query, end to end.

"Find the k-closest restaurants to my location such that the price of
the restaurant is within my budget" (Section 1).  Two query execution
plans exist:

  (i)  filter-then-knn — apply the relational select first (full scan),
       then take the k closest qualifying restaurants;
  (ii) incremental-knn — distance browsing with the price predicate
       evaluated on the fly, stopping at k qualifying results.

The cheaper plan depends on the *estimated* k-NN cost: that is exactly
what the Staircase estimator provides.  This example registers a
synthetic restaurant table with a price column, lets the engine's
planner arbitrate for several (k, budget) combinations, and verifies its
choices against the actual execution costs of both plans.

Run:
    python examples/restaurant_finder.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.engine import (
    KnnSelectQuery,
    SpatialEngine,
    SpatialTable,
    StatisticsManager,
    column,
)
from repro.engine.physical import FilterThenKnnOperator, IncrementalKnnOperator


def price_of(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Deterministic synthetic prices in [10, 110) derived from location.

    Restaurants in the same street have correlated but not identical
    prices; a hash-like mix of the coordinates stands in for a real
    attribute column while keeping the example self-contained.
    """
    h = np.sin(x * 12.9898 + y * 78.233) * 43758.5453
    return 10.0 + (h - np.floor(h)) * 100.0


def main() -> None:
    print("Building the restaurants table (80,000 locations + prices)...")
    locations = repro.generate_osm_like(80_000, seed=21)
    restaurants = SpatialTable(
        "restaurants",
        locations,
        {"price": price_of(locations[:, 0], locations[:, 1])},
        capacity=256,
    )
    engine = SpatialEngine(StatisticsManager(max_k=2_048))
    engine.register(restaurants)
    estimator = engine.stats.select_estimator("restaurants")
    print(
        f"  -> {restaurants.index.num_blocks} blocks; Staircase catalogs built in "
        f"{estimator.preprocessing_seconds:.2f}s"
    )

    me = repro.Point(500.0, 500.0)
    scenarios = [
        # (k, budget) — selectivity of `price < budget` is ~(budget-10)/100.
        (5, 60.0),  # selective-ish predicate, tiny k: browsing should win
        (10, 90.0),  # permissive predicate: browsing wins big
        (400, 15.0),  # 5%-selective predicate, large k: browsing strained
        (2_000, 12.0),  # 2%-selective, huge k: the full scan is as cheap
    ]
    print(f"\n{'k':>5} {'budget':>7} {'chosen plan':>17} "
          f"{'est(filter)':>12} {'est(incr)':>10} {'act(filter)':>12} "
          f"{'act(incr)':>10} {'correct?':>9}")
    for k, budget in scenarios:
        query = KnnSelectQuery(
            "restaurants", me, k=k, predicate=column("price") < budget
        )
        explanation = engine.explain(query)
        # Ground truth: run both physical operators, whatever was chosen.
        actual_filter = FilterThenKnnOperator(restaurants, query).execute()
        actual_incremental = IncrementalKnnOperator(restaurants, query).execute()
        actually_best = (
            "filter-then-knn"
            if actual_filter.blocks_scanned <= actual_incremental.blocks_scanned
            else "incremental-knn"
        )
        print(
            f"{k:>5} {budget:>7.0f} {explanation.chosen:>17} "
            f"{explanation.cost_of('filter-then-knn'):>12.0f} "
            f"{explanation.cost_of('incremental-knn'):>10.0f} "
            f"{actual_filter.blocks_scanned:>12} "
            f"{actual_incremental.blocks_scanned:>10} "
            f"{'yes' if explanation.chosen == actually_best else 'NO':>9}"
        )

    print(
        "\nThe optimizer needs only the catalogs (microseconds per "
        "estimate); both plans return identical answers, but the block "
        "scans differ by orders of magnitude depending on k and the "
        "predicate selectivity — exactly the paper's Section 1 argument."
    )


if __name__ == "__main__":
    main()
