#!/usr/bin/env python3
"""Shared execution planning: many k-NN-Selects vs one k-NN-Join.

Section 1 of the paper: "A k-NN-Join can also be useful when multiple
k-NN-Select queries are to be executed on the same dataset.  To share
the execution ... all the query points are treated as an outer relation
and processing is performed in a single k-NN-Join."

This example sweeps the batch size and shows the optimizer's crossover:
the batch of query points is registered as the *outer table* of a
``KnnJoinQuery`` — which is exactly the selects-vs-shared-join decision
— so small batches plan as independent selects, large batches as one
shared join, decided purely from the catalog-based cost estimates and
checked against the actual block-scan counts.

Run:
    python examples/batch_query_planning.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.engine import KnnJoinQuery, SpatialEngine, SpatialTable, StatisticsManager


def main() -> None:
    print("Building the data relation (100k points) and its estimators...")
    data = repro.generate_osm_like(100_000, seed=41, structure_seed=40)
    engine = SpatialEngine(StatisticsManager(max_k=1_024, join_sample_size=200))
    engine.register(SpatialTable("data", data, capacity=256))
    data_table = engine.stats.table("data")

    k = 64
    rng = np.random.default_rng(0)
    print(f"\nbatch size  chosen strategy       est selects   est join  "
          f"actual selects  actual join")
    for batch_size in (100, 1_000, 5_000, 20_000, 50_000):
        # The batch of query points follows the user distribution.
        picks = rng.integers(0, data.shape[0], size=batch_size)
        # Tight outer blocks keep the shared localities small.
        batch_table = SpatialTable("batch", data[picks], capacity=64)
        engine.register(batch_table)

        explanation = engine.explain(KnnJoinQuery("batch", "data", k))

        # Ground truth (select costs sampled and scaled for big batches).
        sample = batch_table.points[: min(batch_size, 1_500)]
        actual_selects = sum(
            repro.select_cost_exact(
                data_table.snapshot, data_table.index.blocks, repro.Point(x, y), k
            )
            for x, y in sample
        ) * batch_size // len(sample)
        actual_join = repro.knn_join_cost(batch_table.index, data_table.index, k)
        print(
            f"{batch_size:>10}  {explanation.chosen:<20} "
            f"{explanation.cost_of('per-point-selects'):>12.0f} "
            f"{explanation.cost_of('locality-join'):>10.0f} "
            f"{actual_selects:>15} {actual_join:>12}"
        )

    print(
        "\nSmall batches: per-query selects scan fewer blocks.  Large "
        "batches: block-by-block locality sharing amortizes scans across "
        "nearby query points, and the join wins — the optimizer finds the "
        "crossover from catalog lookups alone."
    )


if __name__ == "__main__":
    main()
