#!/usr/bin/env python3
"""Shared execution planning: many k-NN-Selects vs one k-NN-Join.

Section 1 of the paper: "A k-NN-Join can also be useful when multiple
k-NN-Select queries are to be executed on the same dataset.  To share
the execution ... all the query points are treated as an outer relation
and processing is performed in a single k-NN-Join."

This example sweeps the batch size and shows the optimizer's crossover:
small batches run as independent selects, large batches as one shared
join — decided purely from the catalog-based cost estimates and checked
against the actual block-scan counts.

Run:
    python examples/batch_query_planning.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.optimizer import choose_batch_plan


def main() -> None:
    print("Building the data relation (100k points) and its estimators...")
    data = repro.generate_osm_like(100_000, seed=41, structure_seed=40)
    data_index = repro.Quadtree(data, capacity=256)
    data_counts = repro.IndexSnapshot.from_index(data_index)
    select_estimator = repro.StaircaseEstimator(data_index, max_k=1_024)

    k = 64
    rng = np.random.default_rng(0)
    print(f"\nbatch size  chosen strategy       est selects   est join  "
          f"actual selects  actual join")
    for batch_size in (100, 1_000, 5_000, 20_000, 50_000):
        # The batch of query points follows the user distribution.
        picks = rng.integers(0, data.shape[0], size=batch_size)
        batch_points = [
            repro.Point(float(data[i, 0]), float(data[i, 1])) for i in picks
        ]
        # Tight outer blocks keep the shared localities small.
        batch_index = repro.Quadtree(data[picks], capacity=64)
        join_estimator = repro.CatalogMergeEstimator(
            batch_index, data_counts, sample_size=200, max_k=1_024
        )

        choice = choose_batch_plan(select_estimator, join_estimator, batch_points, k)

        # Ground truth (select costs sampled and scaled for big batches).
        sample = batch_points[: min(len(batch_points), 1_500)]
        actual_selects = sum(
            repro.select_cost_exact(data_counts, data_index.blocks, p, k)
            for p in sample
        ) * len(batch_points) // len(sample)
        actual_join = repro.knn_join_cost(batch_index, data_index, k)
        print(
            f"{batch_size:>10}  {choice.chosen:<20} "
            f"{choice.per_select_total_cost:>12.0f} {choice.join_cost:>10.0f} "
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
