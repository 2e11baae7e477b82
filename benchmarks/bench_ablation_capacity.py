"""Ablation: leaf-capacity sensitivity of the Staircase technique.

Section 3.1 observes that staircase stability "increases as the maximum
block capacity increases, i.e., the intervals become larger".  This
ablation sweeps the quadtree leaf capacity and measures catalog size
(entries per catalog shrink as capacity grows) and estimation accuracy.
"""

from __future__ import annotations

import numpy as np

from _bench_utils import RESULTS_DIR
from repro.estimators import StaircaseEstimator
from repro.experiments.common import ExperimentResult, dataset
from repro.index import IndexSnapshot, Quadtree
from repro.knn import select_cost_exact, select_cost_profile
from repro.geometry import Point
from repro.workloads.queries import data_distributed_queries


def test_ablation_capacity(benchmark, bench_config):
    cfg = bench_config
    scale = min(2, max(cfg.scales))
    points = dataset(scale, cfg.base_n, cfg.seed, cfg.dataset_kind)
    capacities = [cfg.capacity // 2, cfg.capacity, cfg.capacity * 4]

    result = ExperimentResult(
        name="ablation_capacity",
        title="Staircase vs leaf capacity: blocks, staircase steps, accuracy",
        columns=("capacity", "n_blocks", "mean_intervals_per_catalog", "mean_error"),
    )
    interval_means = {}
    for capacity in capacities:
        tree = Quadtree(points, capacity=capacity)
        counts = IndexSnapshot.from_index(tree)
        estimator = StaircaseEstimator(tree, max_k=cfg.max_k)

        # Staircase stability: average number of steps in a profile.
        rng = np.random.default_rng(cfg.seed)
        steps = []
        for i in rng.integers(0, points.shape[0], size=20):
            anchor = Point(float(points[i, 0]), float(points[i, 1]))
            steps.append(len(select_cost_profile(counts, tree.blocks, anchor, cfg.max_k)))
        interval_means[capacity] = float(np.mean(steps))

        queries = data_distributed_queries(points, 100, cfg.max_k, seed=cfg.seed)
        errors = [
            abs(
                estimator.estimate(q.query, q.k)
                - select_cost_exact(counts, tree.blocks, q.query, q.k)
            )
            / select_cost_exact(counts, tree.blocks, q.query, q.k)
            for q in queries
        ]
        result.add_row(
            capacity, tree.num_blocks, interval_means[capacity], float(np.mean(errors))
        )
    result.notes.append(
        "paper Section 3.1: stability (fewer, wider intervals) increases "
        "with block capacity"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_capacity.txt").write_text(result.format_table() + "\n")

    # Larger capacity => fewer staircase steps per catalog.
    assert interval_means[capacities[-1]] < interval_means[capacities[0]]

    # Benchmark unit: one catalog build at the paper-like capacity.
    tree = Quadtree(points, capacity=capacities[-1])
    counts = IndexSnapshot.from_index(tree)
    anchor = Point(float(points[0, 0]), float(points[0, 1]))
    profile = benchmark(select_cost_profile, counts, tree.blocks, anchor, cfg.max_k)
    assert profile
