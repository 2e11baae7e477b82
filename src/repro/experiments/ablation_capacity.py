"""Ablation: leaf-capacity sensitivity of the Staircase technique.

Section 3.1 observes that staircase stability "increases as the maximum
block capacity increases, i.e., the intervals become larger".  This
ablation sweeps the quadtree leaf capacity and measures catalog size
(entries per catalog shrink as capacity grows) and estimation accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.staircase import StaircaseEstimator
from repro.experiments.common import ExperimentConfig, ExperimentResult, dataset, get_config
from repro.experiments.select_support import exact_costs
from repro.geometry import Point
from repro.index.quadtree import Quadtree
from repro.index.snapshot import IndexSnapshot
from repro.perf import select_cost_profiles
from repro.workloads.metrics import mean_error_ratio
from repro.workloads.queries import data_distributed_queries

#: Anchors whose staircase is profiled per capacity.
N_ANCHORS = 20


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Sweep the leaf capacity over x0.5, x1, x4 of the profile's."""
    config = config or get_config()
    scale = min(2, max(config.scales))
    points = dataset(scale, config.base_n, config.seed, config.dataset_kind)
    result = ExperimentResult(
        name="ablation_capacity",
        title="Staircase vs leaf capacity: blocks, staircase steps, accuracy",
        columns=("capacity", "n_blocks", "mean_intervals_per_catalog", "mean_error"),
    )
    for capacity in (config.capacity // 2, config.capacity, config.capacity * 4):
        tree = Quadtree(points, capacity=capacity)
        counts = IndexSnapshot.from_index(tree)
        estimator = StaircaseEstimator(tree, max_k=config.max_k)

        # Staircase stability: average number of steps in a profile.
        rng = np.random.default_rng(config.seed)
        anchors = [
            Point(float(points[i, 0]), float(points[i, 1]))
            for i in rng.integers(0, points.shape[0], size=N_ANCHORS)
        ]
        steps = [
            len(profile)
            for profile, __ in select_cost_profiles(
                counts, tree.points_view, anchors, config.max_k
            )
        ]
        queries = data_distributed_queries(points, 100, config.max_k, seed=config.seed)
        result.add_row(
            capacity,
            tree.num_blocks,
            float(np.mean(steps)),
            mean_error_ratio(
                [estimator.estimate(q.query, q.k) for q in queries],
                exact_costs(counts, tree.blocks, queries),
            ),
        )
    result.notes.append(
        "paper Section 3.1: stability (fewer, wider intervals) increases "
        "with block capacity"
    )
    return result
