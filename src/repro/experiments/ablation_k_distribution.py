"""Ablation: sensitivity of reported accuracy to the k distribution.

The paper evaluates with "random" k but does not state its
distribution.  Reproducing the figures showed the mean error ratio is
highly sensitive to that choice: small k means single-digit actual
costs, where a ±1 block error is a 30-100 % ratio.  This ablation makes
the effect explicit by evaluating the same estimators under a uniform,
a Zipf (small-k-heavy), and a large-k-only workload.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import select_support
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    build_index,
    build_snapshot,
    get_config,
)
from repro.geometry import Point
from repro.knn.distance_browsing import select_costs
from repro.workloads.metrics import mean_error_ratio
from repro.workloads.queries import random_k_values, zipf_k_values


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Mean error ratio of the select estimators per k distribution."""
    config = config or get_config()
    scale = max(config.scales)
    staircase = select_support.staircase_estimator(config, scale)
    density = select_support.density_estimator(config, scale)
    args = (scale, config.base_n, config.capacity, config.seed, config.dataset_kind)
    index, counts = build_index(*args), build_snapshot(*args)
    points = index.all_points()
    rng = np.random.default_rng(config.seed)
    n_queries = min(config.n_queries, 200)
    focal = [
        Point(float(points[i, 0]), float(points[i, 1]))
        for i in rng.integers(0, points.shape[0], size=n_queries)
    ]
    uniform = random_k_values(n_queries, config.max_k, seed=config.seed)
    distributions = {
        "uniform": uniform,
        "zipf": zipf_k_values(n_queries, config.max_k, seed=config.seed),
        "large-only": uniform // 2 + config.max_k // 2,
    }

    result = ExperimentResult(
        name="ablation_k_distribution",
        title="Mean error ratio by k distribution (same queries, same data)",
        columns=(
            "k_distribution",
            "median_actual_cost",
            "staircase_cc",
            "staircase_center",
            "density",
        ),
    )
    for name, ks in distributions.items():
        workload = [(q, int(k)) for q, k in zip(focal, ks)]
        actuals = select_costs(counts, index.blocks, [(q.x, q.y) for q in focal], ks).tolist()
        result.add_row(
            name,
            float(np.median(actuals)),
            mean_error_ratio([staircase.estimate(q, k) for q, k in workload], actuals),
            mean_error_ratio(
                [staircase.estimate(q, k, variant="center") for q, k in workload], actuals
            ),
            mean_error_ratio([density.estimate(q, k) for q, k in workload], actuals),
        )
    result.notes.append(
        "small-k workloads inflate relative errors; the Center+Corners "
        "interpolation pays a corner penalty at k << block occupancy, so "
        "Center-Only is the better Staircase variant for Zipf-k workloads"
    )
    return result
