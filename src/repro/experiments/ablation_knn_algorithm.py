"""Ablation: distance browsing vs depth-first k-NN scan costs.

Section 2 argues for modelling distance browsing because it is optimal:
the depth-first branch-and-bound of Roussopoulos et al. scans at least
as many blocks (Figure 1's walk-through shows 3 vs 2).  This ablation
measures the gap on the reproduction testbed — i.e., how much the
*operator being modelled* matters to the cost landscape.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentConfig, ExperimentResult, build_index, get_config
from repro.geometry import Point
from repro.knn.depth_first import depth_first_knn
from repro.knn.distance_browsing import select_costs

#: Queries both algorithms answer.
N_QUERIES = 60


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Blocks scanned by both k-NN algorithms over one random workload."""
    config = config or get_config()
    scale = min(2, max(config.scales))
    index = build_index(
        scale, config.base_n, config.capacity, config.seed, config.dataset_kind
    )
    points = index.all_points()
    rng = np.random.default_rng(config.seed)
    # Offset slightly so every q is a generic interior point.
    queries = [
        Point(float(points[i, 0]) + 0.25, float(points[i, 1]) - 0.25)
        for i in rng.integers(0, points.shape[0], size=N_QUERIES)
    ]
    ks = rng.integers(1, config.max_k, size=N_QUERIES)
    browsing = select_costs(index, index.blocks, [(q.x, q.y) for q in queries], ks).astype(float)
    depth_first = np.array(
        [depth_first_knn(index, q, int(k))[1] for q, k in zip(queries, ks)], dtype=float
    )

    result = ExperimentResult(
        name="ablation_knn_algorithm",
        title="Scan cost of the modelled operator: browsing vs depth-first",
        columns=("metric", "distance_browsing", "depth_first"),
    )
    result.add_row("total blocks", float(browsing.sum()), float(depth_first.sum()))
    result.add_row("mean blocks", float(browsing.mean()), float(depth_first.mean()))
    result.add_row("max blocks", float(browsing.max()), float(depth_first.max()))
    overhead = float((depth_first - browsing).sum() / browsing.sum())
    beaten = int((depth_first < browsing).sum())
    result.notes.append(
        f"depth-first scans {overhead:.1%} more blocks overall; browsing is "
        f"beaten on {beaten} of {N_QUERIES} queries (Hjaltason & Samet optimality)"
    )
    return result
