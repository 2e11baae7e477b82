"""Ablation: flat (vectorized) vs hierarchical (lazy) Count-Index scans.

The paper's testbed scans counts through the index hierarchy; the
reproduction's estimators use a flat vectorized Count-Index.  This
ablation measures the crossover: lazy hierarchical scanning touches
O(answer) nodes and wins when only a short MINDIST prefix is consumed,
while the flat argsort wins when most blocks are needed anyway.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    build_index,
    build_snapshot,
    get_config,
)
from repro.geometry import Point
from repro.index.hierarchical_count import HierarchicalCountIndex

#: Focal points the expand-until-k latency is averaged over.
N_FOCAL_POINTS = 50


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Time expand-until-k through both scans at small, mid and full k."""
    config = config or get_config()
    scale = max(config.scales)
    args = (scale, config.base_n, config.capacity, config.seed, config.dataset_kind)
    index, flat = build_index(*args), build_snapshot(*args)
    hier = HierarchicalCountIndex(index)
    points = index.all_points()
    rng = np.random.default_rng(config.seed)
    queries = [
        Point(float(points[i, 0]), float(points[i, 1]))
        for i in rng.integers(0, points.shape[0], size=N_FOCAL_POINTS)
    ]

    def expand_flat(q: Point, k: int) -> None:
        order, __ = flat.mindist_order(q)
        covered = 0
        for idx in order:
            covered += int(flat.counts[idx])
            if covered >= k:
                break

    def seconds_per_query(expand, k: int) -> float:
        start = time.perf_counter()
        for q in queries:
            expand(q, k)
        return (time.perf_counter() - start) / len(queries)

    result = ExperimentResult(
        name="ablation_count_index",
        title="Flat vs hierarchical Count-Index: expand-until-k latency (s)",
        columns=("k", "flat_s", "hierarchical_s"),
    )
    for k in (1, config.max_k // 8, config.max_k):
        result.add_row(
            k, seconds_per_query(expand_flat, k), seconds_per_query(hier.expand_until, k)
        )
    result.notes.append(
        "lazy scan touches O(answer) nodes; flat pays one argsort per query"
    )
    return result
