"""Figure 4: stability of the k-NN-Select cost across values of k.

The paper picks a random query point on the OpenStreetMap quadtree and
shows that the number of blocks scanned is constant over large
intervals of k (the staircase shape, Figure 4a) and tabulates the
intervals (Figure 4b).  This experiment regenerates the table for a
random query point of the reproduction testbed.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    build_index,
    build_snapshot,
    get_config,
)
from repro.geometry import Point
from repro.knn.distance_browsing import select_cost_profile

#: Scale factor used for the illustration (any scale shows the shape).
PROFILE_SCALE = 2


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 4(b) staircase table."""
    config = config or get_config()
    scale = min(PROFILE_SCALE, max(config.scales))
    index = build_index(scale, config.base_n, config.capacity, config.seed, config.dataset_kind)
    counts = build_snapshot(
        scale, config.base_n, config.capacity, config.seed, config.dataset_kind
    )
    rng = np.random.default_rng(config.seed)
    pick = int(rng.integers(0, index.num_points))
    points = index.all_points()
    query = Point(float(points[pick, 0]), float(points[pick, 1]))

    profile = select_cost_profile(counts, index.blocks, query, config.max_k)
    result = ExperimentResult(
        name="fig04",
        title="k-NN-Select cost staircase for one random query point",
        columns=("k_start", "k_end", "cost_blocks"),
    )
    for k_start, k_end, cost in profile:
        result.add_row(k_start, min(k_end, config.max_k), cost)
    intervals = len(profile)
    mean_width = (
        sum(min(k_end, config.max_k) - k_start + 1 for k_start, k_end, __ in profile)
        / intervals
        if intervals
        else 0.0
    )
    result.notes.append(
        f"query=({query.x:.1f}, {query.y:.1f}); {intervals} intervals over "
        f"k in [1, {config.max_k}], mean interval width {mean_width:.0f}"
    )
    result.notes.append(
        "paper shape: cost constant over large k intervals (e.g. [1,520]->3)"
    )
    return result
