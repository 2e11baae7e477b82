"""Figure 12: k-NN-Select estimation time versus k.

Per-query estimation time (seconds, log scale in the paper) for the two
Staircase variants and the density-based baseline, at geometrically
spaced k.  Paper shape: Staircase ~two orders of magnitude faster and
flat in k; density-based grows with k (its MINDIST scan extends until
the expected search region contains k points).
"""

from __future__ import annotations

import numpy as np

from repro.experiments import select_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.geometry import Point
from repro.workloads.metrics import time_callable

#: Scale factor at which timings are taken (paper uses the full data).
TIMING_SCALE_RANK = -1  # last configured scale

#: Number of random focal points averaged per k.
N_FOCAL_POINTS = 20


def k_series(max_k: int) -> list[int]:
    """Geometric k values 1, 4, 16, ... capped at ``max_k`` (paper: ..4096)."""
    ks: list[int] = []
    k = 1
    while k <= max_k:
        ks.append(k)
        k *= 4
    if ks[-1] != max_k:
        ks.append(max_k)
    return ks


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 12 series."""
    config = config or get_config()
    scale = config.scales[TIMING_SCALE_RANK]
    staircase = select_support.staircase_estimator(config, scale)
    density = select_support.density_estimator(config, scale)
    points = select_support.build_index(
        scale, config.base_n, config.capacity, config.seed, config.dataset_kind
    ).all_points()
    rng = np.random.default_rng(config.seed)
    picks = rng.integers(0, points.shape[0], size=N_FOCAL_POINTS)
    focal = [Point(float(points[i, 0]), float(points[i, 1])) for i in picks]

    result = ExperimentResult(
        name="fig12",
        title="k-NN-Select estimation time (seconds per query)",
        columns=(
            "k",
            "staircase_center_corners_s",
            "staircase_center_only_s",
            "density_based_s",
        ),
    )
    for k in k_series(config.max_k):
        t_cc = _mean_time(lambda q: staircase.estimate(q, k), focal)
        t_c = _mean_time(lambda q: staircase.estimate(q, k, variant="center"), focal)
        t_d = _mean_time(lambda q: density.estimate(q, k), focal)
        result.add_row(k, t_cc, t_c, t_d)
    result.notes.append(
        "paper shape: Staircase flat in k and ~100x faster; density grows with k"
    )
    return result


def _mean_time(fn, focal_points: list[Point], repeats: int = 30) -> float:
    """Average per-call time of ``fn`` across the focal points."""
    times = [
        time_callable(lambda q=q: fn(q), repeats=repeats, warmup=2).mean_seconds
        for q in focal_points
    ]
    return float(np.mean(times))
