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

from _bench_utils import RESULTS_DIR
from repro.experiments import select_support
from repro.experiments.common import ExperimentResult
from repro.geometry import Point
from repro.knn import select_cost_exact
from repro.workloads.queries import random_k_values, zipf_k_values


def test_ablation_k_distribution(benchmark, bench_config):
    cfg = bench_config
    scale = max(cfg.scales)
    staircase = select_support.staircase_estimator(cfg, scale)
    density = select_support.density_estimator(cfg, scale)
    index = select_support.build_index(
        scale, cfg.base_n, cfg.capacity, cfg.seed, cfg.dataset_kind
    )
    counts = select_support.build_snapshot(
        cfg.scales[-1], cfg.base_n, cfg.capacity, cfg.seed, cfg.dataset_kind
    )
    points = index.all_points()
    rng = np.random.default_rng(cfg.seed)
    n_queries = min(cfg.n_queries, 200)
    picks = rng.integers(0, points.shape[0], size=n_queries)
    focal = [Point(float(points[i, 0]), float(points[i, 1])) for i in picks]

    distributions = {
        "uniform": random_k_values(n_queries, cfg.max_k, seed=cfg.seed),
        "zipf": zipf_k_values(n_queries, cfg.max_k, seed=cfg.seed),
        "large-only": random_k_values(n_queries, cfg.max_k, seed=cfg.seed)
        // 2
        + cfg.max_k // 2,
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
    errors: dict[str, tuple[float, float, float]] = {}
    for name, ks in distributions.items():
        cc_err, c_err, d_err, actuals = [], [], [], []
        for q, k in zip(focal, ks):
            k = int(k)
            actual = select_cost_exact(counts, index.blocks, q, k)
            actuals.append(actual)
            cc_err.append(abs(staircase.estimate(q, k) - actual) / actual)
            c_err.append(
                abs(staircase.estimate(q, k, variant="center") - actual) / actual
            )
            d_err.append(abs(density.estimate(q, k) - actual) / actual)
        errors[name] = (
            float(np.mean(cc_err)),
            float(np.mean(c_err)),
            float(np.mean(d_err)),
        )
        result.add_row(name, float(np.median(actuals)), *errors[name])
    result.notes.append(
        "small-k workloads inflate relative errors; the Center+Corners "
        "interpolation pays a corner penalty at k << block occupancy, so "
        "Center-Only is the better Staircase variant for Zipf-k workloads"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_k_distribution.txt").write_text(
        result.format_table() + "\n"
    )

    # On the large-k workload (the regime of the paper's figures) the
    # Staircase variants beat the density baseline.
    assert errors["large-only"][0] < errors["large-only"][2]
    assert errors["large-only"][1] < errors["large-only"][2]
    # Small-k (Zipf) workloads are strictly harder for Center+Corners.
    assert errors["zipf"][0] >= errors["large-only"][0]
    # Center-Only is the robust Staircase variant across distributions.
    assert errors["zipf"][1] <= errors["zipf"][0]

    q, k = focal[0], int(distributions["zipf"][0])
    value = benchmark(staircase.estimate, q, k)
    assert value >= 0
