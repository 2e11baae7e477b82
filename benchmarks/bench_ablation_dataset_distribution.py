"""Ablation: data-distribution sensitivity of the select estimators.

The paper's central claim for Staircase is robustness on *non-uniform*
data: the density-based baseline assumes uniformity inside its expanding
search region, which holds on uniform data and fails on GPS-like data.
This ablation measures both techniques on uniform, skewed, and OSM-like
datasets of the same size.
"""

from __future__ import annotations

import numpy as np

from _bench_utils import RESULTS_DIR
from repro.datasets import generate_osm_like, generate_skewed, generate_uniform
from repro.estimators import DensityBasedEstimator, StaircaseEstimator
from repro.experiments.common import ExperimentResult
from repro.index import IndexSnapshot, Quadtree
from repro.knn import select_cost_exact
from repro.workloads.queries import data_distributed_queries


def test_ablation_dataset_distribution(benchmark, bench_config):
    cfg = bench_config
    n = cfg.base_n * min(2, max(cfg.scales))
    datasets = {
        "uniform": generate_uniform(n, seed=cfg.seed),
        "skewed": generate_skewed(n, seed=cfg.seed),
        "osm-like": generate_osm_like(n, seed=cfg.seed),
    }

    result = ExperimentResult(
        name="ablation_dataset_distribution",
        title="Select-estimator error by data distribution",
        columns=("dataset", "staircase_cc", "density_based"),
    )
    errors = {}
    for name, points in datasets.items():
        tree = Quadtree(points, capacity=cfg.capacity)
        counts = IndexSnapshot.from_index(tree)
        staircase = StaircaseEstimator(tree, max_k=cfg.max_k)
        density = DensityBasedEstimator(counts)
        queries = data_distributed_queries(
            points, min(cfg.n_queries, 150), cfg.max_k, seed=cfg.seed
        )
        s_err, d_err = [], []
        for q in queries:
            actual = select_cost_exact(counts, tree.blocks, q.query, q.k)
            s_err.append(abs(staircase.estimate(q.query, q.k) - actual) / actual)
            d_err.append(abs(density.estimate(q.query, q.k) - actual) / actual)
        errors[name] = (float(np.mean(s_err)), float(np.mean(d_err)))
        result.add_row(name, *errors[name])
    result.notes.append(
        "paper claim: density-based relies on within-region uniformity; "
        "Staircase does not"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_dataset_distribution.txt").write_text(
        result.format_table() + "\n"
    )

    # The density baseline must degrade more than Staircase when moving
    # from uniform to OSM-like data.
    staircase_degradation = errors["osm-like"][0] - errors["uniform"][0]
    density_degradation = errors["osm-like"][1] - errors["uniform"][1]
    assert density_degradation > staircase_degradation

    # Benchmark unit: a density estimate on the non-uniform dataset.
    tree = Quadtree(datasets["osm-like"], capacity=cfg.capacity)
    density = DensityBasedEstimator(IndexSnapshot.from_index(tree))
    queries = data_distributed_queries(datasets["osm-like"], 8, cfg.max_k, seed=1)
    counter = iter(range(10**9))

    def estimate():
        q = queries[next(counter) % len(queries)]
        return density.estimate(q.query, q.k)

    value = benchmark(estimate)
    assert value >= 1
