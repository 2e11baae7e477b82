"""Ablation: data-distribution sensitivity of the select estimators.

The paper's central claim for Staircase is robustness on *non-uniform*
data: the density-based baseline assumes uniformity inside its expanding
search region, which holds on uniform data and fails on GPS-like data.
This ablation measures both techniques on uniform, skewed, and OSM-like
datasets of the same size.
"""

from __future__ import annotations

from repro.datasets import generate_osm_like, generate_skewed, generate_uniform
from repro.estimators.density import DensityBasedEstimator
from repro.estimators.staircase import StaircaseEstimator
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.experiments.select_support import exact_costs
from repro.index.quadtree import Quadtree
from repro.index.snapshot import IndexSnapshot
from repro.workloads.metrics import mean_error_ratio
from repro.workloads.queries import data_distributed_queries

GENERATORS = {
    "uniform": generate_uniform,
    "skewed": generate_skewed,
    "osm-like": generate_osm_like,
}


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Mean error ratio of Staircase and the density baseline per dataset."""
    config = config or get_config()
    n = config.base_n * min(2, max(config.scales))
    result = ExperimentResult(
        name="ablation_dataset_distribution",
        title="Select-estimator error by data distribution",
        columns=("dataset", "staircase_cc", "density_based"),
    )
    for name, generate in GENERATORS.items():
        points = generate(n, seed=config.seed)
        tree = Quadtree(points, capacity=config.capacity)
        counts = IndexSnapshot.from_index(tree)
        staircase = StaircaseEstimator(tree, max_k=config.max_k)
        density = DensityBasedEstimator(counts)
        queries = data_distributed_queries(
            points, min(config.n_queries, 150), config.max_k, seed=config.seed
        )
        actuals = exact_costs(counts, tree.blocks, queries)
        result.add_row(
            name,
            mean_error_ratio([staircase.estimate(q.query, q.k) for q in queries], actuals),
            mean_error_ratio([density.estimate(q.query, q.k) for q in queries], actuals),
        )
    result.notes.append(
        "paper claim: density-based relies on within-region uniformity; "
        "Staircase does not"
    )
    return result
