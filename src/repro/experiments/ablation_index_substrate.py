"""Ablation: quadtree versus R-tree as the data index.

Section 2 claims the techniques apply to "a quadtree, an R-tree, or any
of their variants"; Section 3.3 explains that a data-partitioning data
index needs a separate space-partitioning auxiliary index.  This
ablation runs the Staircase estimator over both substrates on the same
points and compares accuracy against each substrate's own ground-truth
scan costs.
"""

from __future__ import annotations

from repro.estimators.staircase import StaircaseEstimator
from repro.experiments.common import ExperimentConfig, ExperimentResult, dataset, get_config
from repro.experiments.select_support import exact_costs
from repro.index.quadtree import Quadtree
from repro.index.rtree import RTree
from repro.index.snapshot import IndexSnapshot
from repro.workloads.metrics import summarize_errors
from repro.workloads.queries import data_distributed_queries


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Staircase accuracy over a quadtree and an R-tree of the same points."""
    config = config or get_config()
    scale = min(2, max(config.scales))
    points = dataset(scale, config.base_n, config.seed, config.dataset_kind)
    quadtree = Quadtree(points, capacity=config.capacity)
    rtree = RTree(points, capacity=config.capacity)
    estimators = {
        "quadtree": StaircaseEstimator(quadtree, max_k=config.max_k),
        # The quadtree doubles as the space-partitioning auxiliary index.
        "rtree": StaircaseEstimator(rtree, aux_index=quadtree, max_k=config.max_k),
    }
    queries = data_distributed_queries(
        points, min(config.n_queries, 150), config.max_k, seed=config.seed
    )
    result = ExperimentResult(
        name="ablation_index_substrate",
        title="Staircase accuracy over quadtree vs R-tree data indexes",
        columns=("substrate", "n_blocks", "mean_error", "median_error"),
    )
    for name, index in (("quadtree", quadtree), ("rtree", rtree)):
        counts = IndexSnapshot.from_index(index)
        errors = summarize_errors(
            [estimators[name].estimate(q.query, q.k) for q in queries],
            exact_costs(counts, index.blocks, queries),
        )
        result.add_row(name, index.num_blocks, errors.mean, errors.median)
    result.notes.append("same points, same auxiliary index; Section 3.3 claim")
    return result
