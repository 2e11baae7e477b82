"""Ablation: quadtree versus R-tree as the data index.

Section 2 claims the techniques apply to "a quadtree, an R-tree, or any
of their variants"; Section 3.3 explains that a data-partitioning data
index needs a separate space-partitioning auxiliary index.  This
ablation runs the Staircase estimator over both substrates on the same
points and compares accuracy and the ground-truth scan costs.
"""

from __future__ import annotations

import numpy as np

from _bench_utils import RESULTS_DIR
from repro.estimators import StaircaseEstimator
from repro.experiments.common import ExperimentResult, dataset
from repro.index import IndexSnapshot, Quadtree, RTree
from repro.knn import select_cost_exact
from repro.workloads.queries import data_distributed_queries


def test_ablation_index_substrate(benchmark, bench_config):
    cfg = bench_config
    scale = min(2, max(cfg.scales))
    points = dataset(scale, cfg.base_n, cfg.seed, cfg.dataset_kind)

    quadtree = Quadtree(points, capacity=cfg.capacity)
    rtree = RTree(points, capacity=cfg.capacity)
    aux = quadtree  # shared space-partitioning auxiliary index

    est_quad = StaircaseEstimator(quadtree, max_k=cfg.max_k)
    est_rtree = StaircaseEstimator(rtree, aux_index=aux, max_k=cfg.max_k)

    quad_counts = IndexSnapshot.from_index(quadtree)
    rtree_counts = IndexSnapshot.from_index(rtree)
    queries = data_distributed_queries(
        points, min(cfg.n_queries, 150), cfg.max_k, seed=cfg.seed
    )

    rows = {"quadtree": [], "rtree": []}
    for q in queries:
        actual_q = select_cost_exact(quad_counts, quadtree.blocks, q.query, q.k)
        actual_r = select_cost_exact(rtree_counts, rtree.blocks, q.query, q.k)
        rows["quadtree"].append(abs(est_quad.estimate(q.query, q.k) - actual_q) / actual_q)
        rows["rtree"].append(abs(est_rtree.estimate(q.query, q.k) - actual_r) / actual_r)

    result = ExperimentResult(
        name="ablation_index_substrate",
        title="Staircase accuracy over quadtree vs R-tree data indexes",
        columns=("substrate", "n_blocks", "mean_error", "median_error"),
    )
    result.add_row(
        "quadtree",
        quadtree.num_blocks,
        float(np.mean(rows["quadtree"])),
        float(np.median(rows["quadtree"])),
    )
    result.add_row(
        "rtree",
        rtree.num_blocks,
        float(np.mean(rows["rtree"])),
        float(np.median(rows["rtree"])),
    )
    result.notes.append("same points, same auxiliary index; Section 3.3 claim")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_index_substrate.txt").write_text(
        result.format_table() + "\n"
    )

    # The technique must remain usable on the R-tree: bounded error and
    # O(1)-style estimation.
    assert float(np.mean(rows["rtree"])) < 1.0

    q = queries[0]
    value = benchmark(est_rtree.estimate, q.query, q.k)
    assert value >= 0
