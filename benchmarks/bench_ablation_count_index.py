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

from _bench_utils import RESULTS_DIR
from repro.experiments.common import ExperimentResult, build_snapshot, build_index
from repro.geometry import Point
from repro.index import HierarchicalCountIndex


def test_ablation_count_index_scan(benchmark, bench_config):
    cfg = bench_config
    scale = max(cfg.scales)
    index = build_index(scale, cfg.base_n, cfg.capacity, cfg.seed, cfg.dataset_kind)
    flat = build_snapshot(scale, cfg.base_n, cfg.capacity, cfg.seed, cfg.dataset_kind)
    hier = HierarchicalCountIndex(index)
    points = index.all_points()
    rng = np.random.default_rng(cfg.seed)
    queries = [
        Point(float(points[i, 0]), float(points[i, 1]))
        for i in rng.integers(0, points.shape[0], size=50)
    ]

    def time_flat(k: int) -> float:
        start = time.perf_counter()
        for q in queries:
            order, __ = flat.mindist_order(q)
            covered = 0
            for idx in order:
                covered += int(flat.counts[idx])
                if covered >= k:
                    break
        return (time.perf_counter() - start) / len(queries)

    def time_hier(k: int) -> float:
        start = time.perf_counter()
        for q in queries:
            hier.expand_until(q, k)
        return (time.perf_counter() - start) / len(queries)

    result = ExperimentResult(
        name="ablation_count_index",
        title="Flat vs hierarchical Count-Index: expand-until-k latency (s)",
        columns=("k", "flat_s", "hierarchical_s"),
    )
    lazy_wins_small_k = None
    for k in (1, cfg.max_k // 8, cfg.max_k):
        t_flat, t_hier = time_flat(k), time_hier(k)
        result.add_row(k, t_flat, t_hier)
        if k == 1:
            lazy_wins_small_k = t_hier < t_flat
    result.notes.append(
        "lazy scan touches O(answer) nodes; flat pays one argsort per query"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_count_index.txt").write_text(result.format_table() + "\n")

    # Both must return identical coverage; spot-check one query.
    q = queries[0]
    blocks, __ = hier.expand_until(q, cfg.max_k // 4)
    covered_hier = int(flat.counts[blocks].sum())
    order, __ = flat.mindist_order(q)
    covered_flat = 0
    n_flat = 0
    for idx in order:
        covered_flat += int(flat.counts[idx])
        n_flat += 1
        if covered_flat >= cfg.max_k // 4:
            break
    assert covered_hier >= cfg.max_k // 4
    assert len(blocks) == n_flat

    value = benchmark(hier.expand_until, queries[0], cfg.max_k // 8)
    assert value[0]
