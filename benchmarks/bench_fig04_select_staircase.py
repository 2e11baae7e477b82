"""Figure 4 bench: the k-NN-Select cost staircase of one query point.

Regenerates the Figure 4(b) interval table and times Procedure 1 (the
catalog build for a single anchor point), the unit of Staircase
preprocessing.
"""

from __future__ import annotations

import numpy as np

from _bench_utils import headline, save_table
from repro.experiments.common import build_snapshot, build_index
from repro.experiments.fig04_staircase_profile import run
from repro.geometry import Point
from repro.knn import select_cost_profile


def test_fig04_table_and_procedure1(benchmark, bench_config):
    result = run(bench_config)
    save_table(result)
    # The staircase must be a staircase: non-decreasing costs over
    # contiguous intervals starting at k=1.
    costs = result.column("cost_blocks")
    assert costs == sorted(costs)
    assert result.rows[0][0] == 1

    cfg = bench_config
    scale = max(cfg.scales)
    index = build_index(scale, cfg.base_n, cfg.capacity, cfg.seed, cfg.dataset_kind)
    counts = build_snapshot(scale, cfg.base_n, cfg.capacity, cfg.seed, cfg.dataset_kind)
    pts = index.all_points()
    rng = np.random.default_rng(cfg.seed)
    anchors = [
        Point(float(pts[i, 0]), float(pts[i, 1]))
        for i in rng.integers(0, pts.shape[0], size=16)
    ]
    counter = iter(range(10**9))

    def build_one_catalog():
        anchor = anchors[next(counter) % len(anchors)]
        return select_cost_profile(counts, index.blocks, anchor, cfg.max_k)

    profile = benchmark(build_one_catalog)
    benchmark.extra_info.update(headline(result))
    assert profile[-1][1] >= cfg.max_k
