"""Figure 13 bench: Staircase preprocessing time versus scale.

Regenerates the preprocessing table and benchmarks catalog construction
at scale 1 (rounds are expensive; one pedantic round suffices for the
figure's unit).
"""

from __future__ import annotations

from _bench_utils import headline, save_table
from repro.estimators import StaircaseEstimator
from repro.experiments.common import build_index
from repro.experiments.fig13_select_preprocessing import run


def test_fig13_table_and_preprocessing(benchmark, bench_config):
    result = run(bench_config)
    save_table(result)
    cc_times = result.column("staircase_center_corners_s")
    c_times = result.column("staircase_center_only_s")
    # Paper shape: Center+Corners costs more than Center-Only, and the
    # cost grows with scale.
    assert all(cc > c for cc, c in zip(cc_times, c_times))
    assert cc_times[-1] > cc_times[0]

    cfg = bench_config
    index = build_index(
        cfg.scales[0], cfg.base_n, cfg.capacity, cfg.seed, cfg.dataset_kind
    )

    def build_estimator():
        return StaircaseEstimator(index, max_k=cfg.max_k)

    estimator = benchmark.pedantic(build_estimator, rounds=2, iterations=1)
    benchmark.extra_info.update(headline(result, max_rows=10))
    benchmark.extra_info.update(
        {
            f"preproc_{key}": value
            for key, value in estimator.preprocessing_stats.as_dict().items()
        }
    )
    assert estimator.n_catalogs() > 0
