"""Figure 17: k-NN-Join estimation time versus k.

Per-estimate wall-clock time of the three join techniques at
geometrically spaced k, with the sample size fixed (paper: 1000) and
the grid fixed (paper: 10x10).  Paper shape: Catalog-Merge is more than
four orders of magnitude faster than Block-Sample and Virtual-Grid and
flat in k (one catalog lookup); Block-Sample recomputes sample
localities per estimate; Virtual-Grid aggregates over grid cells.
"""

from __future__ import annotations

from repro.experiments import join_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.experiments.fig12_select_time import k_series
from repro.workloads.metrics import time_callable

TIMING_SCALE_RANK = -1


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 17 series."""
    config = config or get_config()
    scale = config.scales[TIMING_SCALE_RANK]
    block_sample = join_support.block_sample_estimator(
        config, scale, config.join_sample_size
    )
    catalog_merge = join_support.catalog_merge_estimator(
        config, scale, config.join_sample_size
    )
    grid = join_support.virtual_grid_estimator(config, scale, config.join_grid_size)
    bound_grid = grid.for_outer(join_support.relation_counts(config, scale, 0))

    result = ExperimentResult(
        name="fig17",
        title="k-NN-Join estimation time (seconds per estimate)",
        columns=("k", "virtual_grid_s", "block_sample_s", "catalog_merge_s"),
    )
    for k in k_series(config.max_k):
        t_vg = time_callable(lambda: bound_grid.estimate(k), repeats=20).mean_seconds
        t_bs = time_callable(lambda: block_sample.estimate(k), repeats=5).mean_seconds
        t_cm = time_callable(lambda: catalog_merge.estimate(k), repeats=200).mean_seconds
        result.add_row(k, t_vg, t_bs, t_cm)
    result.notes.append(
        "paper shape: Catalog-Merge >4 orders of magnitude faster; flat in k"
    )
    return result
