"""Figure 23: k-NN-Join preprocessing time vs sample size and grid size.

Two sub-series at a fixed scale factor:

* (a) Catalog-Merge preprocessing grows with the sample size (one
  temporary locality catalog per sampled block, then a larger merge).
* (b) Virtual-Grid preprocessing grows with the grid size (one locality
  catalog per cell).
"""

from __future__ import annotations

from repro.experiments import join_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config

PARAMS_SCALE_RANK = -1


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 23(a) and 23(b) series in one table."""
    config = config or get_config()
    scale = config.scales[PARAMS_SCALE_RANK]

    result = ExperimentResult(
        name="fig23",
        title="k-NN-Join preprocessing time vs sample size (a) / grid size (b)",
        columns=("series", "parameter", "preprocessing_s"),
    )
    estimator = grid = None
    for sample_size in config.sample_sizes:
        estimator = join_support.catalog_merge_estimator(config, scale, sample_size)
        result.add_row(
            "a:catalog_merge", str(sample_size), estimator.preprocessing_seconds
        )
    for grid_size in config.grid_sizes:
        grid = join_support.virtual_grid_estimator(config, scale, grid_size)
        result.add_row(
            "b:virtual_grid", f"{grid_size}x{grid_size}", grid.preprocessing_seconds
        )
    result.notes.append("paper shape: both grow with their parameter")
    if estimator is not None:
        result.notes.append(f"largest sample: {estimator.preprocessing_stats.describe_work()}")
    if grid is not None:
        result.notes.append(f"largest grid: {grid.preprocessing_stats.describe_work()}")
    return result
