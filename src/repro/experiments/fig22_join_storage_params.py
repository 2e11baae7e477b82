"""Figure 22: k-NN-Join catalog storage vs sample size and grid size.

Two sub-series at a fixed scale factor (the paper fixes scale 10):

* (a) Catalog-Merge storage grows with the sample size — more temporary
  catalogs produce more entries in the merged catalog.
* (b) Virtual-Grid storage grows with the grid size — one catalog per
  cell.
"""

from __future__ import annotations

from repro.experiments import join_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config

PARAMS_SCALE_RANK = -1


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 22(a) and 22(b) series in one table."""
    config = config or get_config()
    scale = config.scales[PARAMS_SCALE_RANK]

    result = ExperimentResult(
        name="fig22",
        title="k-NN-Join catalog storage vs sample size (a) / grid size (b)",
        columns=("series", "parameter", "storage_bytes"),
    )
    for sample_size in config.sample_sizes:
        estimator = join_support.catalog_merge_estimator(config, scale, sample_size)
        result.add_row("a:catalog_merge", str(sample_size), estimator.storage_bytes())
    for grid_size in config.grid_sizes:
        grid = join_support.virtual_grid_estimator(config, scale, grid_size)
        result.add_row("b:virtual_grid", f"{grid_size}x{grid_size}", grid.storage_bytes())
    result.notes.append(
        "paper shape: both grow with their parameter (more catalog entries/cells)"
    )
    return result
