"""Figure 19: Virtual-Grid k-NN-Join estimation time versus grid size.

Paper shape: almost constant — the estimation time depends on the
number of outer blocks (each is selected by some cell's range query
regardless of the grid resolution), not on the number of cells.
"""

from __future__ import annotations

from repro.experiments import join_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.workloads.metrics import time_callable

TIMING_SCALE_RANK = -1


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 19 series."""
    config = config or get_config()
    scale = config.scales[TIMING_SCALE_RANK]
    outer = join_support.relation_counts(config, scale, 0)
    k = min(64, config.max_k)

    result = ExperimentResult(
        name="fig19",
        title="Virtual-Grid k-NN-Join estimation time vs grid size (seconds)",
        columns=("grid_size", "virtual_grid_s"),
    )
    for grid_size in config.grid_sizes:
        grid = join_support.virtual_grid_estimator(config, scale, grid_size)
        t = time_callable(lambda: grid.estimate(outer, k), repeats=20).mean_seconds
        result.add_row(f"{grid_size}x{grid_size}", t)
    result.notes.append("paper shape: almost constant across grid sizes")
    return result
