"""Figure 16: Virtual-Grid k-NN-Join estimation accuracy versus grid size.

Error ratio of the Virtual-Grid technique for the canonical join pair
at increasing virtual-grid resolutions, averaged over random k values.
Paper shape: below ~20 % error across grid sizes.
"""

from __future__ import annotations

from repro.experiments import join_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.workloads.metrics import mean_error_ratio

ACCURACY_SCALE_RANK = -1


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 16 series."""
    config = config or get_config()
    scale = config.scales[ACCURACY_SCALE_RANK]
    ks = [min(k, config.max_k) for k in config.join_k_values]
    actuals = [join_support.actual_join_cost(config, scale, k) for k in ks]
    outer = join_support.relation_counts(config, scale, 0)

    result = ExperimentResult(
        name="fig16",
        title="Virtual-Grid k-NN-Join estimation accuracy vs grid size",
        columns=("grid_size", "virtual_grid"),
    )
    for grid_size in config.grid_sizes:
        grid = join_support.virtual_grid_estimator(config, scale, grid_size)
        estimates = [grid.estimate(outer, k) for k in ks]
        result.add_row(f"{grid_size}x{grid_size}", mean_error_ratio(estimates, actuals))
    result.notes.append("paper shape: error < ~20% across grid sizes")
    return result
