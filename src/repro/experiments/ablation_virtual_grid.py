"""Ablation: Virtual-Grid block-to-cell assignment rules.

The paper's rule counts every outer block once per overlapping cell
("overlap"); DESIGN.md §5 flags the double counting this causes.  The
ablation compares the literal rule with two de-duplicating variants:
"center" (assign to the center cell only) and "clipped" (scale by the
diagonal of the block-cell intersection), across grid sizes.
"""

from __future__ import annotations

from repro.experiments import join_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.workloads.metrics import mean_error_ratio

ASSIGNMENTS = ("overlap", "center", "clipped")


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Mean join-cost error ratio of each assignment rule per grid size."""
    config = config or get_config()
    scale = max(config.scales)
    outer = join_support.relation_counts(config, scale, 0)
    ks = [min(k, config.max_k) for k in config.join_k_values]
    actuals = [join_support.actual_join_cost(config, scale, k) for k in ks]

    result = ExperimentResult(
        name="ablation_virtual_grid",
        title="Virtual-Grid assignment-rule ablation (mean error ratio)",
        columns=("grid_size", *ASSIGNMENTS),
    )
    for grid_size in config.grid_sizes:
        grid = join_support.virtual_grid_estimator(config, scale, grid_size)
        result.add_row(
            f"{grid_size}x{grid_size}",
            *(
                mean_error_ratio(
                    [grid.estimate(outer, k, assignment=mode) for k in ks], actuals
                )
                for mode in ASSIGNMENTS
            ),
        )
    result.notes.append(
        "overlap = the paper's rule; center/clipped remove double counting"
    )
    return result
