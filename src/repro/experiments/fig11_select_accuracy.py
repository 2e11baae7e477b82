"""Figure 11: k-NN-Select estimation accuracy versus scale factor.

For every scale factor, the mean error ratio of the two Staircase
variants and the density-based baseline over a random query workload.
Paper shape: both Staircase variants beat the density-based technique;
Center+Corners stays below ~20 % error.
"""

from __future__ import annotations

from repro.experiments import select_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.workloads.metrics import mean_error_ratio


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 11 series."""
    config = config or get_config()
    result = ExperimentResult(
        name="fig11",
        title="k-NN-Select estimation accuracy (mean error ratio)",
        columns=(
            "scale",
            "staircase_center_corners",
            "staircase_center_only",
            "density_based",
        ),
    )
    for scale in config.scales:
        staircase = select_support.staircase_estimator(config, scale)
        density = select_support.density_estimator(config, scale)
        workload = select_support.select_workload(config, scale)
        actuals = select_support.actual_select_costs(config, scale)

        est_cc = [staircase.estimate(q.query, q.k) for q in workload]
        est_c = [staircase.estimate(q.query, q.k, variant="center") for q in workload]
        est_d = [density.estimate(q.query, q.k) for q in workload]
        result.add_row(
            scale,
            mean_error_ratio(est_cc, actuals),
            mean_error_ratio(est_c, actuals),
            mean_error_ratio(est_d, actuals),
        )
    result.notes.append(
        "paper shape: Staircase < Density-Based by >10%; Center+Corners <~20%"
    )
    return result
