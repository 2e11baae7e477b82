"""Figure 13: preprocessing time of the k-NN-Select estimators vs scale.

Paper shape: Staircase preprocessing grows with the scale factor (more
blocks, more catalogs); Center+Corners costs more than Center-Only
(five profiles per block instead of one); the density-based technique
precomputes nothing.
"""

from __future__ import annotations

from repro.experiments import select_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 13 series."""
    config = config or get_config()
    result = ExperimentResult(
        name="fig13",
        title="k-NN-Select estimator preprocessing time (seconds)",
        columns=(
            "scale",
            "staircase_center_corners_s",
            "staircase_center_only_s",
            "density_based_s",
        ),
    )
    for scale in config.scales:
        cc = select_support.staircase_estimator(config, scale)
        center_only = select_support.staircase_estimator(config, scale, variant="center")
        result.add_row(
            scale,
            cc.preprocessing_seconds,
            center_only.preprocessing_seconds,
            0.0,  # the density-based technique precomputes no catalogs
        )
        result.notes.append(f"scale {scale}: {cc.preprocessing_stats.describe_work()}")
    result.notes.append(
        "paper shape: grows with scale; Center+Corners > Center-Only; density = 0"
    )
    return result
