"""Figure 14: storage overhead of the k-NN-Select estimators vs scale.

Paper shape: Staircase storage grows with scale (one or two catalogs
per block) but stays small in absolute terms (< 4 MB at 0.1 B points);
Center-Only needs roughly half of Center+Corners; the density-based
technique stores only the per-block statistics of the Count-Index.
"""

from __future__ import annotations

from repro.experiments import select_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 14 series."""
    config = config or get_config()
    result = ExperimentResult(
        name="fig14",
        title="k-NN-Select estimator storage overhead (bytes)",
        columns=(
            "scale",
            "staircase_center_corners_bytes",
            "staircase_center_only_bytes",
            "density_based_bytes",
        ),
    )
    for scale in config.scales:
        cc = select_support.staircase_estimator(config, scale)
        center_only = select_support.staircase_estimator(config, scale, variant="center")
        density = select_support.density_estimator(config, scale)
        result.add_row(
            scale,
            cc.storage_bytes(),
            center_only.storage_bytes(),
            density.storage_bytes(),
        )
    result.notes.append(
        "paper shape: grows with scale; Center+Corners ~2x Center-Only; "
        "density minimal (Count-Index statistics only)"
    )
    return result
