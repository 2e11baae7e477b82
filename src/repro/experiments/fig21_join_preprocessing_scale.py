"""Figure 21: schema-level k-NN-Join preprocessing time versus scale.

Paper shape: Block-Sample precomputes nothing (0 s); Catalog-Merge
preprocessing grows with the scale factor (it samples and merges
per-pair localities over ever more blocks); Virtual-Grid is roughly
constant — its work depends on the number of grid cells, not the data
size.
"""

from __future__ import annotations

from repro.experiments import join_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 21 series."""
    config = config or get_config()
    result = ExperimentResult(
        name="fig21",
        title=(
            f"k-NN-Join preprocessing time for a {config.n_relations}-relation "
            "schema (seconds)"
        ),
        columns=("scale", "virtual_grid_s", "block_sample_s", "catalog_merge_s"),
    )
    for scale in config.scales:
        __, cm_seconds, __, vg_seconds, __, __ = join_support.schema_catalog_totals(
            config, scale
        )
        result.add_row(scale, vg_seconds, 0.0, cm_seconds)
    result.notes.append(
        "paper shape: Block-Sample 0; Catalog-Merge grows; Virtual-Grid ~constant"
    )
    top_scale = config.scales[-1]
    pair = join_support.catalog_merge_estimator(
        config, top_scale, config.schema_sample_size
    )
    result.notes.append(
        f"canonical pair at scale {top_scale}: {pair.preprocessing_stats.describe_work()}"
    )
    return result
