"""Figure 20: schema-level k-NN-Join catalog storage versus scale factor.

For a schema of ``n_relations`` indexes (paper: 10), Catalog-Merge
maintains a catalog per ordered pair (90 catalogs) while Virtual-Grid
maintains one catalog set per relation (10).  Paper shape: Virtual-Grid
needs about an order of magnitude less storage.
"""

from __future__ import annotations

from repro.experiments import join_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 20 series."""
    config = config or get_config()
    result = ExperimentResult(
        name="fig20",
        title=(
            f"k-NN-Join catalog storage for a {config.n_relations}-relation "
            "schema (bytes)"
        ),
        columns=("scale", "catalog_merge_bytes", "virtual_grid_bytes", "ratio"),
    )
    for scale in config.scales:
        cm_bytes, __, vg_bytes, __, __, __ = join_support.schema_catalog_totals(
            config, scale
        )
        ratio = cm_bytes / vg_bytes if vg_bytes else float("inf")
        result.add_row(scale, cm_bytes, vg_bytes, ratio)
    n = config.n_relations
    result.notes.append(
        f"{n * (n - 1)} pair catalogs (Catalog-Merge) vs {n} grid catalog "
        "sets (Virtual-Grid)"
    )
    result.notes.append("paper shape: Virtual-Grid ~an order of magnitude smaller")
    return result
