"""Figure 24: summary of the pros and cons of each estimation technique.

The paper's Figure 24 is a qualitative Low/Medium/High matrix over four
dimensions (estimation time, estimation accuracy, storage overhead,
preprocessing time).  This experiment *derives* the matrix from
measurements: each technique is scored on a small reference workload
and bucketed Low/Medium/High relative to its group (select vs join
techniques), alongside the raw measured values.
"""

from __future__ import annotations

from repro.experiments import join_support, select_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.workloads.metrics import mean_error_ratio, time_callable

SUMMARY_SCALE_RANK = -1


def _bucket(value: float, values: list[float], reverse: bool = False) -> str:
    """Bucket ``value`` Low/Medium/High relative to its group.

    Zero maps to "None" (the paper uses it for absent overheads).
    Thresholds are geometric: a value within 3x of the group minimum is
    Low, within 3x of the maximum is High, otherwise Medium.
    """
    if value == 0:
        return "None"
    positive = [v for v in values if v > 0]
    lo, hi = min(positive), max(positive)
    if hi / lo < 3:  # group indistinguishable
        return "Medium"
    label = "Low" if value <= lo * 3 else ("High" if value >= hi / 3 else "Medium")
    if reverse:  # higher is better (accuracy)
        label = {"Low": "High", "High": "Low", "Medium": "Medium"}[label]
    return label


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Derive the Figure 24 matrix from measurements."""
    config = config or get_config()
    scale = config.scales[SUMMARY_SCALE_RANK]
    k_mid = min(64, config.max_k)

    # ------------------------------------------------------------------
    # Select techniques
    # ------------------------------------------------------------------
    staircase = select_support.staircase_estimator(config, scale)
    density = select_support.density_estimator(config, scale)
    workload = select_support.select_workload(config, scale)
    actuals = select_support.actual_select_costs(config, scale)
    probe = workload[0].query

    select_rows = {
        "Density-Based": {
            "time": time_callable(lambda: density.estimate(probe, k_mid), repeats=50).mean_seconds,
            "error": mean_error_ratio(
                [density.estimate(q.query, q.k) for q in workload], actuals
            ),
            "storage": float(density.storage_bytes()),
            "preprocessing": 0.0,
        },
        "Staircase (Center-Only)": {
            "time": time_callable(
                lambda: staircase.estimate(probe, k_mid, variant="center"), repeats=50
            ).mean_seconds,
            "error": mean_error_ratio(
                [staircase.estimate(q.query, q.k, variant="center") for q in workload],
                actuals,
            ),
            "storage": float(
                select_support.staircase_estimator(config, scale, variant="center").storage_bytes()
            ),
            "preprocessing": select_support.staircase_estimator(
                config, scale, variant="center"
            ).preprocessing_seconds,
        },
        "Staircase (Center+Corners)": {
            "time": time_callable(lambda: staircase.estimate(probe, k_mid), repeats=50).mean_seconds,
            "error": mean_error_ratio(
                [staircase.estimate(q.query, q.k) for q in workload], actuals
            ),
            "storage": float(staircase.storage_bytes()),
            "preprocessing": staircase.preprocessing_seconds,
        },
    }

    # ------------------------------------------------------------------
    # Join techniques
    # ------------------------------------------------------------------
    ks = [min(k, config.max_k) for k in config.join_k_values]
    join_actuals = [join_support.actual_join_cost(config, scale, k) for k in ks]
    block_sample = join_support.block_sample_estimator(config, scale, config.join_sample_size)
    catalog_merge = join_support.catalog_merge_estimator(config, scale, config.join_sample_size)
    grid = join_support.virtual_grid_estimator(config, scale, config.join_grid_size)
    bound_grid = grid.for_outer(join_support.relation_counts(config, scale, 0))

    join_rows = {
        "Block-Sample": {
            "time": time_callable(lambda: block_sample.estimate(k_mid), repeats=3).mean_seconds,
            "error": mean_error_ratio([block_sample.estimate(k) for k in ks], join_actuals),
            "storage": float(block_sample.storage_bytes()),
            "preprocessing": 0.0,
        },
        "Catalog-Merge": {
            "time": time_callable(lambda: catalog_merge.estimate(k_mid), repeats=100).mean_seconds,
            "error": mean_error_ratio([catalog_merge.estimate(k) for k in ks], join_actuals),
            "storage": float(catalog_merge.storage_bytes()),
            "preprocessing": catalog_merge.preprocessing_seconds,
        },
        "Virtual-Grid": {
            "time": time_callable(lambda: bound_grid.estimate(k_mid), repeats=10).mean_seconds,
            "error": mean_error_ratio([bound_grid.estimate(k) for k in ks], join_actuals),
            "storage": float(grid.storage_bytes()),
            "preprocessing": grid.preprocessing_seconds,
        },
    }

    result = ExperimentResult(
        name="fig24",
        title="Measured pros/cons summary of each estimation technique",
        columns=(
            "operator",
            "technique",
            "est_time_bucket_s",
            "est_time_s",
            "accuracy",
            "error_ratio",
            "storage",
            "storage_bytes",
            "preprocessing_bucket_s",
            "preprocessing_s",
        ),
    )
    for operator, rows in (("k-NN-Select", select_rows), ("k-NN-Join", join_rows)):
        times = [r["time"] for r in rows.values()]
        errors = [r["error"] for r in rows.values()]
        storages = [r["storage"] for r in rows.values()]
        preps = [r["preprocessing"] for r in rows.values()]
        for technique, r in rows.items():
            result.add_row(
                operator,
                technique,
                _bucket(r["time"], times),
                r["time"],
                _bucket(r["error"], errors, reverse=True),
                r["error"],
                _bucket(r["storage"], storages),
                r["storage"],
                _bucket(r["preprocessing"], preps),
                r["preprocessing"],
            )
    result.notes.append(
        "buckets derived from measurements; compare with the paper's Figure 24"
    )
    return result
