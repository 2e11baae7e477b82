"""Figure 15: k-NN-Join estimation accuracy versus sample size.

Error ratio of the Block-Sample and Catalog-Merge techniques for the
canonical join pair, at increasing outer-block sample sizes, averaged
over random k values (the paper repeats the random-k measurement per
sample size).  Paper shape: both drop below ~5 % once the sample
reaches ~400 blocks.
"""

from __future__ import annotations

from repro.experiments import join_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.workloads.metrics import mean_error_ratio

#: Scale factor of the join accuracy experiments (paper: full data).
ACCURACY_SCALE_RANK = -1


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 15 series."""
    config = config or get_config()
    scale = config.scales[ACCURACY_SCALE_RANK]
    ks = [min(k, config.max_k) for k in config.join_k_values]
    actuals = [join_support.actual_join_cost(config, scale, k) for k in ks]

    result = ExperimentResult(
        name="fig15",
        title="k-NN-Join estimation accuracy vs sample size (mean error ratio)",
        columns=("sample_size", "block_sample", "catalog_merge"),
    )
    for sample_size in config.sample_sizes:
        block_sample = join_support.block_sample_estimator(config, scale, sample_size)
        catalog_merge = join_support.catalog_merge_estimator(config, scale, sample_size)
        est_bs = [block_sample.estimate(k) for k in ks]
        est_cm = [catalog_merge.estimate(k) for k in ks]
        result.add_row(
            sample_size,
            mean_error_ratio(est_bs, actuals),
            mean_error_ratio(est_cm, actuals),
        )
    result.notes.append("paper shape: error < ~5% for sample sizes >= 400")
    return result
