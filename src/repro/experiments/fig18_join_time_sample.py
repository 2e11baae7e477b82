"""Figure 18: k-NN-Join estimation time versus sample size.

Paper shape: Block-Sample estimation time grows with the sample size
(it computes the locality of every sampled block per estimate);
Catalog-Merge stays constant (the sample size only affects its
preprocessing, not the single lookup).
"""

from __future__ import annotations

from repro.experiments import join_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.workloads.metrics import time_callable

TIMING_SCALE_RANK = -1

#: Sample sizes of the paper's Figure 18 x-axis.
PAPER_SAMPLE_SIZES = (100, 300, 500, 700, 900)


def sample_series(config: ExperimentConfig) -> tuple[int, ...]:
    """Figure 18's sample sizes, capped to the profile's workload."""
    cap = max(config.sample_sizes)
    series = tuple(s for s in PAPER_SAMPLE_SIZES if s <= cap * 2)
    return series or config.sample_sizes


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 18 series."""
    config = config or get_config()
    scale = config.scales[TIMING_SCALE_RANK]
    k = min(64, config.max_k)

    result = ExperimentResult(
        name="fig18",
        title="k-NN-Join estimation time vs sample size (seconds)",
        columns=("sample_size", "block_sample_s", "catalog_merge_s"),
    )
    for sample_size in sample_series(config):
        block_sample = join_support.block_sample_estimator(config, scale, sample_size)
        catalog_merge = join_support.catalog_merge_estimator(config, scale, sample_size)
        t_bs = time_callable(lambda: block_sample.estimate(k), repeats=5).mean_seconds
        t_cm = time_callable(lambda: catalog_merge.estimate(k), repeats=200).mean_seconds
        result.add_row(sample_size, t_bs, t_cm)
    result.notes.append(
        "paper shape: Block-Sample grows with sample size; Catalog-Merge constant"
    )
    return result
