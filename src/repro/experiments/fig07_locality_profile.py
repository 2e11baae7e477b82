"""Figure 7: stability of the locality size across values of k.

The paper picks a random block of the outer relation and shows that the
size of its locality in the inner relation is constant over large
intervals of k (Figure 7a) and tabulates the intervals (Figure 7b).
"""

from __future__ import annotations

import numpy as np

from repro.experiments import join_support
from repro.experiments.common import ExperimentConfig, ExperimentResult, get_config
from repro.knn.locality import locality_size_profile

#: Scale factor used for the illustration.
PROFILE_SCALE = 2


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate the Figure 7(b) locality staircase table."""
    config = config or get_config()
    scale = min(PROFILE_SCALE, max(config.scales))
    outer = join_support.relation_index(config, scale, 0)
    inner = join_support.relation_counts(config, scale, 1)
    rng = np.random.default_rng(config.seed)
    block = outer.blocks[int(rng.integers(0, outer.num_blocks))]

    profile = locality_size_profile(inner, block.rect, config.max_k)
    result = ExperimentResult(
        name="fig07",
        title="Locality-size staircase for one random outer block",
        columns=("k_start", "k_end", "locality_size"),
    )
    for k_start, k_end, size in profile:
        if k_start > config.max_k:
            break
        result.add_row(k_start, min(k_end, config.max_k), size)
    rect = block.rect
    result.notes.append(
        f"outer block id={block.block_id}, rect=({rect.x_min:.1f}, "
        f"{rect.y_min:.1f}, {rect.x_max:.1f}, {rect.y_max:.1f})"
    )
    result.notes.append(
        "paper shape: locality size constant over large k intervals "
        "(e.g. [1,313]->25)"
    )
    return result
