"""k-nearest-neighbor query processing algorithms.

These are the *actual* operators whose cost the paper estimates; the
reproduction implements them in full so that every estimator can be
validated against ground truth:

* :mod:`~repro.knn.distance_browsing` — Hjaltason & Samet's incremental
  distance browsing, the I/O-optimal state of the art for k-NN-Select,
  plus its exact block-scan cost and the full cost-vs-k staircase
  profile (the machinery behind Procedure 1).
* :mod:`~repro.knn.browse` — the production browser: a select batch
  browsed to each query's stop in fixed-shape array rounds, run by the
  engine over its local view and by the serving coordinator, whose
  rounds gather from the shards.
* :mod:`~repro.knn.merge` — a per-query k-bounded replay over
  MINDIST-ordered block streams: the benchmark's merge probe and a
  test oracle.
* :mod:`~repro.knn.depth_first` — Roussopoulos et al.'s depth-first
  branch-and-bound k-NN, the suboptimal comparator of Section 2.
* :mod:`~repro.knn.locality` — locality computation of Sankaranarayanan
  et al., its size-vs-k staircase profile (Procedure 2's semantics) and
  the exact locality-join cost; the join itself runs as the engine's
  :class:`~repro.engine.physical.LocalityJoinOperator`.
"""

from repro.knn.distance_browsing import (
    DistanceBrowser,
    knn_select,
    select_cost,
    select_cost_exact,
    select_cost_profile,
    brute_force_knn,
)
from repro.knn.depth_first import depth_first_knn
from repro.knn.locality import (
    knn_join_cost,
    locality_block_indices,
    locality_coverage_radii,
    locality_size,
    locality_size_profile,
    locality_sizes,
)

__all__ = [
    "DistanceBrowser",
    "knn_select",
    "select_cost",
    "select_cost_exact",
    "select_cost_profile",
    "brute_force_knn",
    "depth_first_knn",
    "locality_block_indices",
    "locality_coverage_radii",
    "locality_size",
    "locality_size_profile",
    "locality_sizes",
    "knn_join_cost",
]
