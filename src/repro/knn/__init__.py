"""k-nearest-neighbor query processing algorithms.

These are the *actual* operators whose cost the paper estimates; the
reproduction implements them in full so that every estimator can be
validated against ground truth:

* :mod:`~repro.knn.distance_browsing` — Hjaltason & Samet's incremental
  distance browsing, the I/O-optimal state of the art for k-NN-Select,
  plus its exact block-scan cost and the full cost-vs-k staircase
  profile (the machinery behind Procedure 1).
* :mod:`~repro.knn.merge` — the production browser: MINDIST-ordered
  block streams, a k-bounded merge and one resume loop, run by the
  engine over one source and by the serving tier over n data shards.
* :mod:`~repro.knn.depth_first` — Roussopoulos et al.'s depth-first
  branch-and-bound k-NN, the suboptimal comparator of Section 2.
* :mod:`~repro.knn.locality` — locality computation of Sankaranarayanan
  et al. and its size-vs-k staircase profile (Procedure 2's semantics).
* :mod:`~repro.knn.knn_join` — the locality-based block-by-block
  k-NN-Join and a naive per-point join used as a correctness oracle.
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
    locality_block_indices,
    locality_coverage_radii,
    locality_size,
    locality_size_profile,
    locality_sizes,
)
from repro.knn.knn_join import (
    knn_join,
    knn_join_cost,
    naive_knn_join,
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
    "knn_join",
    "knn_join_cost",
    "naive_knn_join",
]
