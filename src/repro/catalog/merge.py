"""Catalog merge operations.

Two merges appear in the paper:

* **Max-merge** (Section 3.2): the four per-corner Staircase catalogs
  are merged into one corners-catalog storing, for each k, the maximum
  cost among the corners.
* **Sum-merge** (Section 4.2.1): the temporary per-block locality
  catalogs of the Catalog-Merge technique are combined with a plane
  sweep over the k ranges, aggregating the cost.

Both are one plane sweep parameterized by the combining operation.  The
paper drives the sweep with a min-heap over the catalogs' next range
ends; its segment boundaries are exactly the sorted unique ``k_end``
values (up to the shortest input's ``max_k``), so here one
``searchsorted`` per catalog replaces the per-segment heap walk.  Costs
are combined with a sequential accumulator over catalogs — the same
left-to-right association as the heap sweep's ``sum``/``max`` — so the
results are bit-for-bit those of the paper's formulation, which lives on
as the oracle in ``tests/reference_builds.py``.  The merged catalog
covers ``[1, min(max_k over inputs)]`` — beyond the shortest input the
aggregate is undefined.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.catalog.intervals import IntervalCatalog


def merge_max(catalogs: Sequence[IntervalCatalog]) -> IntervalCatalog:
    """Pointwise maximum of several catalogs (corners-catalog merge)."""
    return _sweep(catalogs, is_sum=False)


def merge_sum(catalogs: Sequence[IntervalCatalog]) -> IntervalCatalog:
    """Pointwise sum of several catalogs (Catalog-Merge aggregation)."""
    return _sweep(catalogs, is_sum=True)


def _sweep(catalogs: Sequence[IntervalCatalog], is_sum: bool) -> IntervalCatalog:
    """Plane sweep over the catalogs' shared segment boundaries.

    One segment per distinct ``k_end`` value up to ``min(max_k over
    inputs)``; each catalog's cost for the segment ending at boundary
    ``b`` is the cost of its first entry with ``k_end >= b`` — a single
    ``searchsorted`` per catalog.  Combining runs sequentially over
    catalogs (vectorized over k).

    Raises:
        ValueError: If no catalogs are given.
    """
    if not catalogs:
        raise ValueError("cannot merge zero catalogs")
    if len(catalogs) == 1:
        return catalogs[0].coalesced()

    max_k = min(c.max_k for c in catalogs)
    boundaries = np.unique(np.concatenate([c.k_ends for c in catalogs]))
    boundaries = boundaries[boundaries <= max_k]

    combined: np.ndarray | None = None
    for catalog in catalogs:
        costs = catalog.costs[
            np.searchsorted(catalog.k_ends, boundaries, side="left")
        ]
        if combined is None:
            combined = costs.copy()
        elif is_sum:
            combined += costs
        else:
            np.maximum(combined, costs, out=combined)

    # Redundant-entry elimination: equal neighbours coalesce.
    keep = np.ones(boundaries.shape[0], dtype=bool)
    keep[:-1] = combined[:-1] != combined[1:]
    return IntervalCatalog._from_arrays(boundaries[keep], combined[keep])
