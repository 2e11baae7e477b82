"""The per-anchor catalog builds, kept as the oracle of the production builds.

What ``StaircaseEstimator(dedup=False)`` and ``CatalogMergeEstimator(fast=False)``
used to select inside ``src/``: one Procedure 1 run per anchor with the corners
merged by the paper's min-heap plane sweep, and one Procedure 2 profile per
sampled outer block summed by the same sweep — assembled from the public
paper-faithful pieces.  The equivalence tests compare ``to_store()`` bytes.

The heap sweep itself (:func:`plane_sweep`) is the oracle of
``repro.catalog.merge``'s vectorized ``merge_max`` / ``merge_sum``.
"""

import heapq
from typing import Callable, Sequence

import numpy as np

from repro.catalog import IntervalCatalog
from repro.catalog.store import CatalogStore
from repro.estimators.block_sample import sample_block_indices
from repro.estimators.staircase import build_select_catalog
from repro.index.snapshot import IndexSnapshot, as_snapshot
from repro.knn.locality import locality_size_profile


def plane_sweep(
    catalogs: Sequence[IntervalCatalog],
    combine: Callable[[list[float]], float],
) -> IntervalCatalog:
    """Sweep the k ranges of all catalogs, combining costs per segment.

    The heap holds ``(next_boundary_k_end, catalog_idx)`` frontiers; at
    each step the sweep advances to the smallest upper boundary among
    the catalogs' current entries and emits one merged range, mirroring
    the paper's Figure 8 walk-through ("a min-heap is used to
    efficiently determine the next smallest value across all the
    temporary catalogs").
    """
    if not catalogs:
        raise ValueError("cannot merge zero catalogs")
    if len(catalogs) == 1:
        return catalogs[0].coalesced()

    max_k = min(c.max_k for c in catalogs)
    # Current entry index per catalog, plus a heap of upcoming range ends.
    positions = [0] * len(catalogs)
    heap: list[tuple[int, int]] = [(int(c.k_ends[0]), i) for i, c in enumerate(catalogs)]
    heapq.heapify(heap)

    entries: list[tuple[int, int, float]] = []
    k_start = 1
    while k_start <= max_k:
        current = combine([float(c.costs[positions[i]]) for i, c in enumerate(catalogs)])
        # The merged range extends to the nearest boundary of any input.
        boundary, __ = heap[0]
        k_end = min(boundary, max_k)
        if entries and entries[-1][2] == current:
            prev_start, __, __ = entries[-1]
            entries[-1] = (prev_start, k_end, current)
        else:
            entries.append((k_start, k_end, current))
        k_start = k_end + 1
        # Advance every catalog whose current range ends at the boundary.
        while heap and heap[0][0] < k_start:
            __, idx = heapq.heappop(heap)
            positions[idx] += 1
            if positions[idx] < catalogs[idx].n_entries:
                heapq.heappush(heap, (int(catalogs[idx].k_ends[positions[idx]]), idx))
    return IntervalCatalog(entries)


def evaluate_dense(catalog: IntervalCatalog) -> np.ndarray:
    """Expand a catalog into a dense cost array indexed by ``k - 1``.

    Dense expansion makes merge semantics trivially checkable against
    numpy reductions.
    """
    dense = np.empty(catalog.max_k, dtype=float)
    for k_start, k_end, cost in catalog.entries():
        dense[k_start - 1 : k_end] = cost
    return dense


def staircase_store(index, max_k: int, variant: str = "center+corners") -> CatalogStore:
    """``StaircaseEstimator(index, max_k=max_k, variant=variant).to_store()``, per leaf."""
    snapshot, blocks, leaves = IndexSnapshot.from_index(index), index.blocks, index.leaves
    store = CatalogStore(
        {"technique": "staircase", "variant": variant, "max_k": str(max_k),
         "n_leaves": str(len(leaves)), "data_generation": str(snapshot.data_generation)}
    )
    for i, leaf in enumerate(leaves):
        store.put(f"center/{i}", build_select_catalog(snapshot, blocks, leaf.rect.center, max_k))
    for i, leaf in enumerate(leaves if variant == "center+corners" else ()):
        corners = [build_select_catalog(snapshot, blocks, c, max_k) for c in leaf.rect.corners()]
        store.put(f"corners/{i}", plane_sweep(corners, max))
    return store


def catalog_merge_store(outer, inner, sample_size: int, max_k: int) -> CatalogStore:
    """``CatalogMergeEstimator(outer, inner, sample_size, max_k).to_store()``, per block."""
    outer_snap, inner_snap = as_snapshot(outer).canonical(), as_snapshot(inner).canonical()
    sample = sample_block_indices(outer_snap.n_blocks, sample_size)
    temporaries = [
        IntervalCatalog.from_profile(
            locality_size_profile(inner_snap, rect, max_k), max_k=max_k
        ).truncated(max_k)
        for rect in outer_snap.rects[sample]
    ]
    store = CatalogStore(
        {"technique": "catalog-merge", "scale": repr(outer_snap.n_blocks / sample.shape[0]),
         "sample_size": str(sample.shape[0])}
    )
    store.put("merged", plane_sweep(temporaries, sum))
    return store
