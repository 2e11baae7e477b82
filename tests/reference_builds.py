"""The per-anchor catalog builds, kept as the oracle of the production builds.

What ``StaircaseEstimator(dedup=False)`` and ``CatalogMergeEstimator(fast=False)``
used to select inside ``src/``: one Procedure 1 run per anchor with the corners
merged by the paper's min-heap plane sweep, and one Procedure 2 profile per
sampled outer block summed by the same sweep — assembled from the public
paper-faithful pieces.  The equivalence tests compare ``to_store()`` bytes.
"""

from repro.catalog import IntervalCatalog, merge_max, merge_sum
from repro.catalog.store import CatalogStore
from repro.estimators.block_sample import sample_block_indices
from repro.estimators.staircase import build_select_catalog
from repro.index.snapshot import IndexSnapshot, as_snapshot
from repro.knn.locality import locality_size_profile


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
        store.put(f"corners/{i}", merge_max(corners))
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
    store.put("merged", merge_sum(temporaries))
    return store
