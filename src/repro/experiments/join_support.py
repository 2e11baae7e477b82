"""Shared machinery for the k-NN-Join experiments (Figures 7, 15–23).

A schema of ``n_relations`` relations is modelled by datasets generated
from consecutive seeds (relation ``r`` uses ``config.seed + r``).  The
canonical join pair of the pairwise experiments is relation 0 (outer)
joined with relation 1 (inner), both at the experiment's scale factor.
"""

from __future__ import annotations

import functools

from repro.estimators.block_sample import BlockSampleEstimator
from repro.estimators.catalog_merge import CatalogMergeEstimator
from repro.estimators.virtual_grid import VirtualGridEstimator
from repro.datasets import WORLD_BOUNDS
from repro.experiments.common import ExperimentConfig, build_index, build_snapshot
from repro.index.snapshot import IndexSnapshot
from repro.index.quadtree import Quadtree
from repro.knn.locality import knn_join_cost


def relation_index(config: ExperimentConfig, scale: int, relation: int) -> Quadtree:
    """The quadtree of relation ``relation`` at a scale factor.

    Relations share the urban structure (``structure_seed``) but draw
    independent points — co-distributed entity types, like hotels and
    restaurants over one street network.
    """
    return build_index(
        scale,
        config.base_n,
        config.capacity,
        config.seed + relation,
        config.dataset_kind,
        structure_seed=config.seed,
    )


def relation_counts(config: ExperimentConfig, scale: int, relation: int) -> IndexSnapshot:
    """The block summary (Count-Index) of relation ``relation`` at a scale factor."""
    return build_snapshot(
        scale,
        config.base_n,
        config.capacity,
        config.seed + relation,
        config.dataset_kind,
        structure_seed=config.seed,
    )


@functools.lru_cache(maxsize=64)
def actual_join_cost(config: ExperimentConfig, scale: int, k: int) -> int:
    """Ground-truth locality-join cost of the canonical pair at ``k``."""
    return knn_join_cost(relation_index(config, scale, 0), relation_counts(config, scale, 1), k)


@functools.lru_cache(maxsize=32)
def block_sample_estimator(
    config: ExperimentConfig, scale: int, sample_size: int
) -> BlockSampleEstimator:
    """Block-Sample estimator of the canonical pair."""
    return BlockSampleEstimator(
        relation_index(config, scale, 0),
        relation_counts(config, scale, 1),
        sample_size=sample_size,
    )


@functools.lru_cache(maxsize=32)
def catalog_merge_estimator(
    config: ExperimentConfig, scale: int, sample_size: int
) -> CatalogMergeEstimator:
    """Catalog-Merge estimator of the canonical pair."""
    return CatalogMergeEstimator(
        relation_index(config, scale, 0),
        relation_counts(config, scale, 1),
        sample_size=sample_size,
        max_k=config.max_k,
    )


@functools.lru_cache(maxsize=32)
def virtual_grid_estimator(
    config: ExperimentConfig, scale: int, grid_size: int
) -> VirtualGridEstimator:
    """Virtual-Grid catalogs of the canonical inner relation."""
    return VirtualGridEstimator(
        relation_counts(config, scale, 1),
        bounds=WORLD_BOUNDS,
        grid_size=grid_size,
        max_k=config.max_k,
    )


@functools.lru_cache(maxsize=16)
def schema_catalog_totals(
    config: ExperimentConfig, scale: int
) -> tuple[int, float, int, float, int, int]:
    """Schema-level catalog totals backing Figures 20–21.

    For an ``n_relations``-table schema at one scale factor, build the
    Catalog-Merge catalog of every ordered relation pair
    (``2 * C(n, 2)`` catalogs) and the Virtual-Grid catalogs of every
    relation (``n`` catalog sets), and total their footprints.

    Returns:
        ``(cm_bytes, cm_seconds, vg_bytes, vg_seconds, n_pair_catalogs,
        n_grid_catalogs)``.
    """
    n = config.n_relations
    cm_bytes = 0
    cm_seconds = 0.0
    n_pairs = 0
    for outer_rel in range(n):
        for inner_rel in range(n):
            if outer_rel == inner_rel:
                continue
            estimator = CatalogMergeEstimator(
                relation_index(config, scale, outer_rel),
                relation_counts(config, scale, inner_rel),
                sample_size=config.schema_sample_size,
                max_k=config.max_k,
            )
            cm_bytes += estimator.storage_bytes()
            cm_seconds += estimator.preprocessing_seconds
            n_pairs += 1
    vg_bytes = 0
    vg_seconds = 0.0
    for rel in range(n):
        grid = VirtualGridEstimator(
            relation_counts(config, scale, rel),
            bounds=WORLD_BOUNDS,
            grid_size=config.join_grid_size,
            max_k=config.max_k,
        )
        vg_bytes += grid.storage_bytes()
        vg_seconds += grid.preprocessing_seconds
    return (cm_bytes, cm_seconds, vg_bytes, vg_seconds, n_pairs, n)


def clear_caches() -> None:
    """Drop cached estimators and ground truths (bounds test memory)."""
    actual_join_cost.cache_clear()
    block_sample_estimator.cache_clear()
    catalog_merge_estimator.cache_clear()
    virtual_grid_estimator.cache_clear()
    schema_catalog_totals.cache_clear()
