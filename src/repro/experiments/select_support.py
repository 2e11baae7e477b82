"""Shared machinery for the k-NN-Select experiments (Figures 4, 11–14).

Estimator construction dominates these experiments' runtime, so built
estimators are cached per (config, scale): Figure 11 (accuracy), 12
(time), 13 (preprocessing) and 14 (storage) all reuse the same builds.
"""

from __future__ import annotations

import functools
from typing import Sequence

from repro.estimators.density import DensityBasedEstimator
from repro.estimators.staircase import StaircaseEstimator
from repro.experiments.common import ExperimentConfig, build_index, build_snapshot
from repro.knn.distance_browsing import select_costs
from repro.workloads.queries import SelectQuery, data_distributed_queries

#: Seed offset distinguishing relation identities in multi-relation
#: experiments; relation r of the schema uses ``config.seed + r``.
RELATION_SEED_STRIDE = 1


@functools.lru_cache(maxsize=16)
def staircase_estimator(
    config: ExperimentConfig,
    scale: int,
    variant: str = "center+corners",
) -> StaircaseEstimator:
    """Build (and cache) a Staircase estimator for one scale factor."""
    index = build_index(scale, config.base_n, config.capacity, config.seed, config.dataset_kind)
    return StaircaseEstimator(index, max_k=config.max_k, variant=variant)


@functools.lru_cache(maxsize=16)
def density_estimator(config: ExperimentConfig, scale: int) -> DensityBasedEstimator:
    """Build (and cache) the density-based estimator for one scale."""
    return DensityBasedEstimator(
        build_snapshot(scale, config.base_n, config.capacity, config.seed, config.dataset_kind)
    )


@functools.lru_cache(maxsize=16)
def select_workload(config: ExperimentConfig, scale: int) -> tuple[SelectQuery, ...]:
    """The random select-query workload of one scale factor.

    Focal points follow the data distribution (location-based services
    issue queries from where the users — the data — are); k is uniform
    in ``[1, max_k]``.
    """
    points = build_index(
        scale, config.base_n, config.capacity, config.seed, config.dataset_kind
    ).all_points()
    return tuple(
        data_distributed_queries(points, config.n_queries, config.max_k, seed=config.seed)
    )


@functools.lru_cache(maxsize=16)
def actual_select_costs(config: ExperimentConfig, scale: int) -> tuple[int, ...]:
    """Ground-truth distance-browsing costs of the scale's workload."""
    index = build_index(scale, config.base_n, config.capacity, config.seed, config.dataset_kind)
    counts = build_snapshot(
        scale, config.base_n, config.capacity, config.seed, config.dataset_kind
    )
    return tuple(exact_costs(counts, index.blocks, select_workload(config, scale)))


def exact_costs(snapshot, blocks, queries: Sequence[SelectQuery]) -> list[int]:
    """The queries' exact distance-browsing costs, in one batched browse."""
    points = [(q.query.x, q.query.y) for q in queries]
    return select_costs(snapshot, blocks, points, [q.k for q in queries]).tolist()


def clear_caches() -> None:
    """Drop cached estimators and workloads (bounds test memory)."""
    staircase_estimator.cache_clear()
    density_estimator.cache_clear()
    select_workload.cache_clear()
    actual_select_costs.cache_clear()
