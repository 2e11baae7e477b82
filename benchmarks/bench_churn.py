"""Churn bench: incremental catalog maintenance vs full rebuilds.

Two identical :class:`~repro.index.mutable_quadtree.MutableQuadtree`
copies of the same dataset replay the *same* moving-hotspot churn
workload (interleaved inserts, deletes, and cost queries) through a
:class:`~repro.estimators.MaintainedStaircaseEstimator` — one refreshing
its leaf catalogs incrementally off the generation-keyed update log, one
forcing a full rebuild every phase.

Two assertions carry the PR's claims:

* the incremental run rebuilds **strictly fewer** leaf catalogs than
  the full-refresh baseline (the reported ``rebuild_ratio``), and
* every served estimate is **bit-for-bit identical** between the two
  runs — incrementality costs zero estimate quality, because catalogs
  outside the mutations' coverage radii are provably unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.estimators import MaintainedStaircaseEstimator
from repro.experiments.common import dataset
from repro.geometry import Rect
from repro.index.mutable_quadtree import MutableQuadtree
from repro.workloads import churn_phases, run_churn


def _testbed(cfg):
    points = dataset(1, cfg.base_n, cfg.seed, cfg.dataset_kind)
    bounds = Rect(
        float(points[:, 0].min()) - 1.0,
        float(points[:, 1].min()) - 1.0,
        float(points[:, 0].max()) + 1.0,
        float(points[:, 1].max()) + 1.0,
    )
    # A deep tree (small leaves) is the regime incremental maintenance
    # targets: each mutation's coverage disc spans a small fraction of
    # the leaves, so locality translates into reuse.  Small max_k keeps
    # the coverage radii tight for the same reason.
    capacity = min(cfg.capacity, 16)
    max_k = min(cfg.max_k, 32)
    phases = churn_phases(
        points,
        bounds,
        phases=4,
        inserts_per_phase=max(60, cfg.base_n // 40),
        deletes_per_phase=max(30, cfg.base_n // 80),
        queries_per_phase=max(20, cfg.n_queries // 4),
        max_k=max_k,
        hotspot_fraction=0.9,
        seed=cfg.seed,
    )
    return points, bounds, capacity, max_k, phases


def _replay(points, bounds, capacity, max_k, phases, mode):
    tree = MutableQuadtree(points, bounds=bounds, capacity=capacity)
    estimator = MaintainedStaircaseEstimator(tree, max_k=max_k)
    return run_churn(tree, estimator, phases, mode=mode)


def test_incremental_maintenance_beats_full_rebuild(benchmark, bench_config):
    cfg = bench_config
    points, bounds, capacity, max_k, phases = _testbed(cfg)

    # The timed operation is the incremental replay; the workload
    # mutates its tree, so each round rebuilds the testbed from scratch.
    incremental = benchmark.pedantic(
        _replay,
        args=(points, bounds, capacity, max_k, phases, "incremental"),
        rounds=1,
        iterations=1,
    )
    full = _replay(points, bounds, capacity, max_k, phases, "full")

    # Equal estimate quality: not approximately — identically.
    assert np.array_equal(incremental.estimates, full.estimates)
    # Strictly less maintenance work at that equal quality.
    assert incremental.catalogs_rebuilt < full.catalogs_rebuilt
    assert full.catalogs_rebuilt == full.catalogs_total

    benchmark.extra_info["incremental_rebuild_ratio"] = round(
        incremental.rebuild_ratio, 4
    )
    benchmark.extra_info["full_rebuild_ratio"] = round(full.rebuild_ratio, 4)
    benchmark.extra_info["catalogs_rebuilt_incremental"] = incremental.catalogs_rebuilt
    benchmark.extra_info["catalogs_rebuilt_full"] = full.catalogs_rebuilt
    benchmark.extra_info["n_mutations"] = incremental.n_mutations
    benchmark.extra_info["n_queries"] = incremental.n_queries
    benchmark.extra_info["maintain_seconds_incremental"] = round(
        incremental.maintain_seconds, 4
    )
    benchmark.extra_info["maintain_seconds_full"] = round(full.maintain_seconds, 4)
