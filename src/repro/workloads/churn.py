"""Sustained-churn workloads: interleaved updates and k-NN queries.

The maintenance vertical needs a workload that looks like live traffic:
batches of inserts concentrated around a *moving hotspot* (plus a
uniform remainder), deletes of existing points, and k-NN-Select cost
queries between the update batches.  :func:`churn_phases` generates such
a workload deterministically from a seed; :func:`run_churn` replays it
against a :class:`~repro.index.mutable_quadtree.MutableQuadtree` and a
Staircase estimator over it, timing catalog maintenance
(``refresh_incremental()``) separately from query serving and
accumulating the rebuilt/reused split of every maintenance pass.

Replayed twice — once with incremental maintenance, once forcing a full
rebuild each phase — the incremental run rebuilds strictly fewer leaf
catalogs while producing identical estimates (the bit-for-bit
equivalence the coverage-radius invariant of
:mod:`repro.estimators.maintenance` guarantees;
``tests/test_maintenance_incremental.py`` asserts it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.geometry import Point, Rect


@dataclass(frozen=True)
class ChurnPhase:
    """One round of a churn workload.

    Attributes:
        inserts: ``(n_i, 2)`` points to insert at the start of the phase.
        deletes: ``(n_d, 2)`` points to delete (all live at phase start).
        queries: ``(n_q, 2)`` k-NN-Select focal points to estimate after
            the updates are applied.
        ks: ``(n_q,)`` per-query k values.
    """

    inserts: np.ndarray
    deletes: np.ndarray
    queries: np.ndarray
    ks: np.ndarray

    @property
    def n_mutations(self) -> int:
        """Updates this phase applies (inserts + deletes)."""
        return int(self.inserts.shape[0] + self.deletes.shape[0])


def churn_phases(
    initial_points: np.ndarray,
    bounds: Rect,
    *,
    phases: int,
    inserts_per_phase: int,
    deletes_per_phase: int,
    queries_per_phase: int,
    max_k: int,
    hotspot_fraction: float = 0.8,
    seed: int = 0,
) -> list[ChurnPhase]:
    """Generate a deterministic moving-hotspot churn workload.

    Each phase inserts ``hotspot_fraction`` of its points as a Gaussian
    cloud around a hotspot that walks across the space (phase ``i``'s
    center rotates around the middle of ``bounds``) and the remainder
    uniformly; deletes draw uniformly from the points live at that
    moment; queries are data-distributed (sampled near live points, as
    real focal points are) with uniform ``k`` in ``[1, max_k]``.

    Args:
        initial_points: ``(n, 2)`` points already loaded in the index.
        bounds: The indexed universe (inserts/queries are clipped into
            it).
        phases: Number of update/query rounds.
        inserts_per_phase: Points inserted per round.
        deletes_per_phase: Points deleted per round (capped at the live
            population so the workload never deletes a missing point).
        queries_per_phase: Cost queries per round.
        max_k: Upper bound of the per-query k values.
        hotspot_fraction: Fraction of inserts drawn from the hotspot
            cloud (the rest are uniform).
        seed: RNG seed — the workload is fully determined by its
            arguments.

    Raises:
        ValueError: On non-positive counts or an invalid fraction.
    """
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    if not 0.0 <= hotspot_fraction <= 1.0:
        raise ValueError(
            f"hotspot_fraction must be in [0, 1], got {hotspot_fraction}"
        )
    rng = np.random.default_rng(seed)
    live = [
        (float(x), float(y))
        for x, y in np.asarray(initial_points, dtype=float).reshape(-1, 2)
    ]
    center_x = (bounds.x_min + bounds.x_max) / 2.0
    center_y = (bounds.y_min + bounds.y_max) / 2.0
    orbit_x = bounds.width * 0.3
    orbit_y = bounds.height * 0.3
    sigma = min(bounds.width, bounds.height) * 0.04
    out: list[ChurnPhase] = []
    for phase in range(phases):
        angle = 2.0 * np.pi * phase / phases
        hot_x = center_x + orbit_x * np.cos(angle)
        hot_y = center_y + orbit_y * np.sin(angle)
        n_hot = int(round(inserts_per_phase * hotspot_fraction))
        hot = np.column_stack(
            [
                rng.normal(hot_x, sigma, n_hot),
                rng.normal(hot_y, sigma, n_hot),
            ]
        )
        uniform = np.column_stack(
            [
                rng.uniform(bounds.x_min, bounds.x_max, inserts_per_phase - n_hot),
                rng.uniform(bounds.y_min, bounds.y_max, inserts_per_phase - n_hot),
            ]
        )
        inserts = np.concatenate([hot, uniform], axis=0)
        inserts[:, 0] = np.clip(inserts[:, 0], bounds.x_min, bounds.x_max)
        inserts[:, 1] = np.clip(inserts[:, 1], bounds.y_min, bounds.y_max)
        live.extend((float(x), float(y)) for x, y in inserts)

        n_del = min(deletes_per_phase, len(live))
        n_hot_del = int(round(n_del * hotspot_fraction))
        live_arr = np.array(live, dtype=float)
        # Hotspot-local deletes: churn removes from where it writes.
        by_distance = np.argsort(
            np.hypot(live_arr[:, 0] - hot_x, live_arr[:, 1] - hot_y),
            kind="stable",
        )
        hot_victims = by_distance[:n_hot_del]
        remaining = by_distance[n_hot_del:]
        cold_victims = rng.choice(
            remaining, size=n_del - n_hot_del, replace=False
        )
        victims = np.concatenate([hot_victims, cold_victims])
        deletes = live_arr[victims].reshape(-1, 2)
        for i in sorted(victims.tolist(), reverse=True):
            live.pop(i)

        anchors = rng.choice(len(live), size=queries_per_phase, replace=True)
        jitter = rng.normal(0.0, sigma, size=(queries_per_phase, 2))
        queries = np.array([live[i] for i in anchors], dtype=float) + jitter
        queries[:, 0] = np.clip(queries[:, 0], bounds.x_min, bounds.x_max)
        queries[:, 1] = np.clip(queries[:, 1], bounds.y_min, bounds.y_max)
        ks = rng.integers(1, max_k + 1, size=queries_per_phase)
        out.append(
            ChurnPhase(
                inserts=inserts,
                deletes=deletes,
                queries=queries,
                ks=ks.astype(np.int64),
            )
        )
    return out


@dataclass(frozen=True)
class ChurnReport:
    """Outcome of replaying a churn workload.

    Attributes:
        mode: ``"incremental"`` or ``"full"`` maintenance.
        phases: Rounds replayed.
        n_queries: Total cost queries served.
        n_mutations: Total updates applied.
        catalogs_total: Leaf catalogs maintained, summed over all
            maintenance passes (the full-rebuild work ceiling).
        catalogs_rebuilt: Leaf catalogs actually rebuilt across passes.
        estimates: ``(n_queries,)`` estimated costs in workload order.
        maintain_seconds: Wall-clock spent in catalog maintenance.
        query_seconds: Wall-clock spent serving estimates.
        generation: The index's data generation after the replay.
    """

    mode: str
    phases: int
    n_queries: int
    n_mutations: int
    catalogs_total: int
    catalogs_rebuilt: int
    estimates: np.ndarray
    maintain_seconds: float
    query_seconds: float
    generation: int

    @property
    def rebuild_ratio(self) -> float:
        """Fraction of maintainable catalogs that were rebuilt."""
        if self.catalogs_total == 0:
            return 0.0
        return self.catalogs_rebuilt / self.catalogs_total

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        return (
            f"{self.mode}: {self.catalogs_rebuilt}/{self.catalogs_total} "
            f"catalogs rebuilt ({self.rebuild_ratio:.1%}) over "
            f"{self.phases} phases, {self.n_mutations} mutations, "
            f"{self.n_queries} queries "
            f"(maintain {self.maintain_seconds:.3f} s, "
            f"serve {self.query_seconds:.3f} s)"
        )


def run_churn(tree, estimator, phases: list[ChurnPhase], *, mode: str = "incremental") -> ChurnReport:
    """Replay a churn workload against an estimator that can refresh.

    Each phase applies its updates to ``tree``, runs one maintenance
    pass on ``estimator``
    (:meth:`~repro.estimators.staircase.StaircaseEstimator.refresh_incremental`,
    with ``full=True`` when ``mode="full"`` — the rebuild-everything
    baseline), then serves the phase's cost queries.

    Args:
        tree: The :class:`~repro.index.mutable_quadtree.MutableQuadtree`
            holding the data.
        estimator: An estimator over ``tree`` exposing
            ``refresh_incremental`` and ``estimate`` (any
            :class:`~repro.estimators.staircase.StaircaseEstimator`).
        phases: The workload (see :func:`churn_phases`).
        mode: ``"incremental"`` or ``"full"``.

    Raises:
        ValueError: On an unknown mode.
    """
    if mode not in ("incremental", "full"):
        raise ValueError(f"mode must be 'incremental' or 'full', got {mode!r}")
    estimates: list[float] = []
    catalogs_total = 0
    catalogs_rebuilt = 0
    n_mutations = 0
    maintain_seconds = 0.0
    query_seconds = 0.0
    for phase in phases:
        for x, y in phase.inserts:
            tree.insert(float(x), float(y))
        for x, y in phase.deletes:
            tree.delete(float(x), float(y))
        n_mutations += phase.n_mutations
        start = time.perf_counter()
        report = estimator.refresh_incremental(full=(mode == "full"))
        maintain_seconds += time.perf_counter() - start
        catalogs_total += report.catalogs_total
        catalogs_rebuilt += report.catalogs_rebuilt
        start = time.perf_counter()
        for (x, y), k in zip(phase.queries, phase.ks):
            estimates.append(estimator.estimate(Point(float(x), float(y)), int(k)))
        query_seconds += time.perf_counter() - start
    return ChurnReport(
        mode=mode,
        phases=len(phases),
        n_queries=len(estimates),
        n_mutations=n_mutations,
        catalogs_total=catalogs_total,
        catalogs_rebuilt=catalogs_rebuilt,
        estimates=np.asarray(estimates, dtype=float),
        maintain_seconds=maintain_seconds,
        query_seconds=query_seconds,
        generation=int(getattr(tree, "data_generation", 0)),
    )
