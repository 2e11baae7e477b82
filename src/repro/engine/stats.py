"""The statistics manager: catalogs and estimators per relation.

A query optimizer "keeps a set of catalog information that summarizes
the cost estimates" (Section 2).  The statistics manager owns exactly
that state for the engine:

* per table — the Count-Index and a lazily built
  :class:`~repro.estimators.staircase.StaircaseEstimator`;
* per ordered table pair — a lazily built
  :class:`~repro.estimators.catalog_merge.CatalogMergeEstimator`
  (or, when configured for linear storage, one per-inner
  :class:`~repro.estimators.virtual_grid.VirtualGridEstimator` shared
  across outers — the Section 4.3 trade-off is a configuration switch
  here);
* per (table, predicate) — sampled selectivities.

Everything is built on demand and cached, mirroring how a DBMS
materializes statistics on first use.

The manager also owns the engine's *resilience policy*: planning goes
through per-relation fallback chains
(:meth:`StatisticsManager.select_estimator_for_planning`) that degrade
Staircase → Density → Uniform-Model (and configured join technique →
the other technique → Block-Sample) instead of failing, and catalogs
built over a mutated index are rebuilt or rejected per
``staleness_policy``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Literal

import numpy as np

from repro.catalog import CatalogStore
from repro.engine.expressions import Predicate
from repro.engine.table import SpatialTable
from repro.estimators.base import JoinCostEstimator, SelectCostEstimator
from repro.estimators.block_sample import BlockSampleEstimator
from repro.estimators.catalog_merge import CatalogMergeEstimator
from repro.estimators.density import DensityBasedEstimator
from repro.estimators.staircase import StaircaseEstimator
from repro.estimators.uniform_model import UniformModelEstimator
from repro.estimators.virtual_grid import VirtualGridEstimator
from repro.geometry import Point, Rect
from repro.index.snapshot import IndexSnapshot
from repro.optimizer.selection import normalize_pins
from repro.perf import resolve_workers
from repro.resilience.errors import StaleCatalogError
from repro.resilience.fallback import (
    FallbackBatchOutcome,
    FallbackJoinEstimator,
    FallbackSelectEstimator,
    select_costs,
)

JoinTechnique = Literal["catalog-merge", "virtual-grid"]
StalenessPolicy = Literal["rebuild", "raise"]


class _ManagedSelectTier(SelectCostEstimator):
    """A chain tier that re-resolves its estimator through the manager.

    The fallback chain caches tier instances, but the manager's
    staleness policy must apply on *every* call (a catalog can go stale
    between two estimates).  Routing each call through the manager
    accessor keeps the rebuild/raise decision in one place.
    """

    def __init__(self, get_estimator: Callable[[], SelectCostEstimator]) -> None:
        self._get = get_estimator

    def estimate(self, query: Point, k: int) -> float:
        return self._get().estimate(query, k)

    def estimate_batch(self, queries, ks):
        # Delegate so the batch stays on the resolved estimator's
        # vectorized path (the ABC default would fall back to a scalar
        # loop through this proxy).
        return self._get().estimate_batch(queries, ks)

    def storage_bytes(self) -> int:
        # The underlying estimator is owned (and its storage counted)
        # by the manager, not by the chain.
        return 0

    @property
    def preprocessing_stats(self):
        """The managed estimator's build instrumentation.

        Resolution can itself fail (stale catalogs under the ``raise``
        policy, an index the estimator refuses) — the chain has already
        degraded past this tier by then, so provenance collection must
        not resurrect the error.
        """
        try:
            estimator = self._get()
        except Exception:
            return None
        return getattr(estimator, "preprocessing_stats", None)


class StatisticsManager:
    """Owns per-table and per-pair estimation state.

    Args:
        max_k: Catalog limit for all built catalogs.
        join_technique: ``"catalog-merge"`` (quadratic catalogs, highest
            accuracy) or ``"virtual-grid"`` (linear catalogs).
        join_sample_size: Sample size for Catalog-Merge preprocessing.
        grid_size: Virtual-grid resolution.
        world_bounds: Fixed universe for virtual grids (must cover every
            relation).
        fallback: Whether planning uses the degrading fallback chains
            (the default) or the raw primary estimators, whose failures
            then propagate (``--strict`` semantics).
        strict: Treat suspicious-but-answerable queries (``k`` larger
            than the relation, far-outside focal points, zero-area
            regions) as errors instead of planning notes.
        staleness_policy: What to do when a cached Staircase catalog is
            found stale — ``"rebuild"`` (drop and rebuild transparently)
            or ``"raise"`` (surface :class:`StaleCatalogError`; the
            fallback chain then degrades to the catalog-free tiers).
        workers: Worker processes for catalog preprocessing fan-out
            (``None``/0/1 builds in-process); threaded through to every
            estimator the manager constructs.
        pinned_operators: Forced per-table/per-kind operator choices —
            ``{"table:kind" | "kind" | (table, kind): operator}`` — that
            :func:`~repro.optimizer.selection.arbitrate` applies ahead of
            the cost comparison.  The one place pins are set: plain
            picklable data, so sharded serving ships them to worker
            processes via ``manager_kwargs``.

    Raises:
        ValueError: On an unknown join technique or staleness policy, a
            ``max_k`` below 1, a negative worker count, or an invalid
            pin — all checked here, before anything plans.
    """

    def __init__(
        self,
        max_k: int = 1_024,
        join_technique: JoinTechnique = "catalog-merge",
        join_sample_size: int = 400,
        grid_size: int = 10,
        world_bounds: Rect | None = None,
        fallback: bool = True,
        strict: bool = False,
        staleness_policy: StalenessPolicy = "rebuild",
        workers: int | None = None,
        pinned_operators: dict | None = None,
    ) -> None:
        if join_technique not in ("catalog-merge", "virtual-grid"):
            raise ValueError(f"unknown join technique {join_technique!r}")
        if staleness_policy not in ("rebuild", "raise"):
            raise ValueError(f"unknown staleness policy {staleness_policy!r}")
        if max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        self.workers = resolve_workers(workers)
        self.max_k = max_k
        self.join_technique: JoinTechnique = join_technique
        self.join_sample_size = join_sample_size
        self.grid_size = grid_size
        self.world_bounds = world_bounds
        self.fallback = fallback
        self.strict = strict
        self.staleness_policy: StalenessPolicy = staleness_policy
        self.pinned_operators = normalize_pins(pinned_operators)
        self._tables: dict[str, SpatialTable] = {}
        self._snapshots: dict[str, IndexSnapshot] = {}
        self._select_estimators: dict[str, StaircaseEstimator] = {}
        self._density_estimators: dict[str, DensityBasedEstimator] = {}
        self._pair_estimators: dict[tuple[str, str], JoinCostEstimator] = {}
        self._grid_estimators: dict[str, VirtualGridEstimator] = {}
        self._selectivities: dict[tuple[str, str], float] = {}
        self._resilient_selects: dict[str, FallbackSelectEstimator] = {}
        self._resilient_joins: dict[tuple[str, str], FallbackJoinEstimator] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, table: SpatialTable) -> None:
        """Register a relation (replacing drops its cached statistics)."""
        self._tables[table.name] = table
        self._snapshots.pop(table.name, None)
        self._select_estimators.pop(table.name, None)
        self._density_estimators.pop(table.name, None)
        self._grid_estimators.pop(table.name, None)
        self._resilient_selects.pop(table.name, None)
        self._pair_estimators = {
            pair: est
            for pair, est in self._pair_estimators.items()
            if table.name not in pair
        }
        self._resilient_joins = {
            pair: est
            for pair, est in self._resilient_joins.items()
            if table.name not in pair
        }
        self._selectivities = {
            key: value
            for key, value in self._selectivities.items()
            if key[0] != table.name
        }

    def table(self, name: str) -> SpatialTable:
        """Look up a registered relation.

        Raises:
            KeyError: For unknown names.
        """
        if name not in self._tables:
            raise KeyError(
                f"unknown table {name!r}; registered: {sorted(self._tables)}"
            )
        return self._tables[name]

    @property
    def table_names(self) -> tuple[str, ...]:
        """Names of all registered relations."""
        return tuple(self._tables)

    # ------------------------------------------------------------------
    # Snapshot cache: one block-summary gather shared by every estimator
    # ------------------------------------------------------------------
    def snapshot(self, name: str, *, on_stale: StalenessPolicy | None = None) -> IndexSnapshot:
        """The relation's cached :class:`IndexSnapshot` (one per table).

        Every estimator the manager builds consumes this summary, so the
        per-leaf gather happens once per table per data generation.  A
        cached snapshot whose ``data_generation`` no longer matches the
        table's index is stale and handled per ``staleness_policy``.

        Args:
            name: Registered table name.
            on_stale: Per-call staleness override.  The catalog-free
                tiers (density, block-sample) pass ``"rebuild"`` so a
                mutated index degrades to a re-gather instead of an
                error, even under the global ``"raise"`` policy.

        Raises:
            KeyError: For unknown table names.
            StaleCatalogError: Under the ``"raise"`` policy when the
                cached snapshot is stale.
        """
        table = self.table(name)
        current = int(getattr(table.index, "data_generation", 0))
        cached = self._snapshots.get(name)
        if cached is not None and cached.data_generation != current:
            policy = on_stale or self.staleness_policy
            if policy == "raise":
                raise StaleCatalogError(
                    f"snapshot of table {name!r} was gathered at data "
                    f"generation {cached.data_generation}; the index is now "
                    f"at {current} (policy: raise)"
                )
            del self._snapshots[name]
            cached = None
        if cached is None:
            cached = IndexSnapshot.from_index(table.index)
            self._snapshots[name] = cached
        return cached

    # ------------------------------------------------------------------
    # Estimators (lazy, cached)
    # ------------------------------------------------------------------
    def select_estimator(self, name: str) -> StaircaseEstimator:
        """The Staircase estimator of a relation (built on first use).

        A cached estimator whose catalogs have gone stale (the table's
        index mutated since the build) is rebuilt transparently under
        the default ``staleness_policy="rebuild"``.

        Raises:
            StaleCatalogError: Under ``staleness_policy="raise"`` when
                the cached catalogs are stale.
        """
        cached = self._select_estimators.get(name)
        if cached is not None and cached.is_stale:
            if self.staleness_policy == "raise":
                raise StaleCatalogError(
                    f"catalogs of table {name!r} were built at data "
                    f"generation {cached.built_at_generation}; the index "
                    f"has since mutated (policy: raise)"
                )
            del self._select_estimators[name]
        if name not in self._select_estimators:
            table = self.table(name)
            self._select_estimators[name] = StaircaseEstimator(
                table.index,
                max_k=self.max_k,
                workers=self.workers,
                snapshot=self.snapshot(name),
            )
        return self._select_estimators[name]

    def density_estimator(self, name: str) -> DensityBasedEstimator:
        """The density-based (no-preprocessing) estimator of a relation."""
        if name not in self._density_estimators:
            snapshot = self.snapshot(name, on_stale="rebuild")
            if snapshot.n_blocks == 0:
                raise ValueError(f"table {name!r} is empty")
            self._density_estimators[name] = DensityBasedEstimator(snapshot)
        return self._density_estimators[name]

    def join_estimator(self, outer: str, inner: str) -> JoinCostEstimator:
        """The join-cost estimator of an ordered relation pair."""
        pair = (outer, inner)
        if pair not in self._pair_estimators:
            self._pair_estimators[pair] = self._build_join_estimator(
                outer, inner, self.join_technique
            )
        return self._pair_estimators[pair]

    def _build_join_estimator(
        self, outer: str, inner: str, technique: JoinTechnique
    ) -> JoinCostEstimator:
        """Build a join estimator with an explicit technique choice.

        The fallback chain needs the *other* technique as its secondary
        tier regardless of which one is configured as primary.
        """
        self.table(outer)
        self.table(inner)
        if technique == "catalog-merge":
            return CatalogMergeEstimator(
                self.snapshot(outer),
                self.snapshot(inner),
                sample_size=self.join_sample_size,
                max_k=self.max_k,
                workers=self.workers,
            )
        return self._virtual_grid(inner).for_outer(self.snapshot(outer))

    # ------------------------------------------------------------------
    # Resilient estimators: what the planner actually talks to
    # ------------------------------------------------------------------
    def resilient_select_estimator(self, name: str) -> FallbackSelectEstimator:
        """The relation's select fallback chain (built on first use).

        Tiers, in degradation order: Staircase (catalog-backed, routed
        through :meth:`select_estimator` so the staleness policy applies
        per call) → Density (Count-Index only) → Uniform-Model (four
        scalars) → the full-scan block count as the guaranteed bound.

        Raises:
            KeyError: For unknown table names.
        """
        if name not in self._resilient_selects:
            self.table(name)  # unknown names fail fast, as KeyError
            self._resilient_selects[name] = FallbackSelectEstimator(
                tiers=[
                    (
                        "staircase",
                        lambda: _ManagedSelectTier(
                            lambda: self.select_estimator(name)
                        ),
                    ),
                    ("density", lambda: self.density_estimator(name)),
                    (
                        "uniform-model",
                        lambda: UniformModelEstimator(self.table(name).snapshot),
                    ),
                ],
                guaranteed_bound=lambda: float(self.table(name).index.num_blocks),
            )
        return self._resilient_selects[name]

    def resilient_join_estimator(self, outer: str, inner: str) -> FallbackJoinEstimator:
        """The pair's join fallback chain (built on first use).

        Tiers: the configured technique → the other catalog technique →
        Block-Sample (no catalogs, query-time sampling) → the all-pairs
        block product as the guaranteed bound.

        Raises:
            KeyError: For unknown table names.
        """
        pair = (outer, inner)
        if pair not in self._resilient_joins:
            self.table(outer)
            self.table(inner)
            primary: JoinTechnique = self.join_technique
            secondary: JoinTechnique = (
                "virtual-grid" if primary == "catalog-merge" else "catalog-merge"
            )
            self._resilient_joins[pair] = FallbackJoinEstimator(
                tiers=[
                    (primary, lambda: self.join_estimator(outer, inner)),
                    (
                        secondary,
                        lambda: self._build_join_estimator(outer, inner, secondary),
                    ),
                    (
                        "block-sample",
                        lambda: BlockSampleEstimator(
                            self.snapshot(outer, on_stale="rebuild"),
                            self.snapshot(inner, on_stale="rebuild"),
                            sample_size=self.join_sample_size,
                        ),
                    ),
                ],
                guaranteed_bound=lambda: float(
                    self.table(outer).index.num_blocks
                    * self.table(inner).index.num_blocks
                ),
            )
        return self._resilient_joins[pair]

    def select_estimator_for_planning(self, name: str) -> SelectCostEstimator:
        """What the planner costs selects with (chain, or raw if disabled)."""
        if self.fallback:
            return self.resilient_select_estimator(name)
        return self.select_estimator(name)

    # ------------------------------------------------------------------
    # The planner's select-cost entry points
    # ------------------------------------------------------------------
    def estimate_select_costs_batch(
        self,
        name: str,
        estimator: SelectCostEstimator,
        pts: np.ndarray,
        ks: np.ndarray,
    ) -> tuple[np.ndarray, FallbackBatchOutcome]:
        """Estimate one table's select costs: one chain walk (or raw batch call).

        ``name`` (the estimator's table) stays in the signature for
        callers; the estimate reads only ``estimator``.

        Returns:
            ``(costs, provenance)`` — ``provenance`` is a
            :class:`~repro.resilience.fallback.FallbackBatchOutcome`
            over the whole batch: per query the tier that answered
            (``""`` for a raw estimator) and whether it degraded, with
            the attempts of the one chain walk.
        """
        return select_costs(estimator, pts, ks)

    def join_estimator_for_planning(self, outer: str, inner: str) -> JoinCostEstimator:
        """What the planner costs joins with (chain, or raw if disabled)."""
        if self.fallback:
            return self.resilient_join_estimator(outer, inner)
        return self.join_estimator(outer, inner)

    def _virtual_grid(self, inner: str) -> VirtualGridEstimator:
        """One shared grid catalog set per inner relation."""
        if inner not in self._grid_estimators:
            inner_table = self.table(inner)
            bounds = self.world_bounds or inner_table.index.bounds
            self._grid_estimators[inner] = VirtualGridEstimator(
                self.snapshot(inner),
                bounds=bounds,
                grid_size=self.grid_size,
                max_k=self.max_k,
                workers=self.workers,
            )
        return self._grid_estimators[inner]

    # ------------------------------------------------------------------
    # Selectivities
    # ------------------------------------------------------------------
    def predicate_selectivity(self, name: str, predicate: Predicate | None) -> float:
        """Sampled selectivity of ``predicate`` on relation ``name``."""
        if predicate is None:
            return 1.0
        key = (name, repr(predicate))
        if key not in self._selectivities:
            self._selectivities[key] = predicate.estimate_selectivity(self.table(name))
        return self._selectivities[key]

    def region_selectivity(self, name: str, region: Rect | None) -> float:
        """Estimated fraction of rows inside ``region`` (1.0 when None).

        Clamped away from zero — the optimizer divides by it.
        """
        if region is None:
            return 1.0
        table = self.table(name)
        if table.n_rows == 0:
            return 1.0
        selectivity = table.snapshot.estimate_range_selectivity(region)
        return max(selectivity, 1.0 / table.n_rows)

    # ------------------------------------------------------------------
    # Persistence: build catalogs offline once, load at engine startup.
    # ------------------------------------------------------------------
    def save_select_catalogs(self, directory: str | Path) -> list[str]:
        """Persist every built Staircase estimator; returns saved names."""
        directory = Path(directory)
        saved = []
        for name, estimator in self._select_estimators.items():
            estimator.to_store().save(directory / f"{name}.staircase.bin")
            saved.append(name)
        return saved

    def load_select_catalogs(self, directory: str | Path) -> list[str]:
        """Load persisted Staircase catalogs for registered tables.

        Tables without a matching file (or whose index no longer
        matches the stored catalogs) are skipped and will be rebuilt
        lazily; returns the names actually loaded.
        """
        directory = Path(directory)
        loaded = []
        for name in self._tables:
            path = directory / f"{name}.staircase.bin"
            if not path.exists():
                continue
            try:
                store = CatalogStore.load(path)
                self._select_estimators[name] = StaircaseEstimator.from_store(
                    self._tables[name].index, store
                )
                loaded.append(name)
            except (ValueError, StaleCatalogError):
                # Corrupt bytes (CatalogCorruptError is a ValueError) or
                # a store built at an older data generation: skip it and
                # rebuild lazily on next use.
                continue
        return loaded

    def total_catalog_bytes(self) -> int:
        """Storage of every catalog built so far (monitoring hook)."""
        total = sum(e.storage_bytes() for e in self._select_estimators.values())
        total += sum(e.storage_bytes() for e in self._grid_estimators.values())
        total += sum(
            e.storage_bytes()
            for pair, e in self._pair_estimators.items()
            if self.join_technique == "catalog-merge"
        )
        return total
