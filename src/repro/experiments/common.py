"""Shared experiment infrastructure: configs, testbed caching, tables.

The paper's testbed: OpenStreetMap data inserted at scale factors 1..10
(10M..100M points), region quadtree with leaf capacity 10,000, catalogs
limited to k = 10,000, 100,000 random queries.  The reproduction scales
every knob down together (DESIGN.md §2) so that the *block counts* —
the unit all costs are measured in — stay comparable; three profiles
trade fidelity for runtime.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.datasets import scale_factor_points
from repro.index.snapshot import IndexSnapshot
from repro.index.quadtree import Quadtree


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    Attributes:
        base_n: Points per unit of scale factor (paper: 10M).
        capacity: Quadtree leaf capacity (paper: 10,000).
        max_k: Catalog limit (paper: 10,000).
        n_queries: Select queries per accuracy experiment (paper: 100k).
        scales: Scale factors exercised by vs-scale experiments.
        sample_sizes: Outer-block sample sizes for Figures 15, 18, 22, 23.
        grid_sizes: Virtual-grid sizes (cells per axis) for Figures 16,
            19, 22, 23.
        n_relations: Relation count of the schema-level storage
            experiments, Figures 20–21 (paper: 10 indexes).
        join_sample_size: Fixed sample size where the paper fixes 1000.
        join_grid_size: Fixed grid size where the paper fixes 10x10.
        schema_sample_size: Catalog-Merge sample size in the schema-level
            storage/preprocessing experiments (Figures 20-21), where
            2 * C(n_relations, 2) catalogs are built per scale; the
            ``full`` profile restores the paper's 1000.
        join_k_values: Random k values averaged over by join-accuracy
            experiments (quartile midpoints of the uniform [1, max_k]
            distribution the paper draws its random k from).
        seed: Workload seed.
        dataset_kind: Synthetic generator family ("osm", "uniform",
            "skewed").
    """

    base_n: int = 20_000
    capacity: int = 128
    max_k: int = 512
    n_queries: int = 400
    scales: tuple[int, ...] = tuple(range(1, 11))
    sample_sizes: tuple[int, ...] = (50, 100, 150, 200, 250, 300, 350, 400, 450, 500)
    grid_sizes: tuple[int, ...] = (4, 8, 12, 16, 20)
    n_relations: int = 10
    join_sample_size: int = 1_000
    join_grid_size: int = 10
    schema_sample_size: int = 300
    join_k_values: tuple[int, ...] = (64, 192, 320, 448)
    seed: int = 7
    dataset_kind: str = "osm"

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


PROFILES: dict[str, ExperimentConfig] = {
    "quick": ExperimentConfig(
        base_n=2_000,
        capacity=64,
        max_k=128,
        n_queries=60,
        scales=(1, 2, 3),
        sample_sizes=(10, 25, 50),
        grid_sizes=(2, 4, 8),
        n_relations=3,
        join_sample_size=50,
        join_grid_size=4,
        schema_sample_size=25,
        join_k_values=(16, 48, 80, 112),
    ),
    "default": ExperimentConfig(),
    "full": ExperimentConfig(
        base_n=50_000,
        max_k=2_048,
        n_queries=2_000,
        schema_sample_size=1_000,
        join_k_values=(256, 768, 1_280, 1_792),
    ),
}


def get_config(profile: str = "default", **overrides) -> ExperimentConfig:
    """Look up a profile, optionally overriding individual fields.

    Raises:
        KeyError: If the profile name is unknown.
    """
    if profile not in PROFILES:
        raise KeyError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    config = PROFILES[profile]
    return config.with_overrides(**overrides) if overrides else config


# ----------------------------------------------------------------------
# Testbed caching: datasets and indexes are deterministic functions of
# their parameters, so experiments sharing a scale reuse one build.
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=32)
def dataset(
    scale: int,
    base_n: int,
    seed: int,
    kind: str = "osm",
    structure_seed: int | None = None,
) -> np.ndarray:
    """Materialize (and cache) the scaled dataset."""
    return scale_factor_points(
        scale, base_n=base_n, seed=seed, kind=kind, structure_seed=structure_seed
    )


@functools.lru_cache(maxsize=32)
def build_index(
    scale: int,
    base_n: int,
    capacity: int,
    seed: int,
    kind: str = "osm",
    structure_seed: int | None = None,
) -> Quadtree:
    """Build (and cache) the quadtree of one scale factor.

    Distinct relations of a schema are modelled by distinct point seeds
    over a shared ``structure_seed`` (co-distributed entity types, like
    the paper's pair of OpenStreetMap indexes).
    """
    return Quadtree(
        dataset(scale, base_n, seed, kind, structure_seed), capacity=capacity
    )


@functools.lru_cache(maxsize=32)
def build_snapshot(
    scale: int,
    base_n: int,
    capacity: int,
    seed: int,
    kind: str = "osm",
    structure_seed: int | None = None,
) -> IndexSnapshot:
    """Build (and cache) the block summary (Count-Index) of one scale factor."""
    return IndexSnapshot.from_index(
        build_index(scale, base_n, capacity, seed, kind, structure_seed)
    )


def clear_caches() -> None:
    """Drop all cached testbeds (used by tests to bound memory)."""
    dataset.cache_clear()
    build_index.cache_clear()
    build_snapshot.cache_clear()


# ----------------------------------------------------------------------
# Result tables
# ----------------------------------------------------------------------
@dataclass
class ExperimentResult:
    """A printable table of an experiment's series.

    Attributes:
        name: Experiment identifier (e.g. ``"fig11"``).
        title: Human-readable title matching the paper's caption.
        columns: Column headers.
        rows: Row tuples aligned with ``columns``.
        notes: Free-form annotations (paper-expected shape, caveats).
    """

    name: str
    title: str
    columns: Sequence[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        """Append one row; must match the column count."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but table has {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        """Extract one column by header name."""
        idx = list(self.columns).index(name)
        return [row[idx] for row in self.rows]

    def format_table(self) -> str:
        """Render an aligned, plain-text table."""
        headers = [str(c) for c in self.columns]
        body = [[_format_cell(v) for v in row] for row in self.rows]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            f"{self.name}: {self.title}",
            "  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
            "  " + "  ".join("-" * w for w in widths),
        ]
        for r in body:
            lines.append("  " + "  ".join(v.rjust(w) for v, w in zip(r, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format_table()


def _format_cell(value) -> str:
    """Format a table cell: compact floats, plain ints/strings."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e4 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
