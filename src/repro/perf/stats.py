"""Preprocessing instrumentation: counters and phase timers.

The paper's catalog techniques trade heavy offline preprocessing for
cheap lookups (Figures 13, 21–23), which makes the preprocessing phase
the one place where engineering wins compound: anchor deduplication,
batched distance gathering, and worker fan-out all change the *shape*
of the build without changing its output.  ``PreprocessingStats`` is
the ledger those optimizations report into — how many catalog anchors
existed, how many were geometrically deduplicated, how many profiles
were actually computed, and where the wall-clock went — surfaced
through estimator attributes, ``PlanExplanation``, the CLI, and the
benchmark scripts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass
class PreprocessingStats:
    """Counters and timers for one estimator's preprocessing run.

    Attributes:
        technique: Which estimator produced the stats ("staircase",
            "catalog-merge", "virtual-grid", ...).
        workers: Worker processes the build was configured with
            (0 or 1 means the serial in-process path).
        anchors_total: Catalog anchors the technique nominally requires
            (for Staircase: one center plus four corners per auxiliary
            leaf; for the join techniques: one per sampled outer block
            or grid cell).
        anchors_unique: Distinct anchors after geometric deduplication
            (at most ``anchors_total``; interior corners are shared).
        profiles_computed: Cost/locality profiles actually computed —
            the unit of preprocessing work.
        phase_seconds: Wall seconds per named build phase
            (e.g. ``"profiles"``, ``"assemble"``).
        wall_seconds: Total preprocessing wall time.
    """

    technique: str = ""
    workers: int = 0
    anchors_total: int = 0
    anchors_unique: int = 0
    profiles_computed: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def anchors_deduped(self) -> int:
        """Profile builds avoided by shared-anchor deduplication."""
        return max(0, self.anchors_total - self.anchors_unique)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named build phase (accumulates across uses)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + time.perf_counter() - start
            )

    def as_dict(self) -> dict[str, float]:
        """Flatten to plain numbers (EXPLAIN output)."""
        out: dict[str, float] = {
            "workers": float(self.workers),
            "anchors_total": float(self.anchors_total),
            "anchors_unique": float(self.anchors_unique),
            "anchors_deduped": float(self.anchors_deduped),
            "profiles_computed": float(self.profiles_computed),
            "wall_seconds": float(self.wall_seconds),
        }
        for name, seconds in self.phase_seconds.items():
            out[f"{name}_seconds"] = float(seconds)
        return out

    def describe_work(self) -> str:
        """The work counts of :meth:`describe`: exact, no seconds
        (experiment-table notes, which must repeat run to run)."""
        return f"{self.profiles_computed} profiles, {self.anchors_deduped} anchors deduped"

    def describe(self) -> str:
        """One-line human-readable summary (CLI output)."""
        parts = [self.describe_work()]
        if self.workers > 1:
            parts.append(f"{self.workers} workers")
        parts.append(f"{self.wall_seconds:.3f}s")
        return ", ".join(parts)

    @classmethod
    def merged(cls, stats: Iterable["PreprocessingStats"]) -> "PreprocessingStats":
        """Aggregate several runs (a fallback chain's built tiers)."""
        total = cls(technique="merged")
        for s in stats:
            total.workers = max(total.workers, s.workers)
            total.anchors_total += s.anchors_total
            total.anchors_unique += s.anchors_unique
            total.profiles_computed += s.profiles_computed
            total.wall_seconds += s.wall_seconds
            for name, seconds in s.phase_seconds.items():
                total.phase_seconds[name] = total.phase_seconds.get(name, 0.0) + seconds
        return total
