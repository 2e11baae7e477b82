"""Preprocessing performance layer: instrumentation and fan-out.

See :mod:`repro.perf.stats` for the counters/timers surfaced through
``preprocessing_stats`` attributes, ``PlanExplanation``, the CLI, and
the benchmark scripts, and :mod:`repro.perf.parallel` for the batched
distance gather and multi-process anchor fan-out used by the catalog
builders.  ``docs/performance.md`` documents the layer end to end.
"""

from repro.perf.parallel import (
    BlockPointsView,
    Staircases,
    locality_size_profiles,
    profile_staircases,
    resolve_workers,
    select_cost_profiles,
)
from repro.perf.stats import PreprocessingStats

__all__ = [
    "BlockPointsView",
    "PreprocessingStats",
    "Staircases",
    "locality_size_profiles",
    "profile_staircases",
    "resolve_workers",
    "select_cost_profiles",
]
