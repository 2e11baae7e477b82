"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(config) -> ExperimentResult`` and can be
invoked from the command line through :mod:`repro.experiments.runner`::

    python -m repro.experiments fig11 --profile default

Profiles scale the testbed (see DESIGN.md §2): ``quick`` for smoke
tests, ``default`` for laptop-scale reproduction, ``full`` for the
closest feasible match to the paper's setup.
"""

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    PROFILES,
    get_config,
    build_index,
    build_snapshot,
    dataset,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "PROFILES",
    "get_config",
    "build_index",
    "build_snapshot",
    "dataset",
]
