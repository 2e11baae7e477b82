"""Command-line runner for the experiment suite.

Usage::

    python -m repro.experiments fig11 --profile default
    python -m repro.experiments all --profile quick --write
    repro-experiments fig17 --profile full

Each experiment prints one table: a figure of the paper's evaluation
section, or one of the extension studies (ablations, plan quality, the
LBS stream).  ``--write`` also saves it under ``benchmarks/results/`` of
the source checkout, at a path derived from the profile alone
(:func:`table_path`), so one profile's run can never overwrite
another's tables.  A column is a wall-clock measurement iff its header
ends in ``_s``; every other cell repeats to the last digit and Tier-1
compares it with the committed ``quick`` table.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path
from typing import Callable

from repro.experiments.common import PROFILES, get_config, ExperimentResult

#: Where ``--write`` saves tables (the default profile's; others in a
#: subdirectory named after the profile).
RESULTS_ROOT = Path(__file__).resolve().parents[3] / "benchmarks" / "results"

#: Experiment id -> implementing module (one per table).
EXPERIMENTS: dict[str, str] = {
    "ablation_capacity": "repro.experiments.ablation_capacity",
    "ablation_count_index": "repro.experiments.ablation_count_index",
    "ablation_dataset_distribution": "repro.experiments.ablation_dataset_distribution",
    "ablation_index_substrate": "repro.experiments.ablation_index_substrate",
    "ablation_k_distribution": "repro.experiments.ablation_k_distribution",
    "ablation_knn_algorithm": "repro.experiments.ablation_knn_algorithm",
    "ablation_virtual_grid": "repro.experiments.ablation_virtual_grid",
    "fig04": "repro.experiments.fig04_staircase_profile",
    "fig07": "repro.experiments.fig07_locality_profile",
    "fig11": "repro.experiments.fig11_select_accuracy",
    "fig12": "repro.experiments.fig12_select_time",
    "fig13": "repro.experiments.fig13_select_preprocessing",
    "fig14": "repro.experiments.fig14_select_storage",
    "fig15": "repro.experiments.fig15_join_accuracy_sample",
    "fig16": "repro.experiments.fig16_join_accuracy_grid",
    "fig17": "repro.experiments.fig17_join_time_k",
    "fig18": "repro.experiments.fig18_join_time_sample",
    "fig19": "repro.experiments.fig19_join_time_grid",
    "fig20": "repro.experiments.fig20_join_storage_scale",
    "fig21": "repro.experiments.fig21_join_preprocessing_scale",
    "fig22": "repro.experiments.fig22_join_storage_params",
    "fig23": "repro.experiments.fig23_join_preprocessing_params",
    "fig24": "repro.experiments.fig24_summary",
    "lbs_simulation": "repro.experiments.lbs_simulation",
    "plan_quality": "repro.experiments.plan_quality",
}


def experiment_runner(name: str) -> Callable[..., ExperimentResult]:
    """Resolve an experiment id to its ``run`` callable.

    Raises:
        KeyError: For an unknown experiment id.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; expected one of {sorted(EXPERIMENTS)}")
    module = importlib.import_module(EXPERIMENTS[name])
    return module.run


def table_path(name: str, profile: str) -> Path:
    """Where ``--write`` saves experiment ``name`` run under ``profile``."""
    root = RESULTS_ROOT if profile == "default" else RESULTS_ROOT / profile
    return root / f"{name}.txt"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's evaluation tables and the extension studies.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (paper figure number or study name) or 'all'",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="default",
        help="testbed scale profile (default: default)",
    )
    parser.add_argument(
        "--dataset",
        choices=["osm", "uniform", "skewed"],
        default=None,
        help="override the synthetic dataset family",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="also save each table under benchmarks/results/ (a path derived from --profile)",
    )
    args = parser.parse_args(argv)
    if args.write and args.dataset:
        parser.error("--write saves the profile's own tables; drop --dataset")
    if args.write and not RESULTS_ROOT.is_dir():
        parser.error(f"--write needs a source checkout ({RESULTS_ROOT} does not exist)")

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    overrides = {"dataset_kind": args.dataset} if args.dataset else {}
    config = get_config(args.profile, **overrides)
    for name in names:
        start = time.perf_counter()
        result = experiment_runner(name)(config)
        elapsed = time.perf_counter() - start
        table = result.format_table()
        print(table)
        if args.write:
            path = table_path(name, args.profile)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(table + "\n")
        print(f"  [{name} completed in {elapsed:.1f}s, profile={args.profile}]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
