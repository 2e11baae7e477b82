"""The golden plan-regression corpus and its maintenance tooling.

A pinned corpus of 30 workloads — the {uniform, skewed, churned} ×
{select, batch, join} × {quadtree, grid, R-tree} matrix plus three
engine-level specials (an exact cost tie, a pinned override, and a
stale-catalog demotion under the ``"raise"`` staleness policy) — whose
chosen operators, deciding rules, estimator tiers, and
estimated-vs-actual block counts live as golden JSON files under
``tests/plan_regression/golden/``.

Any optimizer change that flips a plan choice (or moves a cost) shows
up as a reviewable diff::

    PYTHONPATH=src python -m repro.optimizer.regression            # verify
    PYTHONPATH=src python -m repro.optimizer.regression --update   # approve

Verification exits non-zero on any unapproved plan change and prints a
field-level diff per workload; ``--update`` rewrites the golden files
and prints the same diff so the change lands in review.  ``--emit``
additionally writes every current record to one JSON artifact
(``BENCH_plans.json`` in CI).

Costs are compared with a relative tolerance of 1e-9: the estimate
math is pinned to libm ``hypot`` (see ``docs/performance.md``), whose
last-ulp rounding may differ across platforms, while plan choices,
tiers, and actual block counts compare exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from repro.datasets import generate_skewed, generate_uniform
from repro.engine import KnnSelectQuery, SpatialEngine, SpatialTable, StatisticsManager
from repro.engine.planner import per_point_selects_cost
from repro.estimators import CatalogMergeEstimator, StaircaseEstimator
from repro.geometry import Point
from repro.index import GridIndex, Quadtree, RTree, as_snapshot
from repro.knn import knn_join_cost, select_cost_exact, select_costs
from repro.optimizer.selection import (
    FILTER_THEN_KNN,
    INCREMENTAL_KNN,
    LOCALITY_JOIN,
    PER_POINT_SELECTS,
    PER_QUERY_SELECTS,
    SHARED_KNN_JOIN,
    arbitrate,
)

#: Default golden directory, relative to the repository root (the test
#: suite passes its own absolute path instead).
DEFAULT_GOLDEN_DIR = Path("tests") / "plan_regression" / "golden"

#: Relative tolerance for float fields (costs); everything else is exact.
COST_RTOL = 1e-9

MAX_K = 256
CAPACITY = 64
GRID_NX = 12

DATASETS = ("uniform", "skewed", "churned")
SUBSTRATES = ("quadtree", "grid", "rtree")

#: Per-dataset (k, predicate selectivity) for the select workloads —
#: spread to exercise both sides of the filter-vs-browse decision.
_SELECT_PARAMS = {"uniform": (8, 0.25), "skewed": (16, 0.5), "churned": (12, 0.02)}
#: Per-dataset select focal points (churned aims into the hotspot).
_SELECT_QUERY = {
    "uniform": Point(500.0, 500.0),
    "skewed": Point(150.0, 200.0),
    "churned": Point(140.0, 740.0),
}
#: Per-dataset k for the batch (many selects vs. one join) workloads.
_BATCH_K = {"uniform": 4, "skewed": 24, "churned": 8}
#: Per-dataset k for the join workloads.
_JOIN_K = {"uniform": 8, "skewed": 16, "churned": 4}

_cache: dict = {}


def _memo(key, build):
    if key not in _cache:
        _cache[key] = build()
    return _cache[key]


def clear_cache() -> None:
    """Drop memoized datasets/indexes/estimators (frees test memory)."""
    _cache.clear()


def _dataset(name: str) -> np.ndarray:
    """The corpus point sets: 1400 points over the [0, 1000]² world."""

    def build() -> np.ndarray:
        if name == "uniform":
            return generate_uniform(1400, seed=11)
        if name == "skewed":
            return generate_skewed(1400, seed=12)
        # "churned": a uniform base after a workload churn migrated 30%
        # of the rows into a dense hotspot — the post-churn distribution
        # the maintenance layer (PR 7) leaves behind.
        pts = generate_uniform(1400, seed=13).copy()
        rng = np.random.default_rng(99)
        moved = rng.choice(pts.shape[0], size=420, replace=False)
        pts[moved, 0] = rng.uniform(100.0, 180.0, size=moved.size)
        pts[moved, 1] = rng.uniform(700.0, 780.0, size=moved.size)
        return pts

    return _memo(("dataset", name), build)


def _part(dataset: str, part: str) -> np.ndarray:
    """A named slice of a dataset: full / join outer / join inner."""
    pts = _dataset(dataset)
    if part == "full":
        return pts
    if part == "outer":
        return pts[:350]
    if part == "inner":
        return pts[800:]
    raise ValueError(f"unknown part {part!r}")


def _build_index(points: np.ndarray, substrate: str):
    if substrate == "quadtree":
        return Quadtree(points, capacity=CAPACITY)
    if substrate == "grid":
        return GridIndex(points, nx=GRID_NX)
    if substrate == "rtree":
        return RTree(points, capacity=CAPACITY)
    raise ValueError(f"unknown substrate {substrate!r}")


def _index(dataset: str, part: str, substrate: str):
    return _memo(
        ("index", dataset, part, substrate),
        lambda: _build_index(_part(dataset, part), substrate),
    )


def _staircase(dataset: str, part: str, substrate: str) -> StaircaseEstimator:
    def build() -> StaircaseEstimator:
        index = _index(dataset, part, substrate)
        # Non-space-partitioning substrates need an auxiliary quadtree
        # for the catalog's region anchors (Section 3.3).
        aux = None if substrate == "quadtree" else _index(dataset, part, "quadtree")
        return StaircaseEstimator(index, aux, max_k=MAX_K)

    return _memo(("staircase", dataset, part, substrate), build)


def _catalog_merge(
    dataset: str, outer_part: str, inner_part: str, substrate: str
) -> CatalogMergeEstimator:
    return _memo(
        ("catalog-merge", dataset, outer_part, inner_part, substrate),
        lambda: CatalogMergeEstimator(
            as_snapshot(_index(dataset, outer_part, substrate)),
            as_snapshot(_index(dataset, inner_part, substrate)),
            sample_size=200,
            max_k=MAX_K,
        ),
    )


def _batch_queries(dataset: str) -> np.ndarray:
    """20 deterministic query focal points per dataset."""

    def build() -> np.ndarray:
        seed = {"uniform": 21, "skewed": 22, "churned": 23}[dataset]
        return np.random.default_rng(seed).uniform(50.0, 950.0, size=(20, 2))

    return _memo(("batch-queries", dataset), build)


# ---------------------------------------------------------------------------
# Matrix workloads (substrate-parametric: candidates handed to arbitrate)
# ---------------------------------------------------------------------------
def _matrix_record(
    dataset: str, substrate: str, op: str, k: int,
    candidates: dict[str, float], actual_of: dict, tier_of: dict[str, str],
) -> dict:
    """Arbitrate ``candidates`` by cost alone (no pins); record the plan.

    The engine plans over its own quadtree tables, so the matrix costs
    each candidate on the substrate under test and hands the numbers to
    :func:`~repro.optimizer.selection.arbitrate` directly.  Ties resolve
    toward ``candidates``' order; only the chosen plan's actual block
    count is computed.
    """
    decision = arbitrate(op, dataset, candidates, tuple(candidates))
    chosen = decision.operator
    return {
        "dataset": dataset,
        "substrate": substrate,
        "op": op,
        "k": k,
        "chosen": chosen,
        "decided_by": decision.link,
        "estimator_tier": tier_of[chosen],
        "candidates": candidates,
        "estimated_cost": candidates[chosen],
        "actual_blocks": int(actual_of[chosen]()),
    }


def predicted_speedup(candidates: dict[str, float]) -> float | None:
    """Estimated cost ratio of the dearest candidate over the cheapest.

    ``None`` stands for an infinite ratio (a zero-cost winner).
    """
    worst, best = max(candidates.values()), min(candidates.values())
    return worst / best if best > 0 else None


def _run_select(dataset: str, substrate: str) -> dict:
    """Filter-then-kNN vs. incremental browsing on one substrate."""
    index = _index(dataset, "full", substrate)
    estimator = _staircase(dataset, "full", substrate)
    k, selectivity = _SELECT_PARAMS[dataset]
    query = _SELECT_QUERY[dataset]
    # One in ``selectivity`` browsed tuples qualifies: browsing is
    # costed at k' = ceil(k / selectivity); every tuple qualifies at run
    # time, so the browse itself stops at k.
    effective_k = int(np.ceil(k / selectivity))
    candidates = {
        FILTER_THEN_KNN: float(index.num_blocks),
        INCREMENTAL_KNN: float(estimator.estimate(query, effective_k)),
    }
    record = _matrix_record(
        dataset, substrate, "select", k, candidates,
        actual_of={
            FILTER_THEN_KNN: lambda: index.num_blocks,
            INCREMENTAL_KNN: lambda: select_cost_exact(index, index.blocks, query, k),
        },
        tier_of={FILTER_THEN_KNN: "staircase", INCREMENTAL_KNN: "staircase"},
    )
    record["predicted_speedup"] = predicted_speedup(candidates)
    return record


def _run_batch(dataset: str, substrate: str) -> dict:
    """Many per-query selects vs. one shared k-NN-Join (Section 1)."""
    inner_index = _index(dataset, "inner", substrate)
    inner_estimator = _staircase(dataset, "inner", substrate)
    queries = _batch_queries(dataset)
    outer_index = _memo(
        ("index", dataset, "batch-outer", substrate),
        lambda: _build_index(queries, substrate),
    )
    join_estimator = _memo(
        ("catalog-merge", dataset, "batch-outer", "inner", substrate),
        lambda: CatalogMergeEstimator(
            as_snapshot(outer_index),
            as_snapshot(inner_index),
            sample_size=200,
            max_k=MAX_K,
        ),
    )
    k = _BATCH_K[dataset]
    costs = inner_estimator.estimate_batch(
        queries, np.full(queries.shape[0], k, dtype=np.int64)
    )
    candidates = {
        # Left-to-right summation, as a loop of scalar estimates adds up.
        PER_QUERY_SELECTS: float(sum(costs.tolist())),
        SHARED_KNN_JOIN: float(join_estimator.estimate(k)),
    }
    return _matrix_record(
        dataset, substrate, "batch", k, candidates,
        actual_of={
            PER_QUERY_SELECTS: lambda: int(
                select_costs(inner_index, inner_index.blocks, queries, [k] * len(queries)).sum()
            ),
            SHARED_KNN_JOIN: lambda: knn_join_cost(outer_index, inner_index, k),
        },
        tier_of={PER_QUERY_SELECTS: "staircase", SHARED_KNN_JOIN: "catalog-merge"},
    )


def _run_join(dataset: str, substrate: str) -> dict:
    """Locality join vs. per-point selects, costed as ``explain_join`` costs them."""
    outer_points = _part(dataset, "outer")
    outer_index = _index(dataset, "outer", substrate)
    inner_index = _index(dataset, "inner", substrate)
    k = _JOIN_K[dataset]
    candidates = {
        LOCALITY_JOIN: float(
            _catalog_merge(dataset, "outer", "inner", substrate).estimate(k)
        ),
        PER_POINT_SELECTS: per_point_selects_cost(
            _staircase(dataset, "inner", substrate), outer_points, k
        )[0],
    }
    return _matrix_record(
        dataset, substrate, "join", k, candidates,
        actual_of={
            LOCALITY_JOIN: lambda: knn_join_cost(outer_index, inner_index, k),
            PER_POINT_SELECTS: lambda: int(
                select_costs(
                    inner_index, inner_index.blocks, outer_points, [k] * len(outer_points)
                ).sum()
            ),
        },
        tier_of={LOCALITY_JOIN: "catalog-merge", PER_POINT_SELECTS: "staircase"},
    )


# ---------------------------------------------------------------------------
# Engine-level specials
# ---------------------------------------------------------------------------
def _engine(**manager_kwargs):
    engine = SpatialEngine(StatisticsManager(**manager_kwargs))
    engine.register(
        SpatialTable("points", _dataset("uniform"), capacity=CAPACITY)
    )
    return engine


def _explanation_record(name: str, explanation, actual: int | None) -> dict:
    record = {
        "dataset": "uniform",
        "substrate": "quadtree",
        "op": name,
        "k": explanation.effective_k,
        "chosen": explanation.chosen,
        "decided_by": explanation.decided_by,
        "estimator_tier": explanation.estimator_tier,
        "candidates": dict(explanation.alternatives),
        "estimated_cost": explanation.alternatives[explanation.chosen],
        "trail_actions": {d.link: d.action for d in explanation.trail},
    }
    if actual is not None:
        record["actual_blocks"] = int(actual)
    return record


def _run_cost_tie() -> dict:
    """An exact cost tie, broken toward the sequential full scan.

    ``k`` equal to the relation's row count forces browsing to visit
    every block; the planner's min-clamp then makes the browsing cost
    exactly the full-scan block count — an exact integer tie that must
    keep resolving to ``filter-then-knn``.
    """
    n = _dataset("uniform").shape[0]
    engine = _engine(max_k=n)
    query = KnnSelectQuery("points", Point(500.0, 500.0), k=n)
    result, explanation = engine.execute(query)
    record = _explanation_record("select-cost-tie", explanation, result.blocks_scanned)
    record["tie"] = (
        explanation.alternatives["filter-then-knn"]
        == explanation.alternatives["incremental-knn"]
    )
    return record


def _run_pinned_override() -> dict:
    """A pin forcing the full scan where browsing is cheaper."""
    engine = _engine(pinned_operators={"points:select": "filter-then-knn"})
    query = KnnSelectQuery("points", Point(500.0, 500.0), k=8)
    result, explanation = engine.execute(query)
    return _explanation_record(
        "select-pinned-override", explanation, result.blocks_scanned
    )


def _run_stale_raise_demotion() -> dict:
    """A stale catalog under ``staleness_policy="raise"``.

    The Staircase tier raises ``StaleCatalogError``; the fallback chain
    absorbs it and the density tier answers, degraded — planning never
    sees the error.
    """
    engine = _engine(staleness_policy="raise")
    query = KnnSelectQuery("points", Point(500.0, 500.0), k=8)
    engine.explain(query)  # builds the catalogs at generation 0
    table = engine.stats.table("points")
    table.index.data_generation = 1  # the index mutates under the catalogs
    result, explanation = engine.execute(query)
    record = _explanation_record(
        "select-stale-raise", explanation, result.blocks_scanned
    )
    record["degraded"] = bool(explanation.degraded)
    return record


# ---------------------------------------------------------------------------
# Corpus registry, runner, diffing
# ---------------------------------------------------------------------------
def workloads() -> dict:
    """The full corpus: ``{workload name: runner}`` in corpus order."""
    registry: dict = {}
    for dataset in DATASETS:
        for substrate in SUBSTRATES:
            for op, runner in (
                ("select", _run_select),
                ("batch", _run_batch),
                ("join", _run_join),
            ):
                registry[f"{dataset}-{substrate}-{op}"] = partial(
                    runner, dataset, substrate
                )
    registry["engine-cost-tie"] = _run_cost_tie
    registry["engine-pinned-override"] = _run_pinned_override
    registry["engine-stale-raise-demotion"] = _run_stale_raise_demotion
    return registry


def run_workload(name: str) -> dict:
    """Run one corpus workload; returns its plan record."""
    record = workloads()[name]()
    record["workload"] = name
    return record


def run_all(only: str | None = None) -> dict[str, dict]:
    """Run the corpus (optionally filtered by substring); name → record."""
    return {
        name: run_workload(name)
        for name in workloads()
        if only is None or only in name
    }


def _values_differ(golden, current) -> bool:
    if isinstance(golden, float) or isinstance(current, float):
        if not isinstance(golden, (int, float)) or not isinstance(
            current, (int, float)
        ):
            return True
        return not math.isclose(golden, current, rel_tol=COST_RTOL, abs_tol=COST_RTOL)
    if isinstance(golden, dict) and isinstance(current, dict):
        return set(golden) != set(current) or any(
            _values_differ(golden[k], current[k]) for k in golden
        )
    return golden != current


def diff_records(golden: dict, current: dict) -> list[str]:
    """Field-level differences between a golden and a current record."""
    diffs = []
    for key in sorted(set(golden) | set(current)):
        if key not in golden:
            diffs.append(f"  + {key}: {current[key]!r} (new field)")
        elif key not in current:
            diffs.append(f"  - {key}: {golden[key]!r} (field gone)")
        elif _values_differ(golden[key], current[key]):
            diffs.append(f"  ~ {key}: {golden[key]!r} -> {current[key]!r}")
    return diffs


def load_golden(golden_dir: Path) -> dict[str, dict]:
    """Load every golden record from ``golden_dir``; name → record."""
    records = {}
    for path in sorted(Path(golden_dir).glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            records[path.stem] = json.load(handle)
    return records


def write_golden(golden_dir: Path, records: dict[str, dict]) -> None:
    """Write (or rewrite) golden files; removes records no longer run."""
    golden_dir = Path(golden_dir)
    golden_dir.mkdir(parents=True, exist_ok=True)
    current = set(records)
    for path in golden_dir.glob("*.json"):
        if path.stem not in current:
            path.unlink()
    for name, record in records.items():
        path = golden_dir / f"{name}.json"
        path.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def main(argv: list[str] | None = None) -> int:
    """Verify (default) or regenerate the golden plan-regression corpus."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.optimizer.regression",
        description="golden plan-regression corpus for the optimizer",
    )
    parser.add_argument(
        "--golden-dir",
        type=Path,
        default=DEFAULT_GOLDEN_DIR,
        help=f"golden JSON directory (default: {DEFAULT_GOLDEN_DIR})",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="approve the current plans: rewrite the golden files and "
        "print the diff that review should see",
    )
    parser.add_argument(
        "--emit",
        type=Path,
        default=None,
        metavar="BENCH_plans.json",
        help="also write every current record to one JSON artifact",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="SUBSTR",
        help="restrict to workloads whose name contains SUBSTR "
        "(development aid; --update then rewrites only those files)",
    )
    args = parser.parse_args(argv)

    current = run_all(args.only)
    golden = load_golden(args.golden_dir)
    if args.only is not None:
        golden = {name: rec for name, rec in golden.items() if args.only in name}

    changed: list[str] = []
    for name in sorted(set(golden) | set(current)):
        if name not in golden:
            changed.append(name)
            print(f"NEW      {name}: no golden record")
            continue
        if name not in current:
            changed.append(name)
            print(f"REMOVED  {name}: golden record has no workload")
            continue
        diffs = diff_records(golden[name], current[name])
        if diffs:
            changed.append(name)
            print(f"CHANGED  {name}:")
            for line in diffs:
                print(line)

    if args.emit is not None:
        args.emit.parent.mkdir(parents=True, exist_ok=True)
        args.emit.write_text(
            json.dumps(
                {"workloads": current, "n_workloads": len(current)},
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote {len(current)} records to {args.emit}")

    if args.update:
        if args.only is None:
            write_golden(args.golden_dir, current)
        else:
            # Partial update: rewrite only the filtered records.
            for name, record in current.items():
                write_golden_one = Path(args.golden_dir) / f"{name}.json"
                write_golden_one.parent.mkdir(parents=True, exist_ok=True)
                write_golden_one.write_text(
                    json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
        print(
            f"approved {len(changed)} change(s); "
            f"{len(current)} golden records in {args.golden_dir}"
        )
        return 0
    if changed:
        print(
            f"{len(changed)} unapproved plan change(s); run with --update "
            "to approve (the diff above is what review should see)"
        )
        return 1
    print(f"{len(current)} plan records match the golden corpus")
    return 0


if __name__ == "__main__":
    sys.exit(main())
