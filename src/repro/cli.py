"""Command-line interface.

Subcommands::

    python -m repro generate --kind osm -n 50000 -o points.csv
    python -m repro index-stats points.csv --capacity 256
    python -m repro visualize points.csv --blocks
    python -m repro staircase points.csv --x 500 --y 500 --max-k 1024
    python -m repro estimate-select points.csv --x 500 --y 500 -k 64
    python -m repro estimate-select points.csv --batch queries.csv
    python -m repro estimate-join outer.csv inner.csv -k 32 --technique catalog-merge

Every estimation command prints the estimate, the ground-truth cost,
and the error ratio, so the CLI doubles as a quick calibration check on
user-supplied data.

Failures from the resilience taxonomy (malformed CSVs, invalid queries,
corrupt catalogs) exit with code 2 and a one-line ``error:`` message on
stderr.  The estimate commands degrade through estimator fallback
chains by default; ``--strict`` disables the degradation so the
requested technique's failure surfaces instead.

Serving-tier refusals are distinct from estimation failures: an
``OverloadError`` (admission control shed the workload) or a
``ShardExhaustedError`` (every shard for a query failed under
``--strict``) exits with code **3** — "try again later / with more
capacity", as opposed to code 2's "this request is broken".  The
sharded tier is engaged by passing ``--shards N`` to
``estimate-select --batch`` (with ``--deadline-ms`` bounding the batch
and ``--workers`` sizing each shard's pool).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.datasets import (
    generate_osm_like,
    generate_skewed,
    generate_uniform,
    load_points_csv,
    save_points_csv,
)
from repro.estimators import (
    BlockSampleEstimator,
    CatalogMergeEstimator,
    DensityBasedEstimator,
    StaircaseEstimator,
    VirtualGridEstimator,
    build_select_catalog,
)
from repro.estimators import UniformModelEstimator
from repro.geometry import Point
from repro.index import IndexSnapshot, Quadtree
from repro.knn import knn_join_cost, select_cost_exact
from repro.optimizer.selection import parse_pin_spec
from repro.resilience.errors import (
    EstimationError,
    InvalidQueryError,
    OverloadError,
    ShardExhaustedError,
)
from repro.resilience.guards import require_finite_coordinates
from repro.resilience.fallback import (
    FallbackJoinEstimator,
    FallbackSelectEstimator,
)
from repro.viz import render_blocks, render_density, render_staircase

_GENERATORS = {
    "osm": generate_osm_like,
    "uniform": generate_uniform,
    "skewed": generate_skewed,
}


def _load_index(path: str, capacity: int) -> Quadtree:
    points = load_points_csv(path)
    return Quadtree(points, capacity=capacity)


def _cmd_generate(args: argparse.Namespace) -> int:
    points = _GENERATORS[args.kind](args.n, seed=args.seed)
    save_points_csv(points, args.output)
    print(f"wrote {points.shape[0]} {args.kind} points to {args.output}")
    return 0


def _cmd_index_stats(args: argparse.Namespace) -> int:
    index = _load_index(args.points, args.capacity)
    counts = index.block_counts_array()
    print(f"points:        {index.num_points}")
    print(f"blocks:        {index.num_blocks}")
    print(f"depth:         {index.depth()}")
    print(f"capacity:      {index.capacity}")
    print(f"fill (avg):    {counts.mean():.1f} points/block")
    print(f"fill (median): {int(np.median(counts))} points/block")
    bounds = index.bounds
    print(
        "bounds:        "
        f"({bounds.x_min:.2f}, {bounds.y_min:.2f}) .. "
        f"({bounds.x_max:.2f}, {bounds.y_max:.2f})"
    )
    snapshot = IndexSnapshot.from_index(index)
    print(f"snapshot:      {snapshot.describe()}, {snapshot.storage_bytes()} bytes")
    return 0


def _cmd_visualize(args: argparse.Namespace) -> int:
    points = load_points_csv(args.points)
    print(render_density(points, width=args.width, height=args.height))
    if args.blocks:
        index = Quadtree(points, capacity=args.capacity)
        print()
        print(render_blocks(index, width=args.width, height=args.height))
    return 0


def _cmd_staircase(args: argparse.Namespace) -> int:
    index = _load_index(args.points, args.capacity)
    snapshot = IndexSnapshot.from_index(index)
    require_finite_coordinates(args.x, args.y, "anchor point")
    anchor = Point(args.x, args.y)
    catalog = build_select_catalog(snapshot, index.blocks, anchor, args.max_k)
    print(f"{'k_start':>8} {'k_end':>8} {'cost':>6}")
    for k_start, k_end, cost in catalog.entries():
        print(f"{k_start:>8} {k_end:>8} {int(cost):>6}")
    print()
    print(render_staircase(catalog))
    return 0


def _pins(args: argparse.Namespace) -> dict:
    """Resolve ``--pin-operator`` into the manager's ``pinned_operators``
    (a picklable mapping — also the channel sharded serving ships pins
    through).

    Raises:
        InvalidQueryError: On a malformed ``--pin-operator`` spec (exit
            code 2, like any other broken request).
    """
    try:
        return dict(parse_pin_spec(spec) for spec in (args.pin_operator or []))
    except ValueError as exc:
        raise InvalidQueryError(str(exc)) from exc


def _cmd_estimate_select(args: argparse.Namespace) -> int:
    _pins(args)  # a malformed --pin-operator fails fast (exit 2)
    if args.batch is not None:
        return _run_select_batch(args)
    if args.x is None or args.y is None or args.k is None:
        print(
            "error: --x, --y and -k are required unless --batch is given",
            file=sys.stderr,
        )
        return 2
    index = _load_index(args.points, args.capacity)
    # One columnar gather serves the estimators and the ground truth.
    snapshot = IndexSnapshot.from_index(index)
    require_finite_coordinates(args.x, args.y, "query point")
    query = Point(args.x, args.y)

    factories = {
        "staircase": lambda: StaircaseEstimator(
            index,
            max_k=args.max_k,
            workers=args.workers,
            snapshot=snapshot,
        ),
        "density": lambda: DensityBasedEstimator(snapshot),
        "uniform-model": lambda: UniformModelEstimator(snapshot),
    }
    if args.strict:
        estimator = factories[args.technique]()
    else:
        # Degradation order: the requested technique first, then the
        # cheaper catalog-free tiers.
        order = [args.technique] + [t for t in factories if t != args.technique]
        estimator = FallbackSelectEstimator(
            tiers=[(name, factories[name]) for name in order],
            guaranteed_bound=float(index.num_blocks),
        )
    start = time.perf_counter()
    if args.strict:
        estimate, outcome = estimator.estimate(query, args.k), None
    else:
        costs, provenance = estimator.walk([(query.x, query.y)], [args.k])
        estimate, outcome = float(costs[0]), provenance.outcome_for(0)
    elapsed = time.perf_counter() - start
    actual = select_cost_exact(snapshot, index.blocks, query, args.k)
    error = abs(estimate - actual) / max(actual, 1)
    print(f"technique:  {args.technique}")
    print(f"estimate:   {estimate:.2f} blocks ({elapsed * 1e6:.1f} us)")
    print(f"actual:     {actual} blocks")
    print(f"error:      {error:.1%}")
    _print_preprocessing(estimator)
    _print_degradation(outcome)
    if args.explain:
        _print_select_plan(args, query)
    return 0


def _print_select_plan(args: argparse.Namespace, query: Point) -> None:
    """The ``--explain`` section: why the engine's optimizer would plan
    this query the way it does — chosen operator, rejected candidates
    with their costs, and the rule that decided.
    """
    from repro.engine import (
        KnnSelectQuery,
        SpatialEngine,
        SpatialTable,
        StatisticsManager,
    )

    manager = StatisticsManager(
        max_k=args.max_k,
        fallback=not args.strict,
        strict=args.strict,
        workers=args.workers,
        pinned_operators=_pins(args),
    )
    engine = SpatialEngine(manager)
    engine.register(
        SpatialTable("points", load_points_csv(args.points), capacity=args.capacity)
    )
    explanation = engine.explain(KnnSelectQuery("points", query, k=args.k))
    print("plan:")
    for line in str(explanation).splitlines():
        print(f"  {line}")


def _run_select_batch(args: argparse.Namespace) -> int:
    """The ``estimate-select --batch`` serving mode.

    Reads an ``x,y,k`` query CSV and replays it either through one
    ``SpatialEngine.execute_batch`` call (the default) or — with
    ``--shards N`` — through the supervised sharded serving tier, and
    prints aggregate latency and throughput.  ``--strict`` keeps its
    meaning in both paths: fallback degradation is disabled, so
    suspicious queries become errors (exit code 2) and a lost shard
    becomes a ``ShardExhaustedError`` (exit code 3) instead of
    degraded notes.
    """
    from repro.engine import SpatialEngine, SpatialTable, StatisticsManager
    from repro.workloads import QueryBatch, serve_workload

    points = load_points_csv(args.points)
    try:
        batch = QueryBatch.from_csv(args.batch)
    except ValueError as exc:
        raise InvalidQueryError(str(exc)) from exc
    pins = _pins(args)
    engine = SpatialEngine(
        StatisticsManager(
            max_k=args.max_k,
            fallback=not args.strict,
            strict=args.strict,
            workers=args.workers,
            pinned_operators=pins,
        )
    )
    engine.register(SpatialTable("points", points, capacity=args.capacity))
    if args.shards:
        from repro.serving import AdmissionController

        report = serve_workload(
            engine,
            "points",
            batch,
            mode="sharded",
            shards=args.shards,
            shard_mode=args.shard_mode,
            workers=max(1, args.workers or 1),
            deadline_ms=args.deadline_ms,
            tier_options={
                "strict": args.strict,
                # The CLI front door always runs admission control, so a
                # spent deadline or an oversized batch is refused with
                # OverloadError (exit 3) before any worker spawns.
                "admission": AdmissionController(),
                # Workers mirror the reference engine's configuration;
                # operator pins travel as plain data.
                "manager_kwargs": {
                    "max_k": args.max_k,
                    "fallback": not args.strict,
                    "strict": args.strict,
                    "pinned_operators": pins,
                },
            },
        )
    else:
        report = serve_workload(engine, "points", batch, mode="batch")
    print(f"workload:    {batch.describe()}")
    print(report.describe())
    degraded = sum(
        1 for explanation in report.explanations if explanation.degraded
    )
    if degraded and not args.shards:
        print(f"degraded:    {degraded} of {report.n_queries} plans")
    return 0


def _print_degradation(outcome) -> None:
    """Surface fallback provenance when a non-primary tier answered."""
    if outcome is not None and outcome.degraded:
        print(f"degraded:   {outcome.describe()}")


def _print_preprocessing(estimator) -> None:
    """Surface preprocessing instrumentation (works for chains, too)."""
    stats = getattr(estimator, "preprocessing_stats", None)
    if stats is not None and stats.wall_seconds > 0.0:
        print(f"preproc:    {stats.describe()}")


def _cmd_estimate_join(args: argparse.Namespace) -> int:
    outer = _load_index(args.outer, args.capacity)
    inner = _load_index(args.inner, args.capacity)
    # One columnar gather per relation, shared by every technique tier.
    outer_snapshot = IndexSnapshot.from_index(outer)
    inner_snapshot = IndexSnapshot.from_index(inner)

    factories = {
        "catalog-merge": lambda: CatalogMergeEstimator(
            outer_snapshot,
            inner_snapshot,
            sample_size=args.sample_size,
            max_k=args.max_k,
            workers=args.workers,
        ),
        "virtual-grid": lambda: VirtualGridEstimator(
            inner_snapshot,
            bounds=outer.bounds.union(inner.bounds),
            grid_size=args.grid_size,
            max_k=args.max_k,
            workers=args.workers,
        ).for_outer(outer_snapshot),
        "block-sample": lambda: BlockSampleEstimator(
            outer_snapshot, inner_snapshot, sample_size=args.sample_size
        ),
    }
    if args.strict:
        estimator = factories[args.technique]()
    else:
        order = [args.technique] + [t for t in factories if t != args.technique]
        estimator = FallbackJoinEstimator(
            tiers=[(name, factories[name]) for name in order],
            guaranteed_bound=float(outer.num_blocks * inner.num_blocks),
        )
    start = time.perf_counter()
    if args.strict:
        estimate, outcome = estimator.estimate(args.k), None
    else:
        estimate, outcome = estimator.walk(args.k)
    elapsed = time.perf_counter() - start
    actual = knn_join_cost(outer, inner, args.k)
    error = abs(estimate - actual) / max(actual, 1)
    print(f"technique:  {args.technique}")
    print(f"estimate:   {estimate:.0f} blocks ({elapsed * 1e3:.2f} ms)")
    print(f"actual:     {actual} blocks")
    print(f"error:      {error:.1%}")
    _print_preprocessing(estimator)
    _print_degradation(outcome)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spatial k-NN cost estimation (EDBT 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", choices=sorted(_GENERATORS), default="osm")
    p.add_argument("-n", type=int, default=50_000, help="number of points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("index-stats", help="quadtree statistics of a CSV")
    p.add_argument("points", help="points CSV")
    p.add_argument("--capacity", type=int, default=256)
    p.set_defaults(func=_cmd_index_stats)

    p = sub.add_parser("visualize", help="ASCII density map of a CSV")
    p.add_argument("points", help="points CSV")
    p.add_argument("--blocks", action="store_true", help="overlay quadtree blocks")
    p.add_argument("--capacity", type=int, default=256)
    p.add_argument("--width", type=int, default=70)
    p.add_argument("--height", type=int, default=24)
    p.set_defaults(func=_cmd_visualize)

    p = sub.add_parser("staircase", help="Figure-4-style staircase at a point")
    p.add_argument("points", help="points CSV")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--max-k", type=int, default=1_024)
    p.add_argument("--capacity", type=int, default=256)
    p.set_defaults(func=_cmd_staircase)

    p = sub.add_parser("estimate-select", help="estimate a k-NN-Select cost")
    p.add_argument("points", help="points CSV")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("-k", type=int, default=None)
    p.add_argument(
        "--batch",
        metavar="QUERIES_CSV",
        default=None,
        help="replay an x,y,k query CSV through execute_batch and report "
        "throughput instead of estimating one query",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help="serve --batch through N supervised shard workers "
        "(0 = in-process batch serving); with --shards, --workers sizes "
        "each shard's process pool",
    )
    p.add_argument(
        "--shard-mode",
        choices=["replica", "data"],
        default="replica",
        help="sharded-serving layout: 'replica' ships the full dataset "
        "to every shard; 'data' gives each shard a block-aligned slice "
        "and streams a cross-shard k-NN merge at the coordinator",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-batch deadline for sharded serving, propagated into "
        "the workers (default: unbounded)",
    )
    p.add_argument(
        "--technique", choices=["staircase", "density"], default="staircase"
    )
    p.add_argument("--max-k", type=int, default=1_024)
    p.add_argument("--capacity", type=int, default=256)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for catalog preprocessing (default: serial)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="disable estimator fallback; technique failures become errors",
    )
    p.add_argument(
        "--pin-operator",
        action="append",
        metavar="[TABLE:]KIND=OPERATOR",
        default=None,
        help="force an operator choice, e.g. 'select=filter-then-knn' "
        "or 'points:select=incremental-knn' (repeatable; inapplicable "
        "pins fall through to cost arbitration)",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="also print the engine optimizer's plan for the query: "
        "chosen operator, rejected candidates with costs, and the "
        "rule that decided",
    )
    p.set_defaults(func=_cmd_estimate_select)

    p = sub.add_parser("estimate-join", help="estimate a k-NN-Join cost")
    p.add_argument("outer", help="outer relation CSV")
    p.add_argument("inner", help="inner relation CSV")
    p.add_argument("-k", type=int, required=True)
    p.add_argument(
        "--technique",
        choices=["catalog-merge", "block-sample", "virtual-grid"],
        default="catalog-merge",
    )
    p.add_argument("--sample-size", type=int, default=400)
    p.add_argument("--grid-size", type=int, default=10)
    p.add_argument("--max-k", type=int, default=1_024)
    p.add_argument("--capacity", type=int, default=256)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for catalog preprocessing (default: serial)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="disable estimator fallback; technique failures become errors",
    )
    p.set_defaults(func=_cmd_estimate_join)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Estimation-taxonomy failures (malformed input files, invalid
    queries, corrupt catalogs) exit with code 2 and a one-line message.
    Serving-capacity refusals — admission control shedding the batch
    (``OverloadError``) or strict sharded serving losing a shard
    (``ShardExhaustedError``) — exit with code 3: the request was fine,
    the tier was not, so retrying later can succeed.  Anything else is
    a bug and propagates with a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OverloadError, ShardExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            print(f"retry after: {retry_after:.2f}s", file=sys.stderr)
        return 3
    except (EstimationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
