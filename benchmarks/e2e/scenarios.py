"""The four replay workloads.

Each workload is a fixed list of short requests made from the seed; a
request is served by exactly one public call (``serve``), which is the
only thing the runner times.  Closed loop, one client.

* ``plan_estimate``  — cost estimation and plan choice, nothing executed.
* ``execute_local``  — the in-process engine answering k-NN selects.
* ``serve_data``     — the *same* requests through a 2-shard data tier.
* ``churn_maintain`` — catalog maintenance under inserts and deletes.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.datasets import WORLD_BOUNDS, generate_osm_like
from repro.engine import (
    KnnJoinQuery,
    SpatialEngine,
    SpatialTable,
    StatisticsManager,
)
from repro.engine.physical import execute_incremental_knn_batch
from repro.estimators import MaintainedStaircaseEstimator, StaircaseEstimator
from repro.geometry import Point, kernels
from repro.index import IndexSnapshot, MutableQuadtree, partition_bounds
from repro.knn import brute_force_knn, select_cost_exact
from repro.serving import ShardedServingTier
from repro.workloads import QueryBatch, churn_phases
from repro.workloads.metrics import error_ratio

from spec import Sizes

#: The urban structure (city centres, road network) is the same for
#: every seed; the seed draws the points, the queries and the churn.
#: A seed then changes *which* points and queries, not what kind of
#: dataset is measured, so runs with different seeds are comparable.
STRUCTURE_SEED = 2015

#: Requests are homogeneous in k-band, so the slow tail of the request
#: distribution is the large-k band, not a random mix.
K_BANDS = ((1, 4), (5, 16), (17, 64), (65, 256))

INCREMENTAL = "incremental-knn"
POINTS, POIS = "points", "pois"
#: Two workers plus the coordinator is the most a 2-core machine
#: measures without timing the scheduler.
N_SHARDS = 2


class Fixture:
    """Seed-derived inputs shared by the workloads and the layer probes."""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = int(seed)
        self.sizes = sizes
        self.points = generate_osm_like(
            sizes.n_points, seed=self.rng(0), structure_seed=STRUCTURE_SEED
        )
        self.pois = generate_osm_like(
            sizes.n_pois, seed=self.rng(1), structure_seed=STRUCTURE_SEED
        )

    def rng(self, stream: int) -> np.random.Generator:
        """An independent generator per input stream of this seed."""
        return np.random.default_rng([self.seed, stream])

    def select_requests(self, n_requests: int, batch: int, stream: int) -> list[QueryBatch]:
        """``n_requests`` batches cycling k-band x focal-point kind.

        Request ``j`` draws its k values log-spaced over band ``j % 4``
        (the same values for every seed) and its focal points from the
        data when ``(j // 4) % 2 == 0`` and uniformly over the world
        otherwise (sparse regions: few points per block, many blocks
        per answer).
        """
        rng = self.rng(stream)
        out = []
        for j in range(n_requests):
            lo, hi = K_BANDS[j % len(K_BANDS)]
            hi = min(hi, self.sizes.max_k)
            ks = np.rint(np.geomspace(lo, hi, batch)).astype(np.int64)
            if (j // len(K_BANDS)) % 2 == 0:
                focal = self.points[rng.integers(0, self.points.shape[0], size=batch)]
            else:
                focal = np.column_stack(
                    [
                        rng.uniform(WORLD_BOUNDS.x_min, WORLD_BOUNDS.x_max, size=batch),
                        rng.uniform(WORLD_BOUNDS.y_min, WORLD_BOUNDS.y_max, size=batch),
                    ]
                )
            out.append(QueryBatch(focal, ks))
        return out

    def mixed_batch(self, n: int, stream: int) -> QueryBatch:
        """``n`` queries over all k-bands and both focal kinds, as one batch."""
        batches = self.select_requests(8, n // 8, stream)
        return QueryBatch(
            np.concatenate([b.points for b in batches]),
            np.concatenate([b.ks for b in batches]),
        )

    def build_engine(self, with_pois: bool = False) -> SpatialEngine:
        """A fresh engine over fresh tables (nothing cached, no catalogs)."""
        sizes = self.sizes
        engine = SpatialEngine(
            StatisticsManager(max_k=sizes.max_k, join_sample_size=sizes.join_sample_size)
        )
        engine.register(SpatialTable(POINTS, self.points, capacity=sizes.capacity))
        if with_pois:
            engine.register(SpatialTable(POIS, self.pois, capacity=sizes.capacity))
        return engine


@dataclass(frozen=True)
class Child:
    """One layer call behind a request, for the traced run.

    Either ``run`` re-executes the layer's public call on the request's
    inputs, or ``seconds`` is a duration the program itself reported.
    """

    name: str
    run: Callable[[], object] | None = None
    seconds: float | None = None
    children: tuple["Child", ...] = ()


@dataclass
class Verification:
    """Outcome of a workload's answer checks plus its exact metrics."""

    checks: list[tuple[str, bool, str]]
    exact: dict[str, float]


def _chain_walk_seconds(explanations) -> float:
    return sum(d.elapsed_us for e in explanations for d in e.trail) * 1e-6


def _plan_digest(explanations) -> tuple:
    return (
        tuple(e.chosen for e in explanations),
        np.array([c for e in explanations for __, c in sorted(e.alternatives.items())]),
    )


def answer_digest(results, explanations) -> tuple:
    return (
        tuple(e.chosen for e in explanations),
        np.array([r.blocks_scanned for r in results], dtype=np.int64),
        np.array([e.cost_of(e.chosen) for e in explanations]),
        np.concatenate([r.row_ids for r in results]),
    )


def same_digest(a: tuple, b: tuple) -> bool:
    """Exact (bit-for-bit) equality of two response digests."""
    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b)
    )


def same_answers(a: tuple, b: tuple) -> bool:
    """Two answer digests agree on plans, blocks scanned and rows.

    Their cost estimates may differ: a data tier's estimate is a sum
    over shards, not the unsharded engine's.
    """
    return same_digest(a[:2] + a[3:], b[:2] + b[3:])


def _answer_metrics(references: list[tuple], catalog_bytes: int) -> dict:
    """Exact metrics of the executed queries: actual blocks scanned
    beside the chosen plan's estimate, read off the reference answers."""
    actual = np.concatenate([blocks for __, blocks, __, __ in references]).astype(float)
    estimated = np.concatenate([costs for __, __, costs, __ in references])
    return {
        "blocks_per_query": float(actual.mean()),
        "est_error_ratio": float(
            np.mean([error_ratio(e, a) for e, a in zip(estimated, actual)])
        ),
        "catalog_mb": catalog_bytes / 1e6,
    }


def _estimate_accuracy(snapshot, blocks, batch: QueryBatch, estimates) -> tuple[float, float]:
    """``(mean error ratio, mean actual blocks)`` against the exact cost."""
    actual = [
        select_cost_exact(snapshot, blocks, batch.point(i), int(batch.ks[i]))
        for i in range(len(batch))
    ]
    ratios = [error_ratio(float(e), float(a)) for e, a in zip(estimates, actual)]
    return float(np.mean(ratios)), float(np.mean(actual))


class Workload:
    """What the runner needs from a workload."""

    name = ""
    root_span = ""
    #: True when a pass consumes the state it runs on, so every pass
    #: starts from a fresh set-up (and every set-up is a sample).
    rebuild_each_pass = False
    n_requests = 0

    def __init__(self, fixture: Fixture) -> None:
        self.fixture = fixture
        self.sizes = fixture.sizes

    def ops(self, j: int) -> int:
        raise NotImplementedError

    @property
    def ops_per_pass(self) -> int:
        return sum(self.ops(j) for j in range(self.n_requests))

    def setup(self) -> None:
        """Cold set-up: raw points to the first answered request."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` created."""

    def serve(self, j: int):
        """The one public call that serves request ``j`` (timed)."""
        raise NotImplementedError

    def digest(self, j: int, response) -> tuple:
        """What must repeat bit-for-bit every time request ``j`` is served."""
        raise NotImplementedError

    def bad_ops(self, j: int, response) -> int:
        """Operations of this response that were answered but not well."""
        return 0

    def trace_children(self, j: int, response) -> tuple[Child, ...]:
        return ()

    def verify(self, references: list[tuple]) -> Verification:
        raise NotImplementedError

    def extra_rss_kb(self) -> int:
        """Peak RSS of processes the workload started, in kB."""
        return 0


# ----------------------------------------------------------------------
class PlanEstimate(Workload):
    """Staircase and Catalog-Merge estimation plus the selection chain.

    This is the paper: the cost of a k-NN select or join is estimated
    from catalogs and a plan is chosen; nothing is executed.  Set-up is
    catalog preprocessing (Figures 13/21/23).
    """

    name = "plan_estimate"
    root_span = "engine.explain"

    def __init__(self, fixture: Fixture) -> None:
        super().__init__(fixture)
        sizes = self.sizes
        selects = fixture.select_requests(sizes.plan_select_requests, sizes.plan_batch, 10)
        join_ks = np.rint(np.geomspace(1, sizes.max_k, sizes.plan_join_requests))
        stride = sizes.plan_select_requests // sizes.plan_join_requests
        self.requests: list[QueryBatch | KnnJoinQuery] = []
        for i, k in enumerate(join_ks):
            self.requests.extend(selects[i * stride : (i + 1) * stride])
            self.requests.append(KnnJoinQuery(POIS, POINTS, int(k)))
        self.queries = [
            r.as_knn_queries(POINTS) if isinstance(r, QueryBatch) else None
            for r in self.requests
        ]
        self.n_requests = len(self.requests)
        self._first_join = stride
        self.engine: SpatialEngine | None = None

    def ops(self, j: int) -> int:
        request = self.requests[j]
        return len(request) if isinstance(request, QueryBatch) else 1

    def setup(self) -> None:
        self.engine = self.fixture.build_engine(with_pois=True)
        self.serve(0)
        self.serve(self._first_join)

    def serve(self, j: int):
        queries = self.queries[j]
        if queries is None:
            return [self.engine.explain(self.requests[j])]
        return self.engine.explain_batch(queries)

    def digest(self, j: int, response) -> tuple:
        return _plan_digest(response)

    def bad_ops(self, j: int, response) -> int:
        return sum(1 for e in response if e.degraded)

    def trace_children(self, j: int, response) -> tuple[Child, ...]:
        stats = self.engine.stats
        walk = Child("optimizer.chain_walk", seconds=_chain_walk_seconds(response))
        request = self.requests[j]
        if not isinstance(request, QueryBatch):
            estimator = stats.join_estimator_for_planning(request.outer, request.inner)
            return (
                Child("estimators.join_estimate", lambda: estimator.estimate(request.k)),
                walk,
            )
        estimator = stats.select_estimator_for_planning(POINTS)
        snapshot = stats.snapshot(POINTS)
        return (
            Child(
                "engine.stats_estimate",
                lambda: stats.estimate_select_costs_batch(
                    POINTS, estimator, request.points, request.ks
                ),
                children=(
                    Child(
                        "index.leaf_binning",
                        lambda: snapshot.leaf_ids_for_points(request.points),
                    ),
                ),
            ),
            walk,
        )

    def verify(self, references: list[tuple]) -> Verification:
        engine, sizes = self.engine, self.sizes
        table = engine.stats.table(POINTS)
        n_blocks = table.index.num_blocks
        in_range = all(
            np.all(np.isfinite(costs)) and costs.min() >= 0.0
            and (isinstance(self.requests[j], KnnJoinQuery) or costs.max() <= n_blocks)
            for j, (__, costs) in enumerate(references)
        )
        # Batch planning must equal planning the same queries one by one.
        probe = [j for j, q in enumerate(self.queries) if q is not None][:: max(1, self.n_requests // 8)]
        scalar_equal = all(
            same_digest(
                _plan_digest([engine.explain(q) for q in self.queries[j][:4]]),
                _plan_digest(engine.explain_batch(self.queries[j][:4])),
            )
            for j in probe
        )
        sample = self.fixture.mixed_batch(sizes.verify_sample, 20)
        estimates = [
            e.alternatives[INCREMENTAL]
            for e in engine.explain_batch(sample.as_knn_queries(POINTS))
        ]
        error, blocks = _estimate_accuracy(
            IndexSnapshot.from_index(table.index), table.index.blocks, sample, estimates
        )
        return Verification(
            checks=[
                ("estimates within [0, n_blocks]", bool(in_range), f"n_blocks={n_blocks}"),
                ("batch plan == scalar plan", scalar_equal, f"{len(probe)} requests x 4"),
            ],
            exact={
                "blocks_per_query": blocks,
                "est_error_ratio": error,
                "catalog_mb": engine.stats.total_catalog_bytes() / 1e6,
            },
        )


# ----------------------------------------------------------------------
class ExecuteLocal(Workload):
    """The in-process engine answering k-NN selects.

    MINDIST kernels and the batched distance-browsing executor do most
    of the work and estimation the rest — the mirror image of
    ``plan_estimate``.
    """

    name = "execute_local"
    root_span = "engine.execute_batch"

    def __init__(self, fixture: Fixture) -> None:
        super().__init__(fixture)
        sizes = self.sizes
        self.requests = fixture.select_requests(sizes.exec_requests, sizes.exec_batch, 11)
        self.queries = [r.as_knn_queries(POINTS) for r in self.requests]
        self.n_requests = len(self.requests)
        self.engine: SpatialEngine | None = None

    def ops(self, j: int) -> int:
        return len(self.requests[j])

    def setup(self) -> None:
        self.engine = self.fixture.build_engine()
        self.serve(0)

    def serve(self, j: int):
        return self.engine.execute_batch(self.queries[j])

    def digest(self, j: int, response) -> tuple:
        return answer_digest([r for r, __ in response], [e for __, e in response])

    def bad_ops(self, j: int, response) -> int:
        return sum(1 for __, e in response if e.degraded)

    def trace_children(self, j: int, response) -> tuple[Child, ...]:
        return _execute_children(self.engine, self.requests[j], self.queries[j], response)

    def verify(self, references: list[tuple]) -> Verification:
        points = self.fixture.points
        picks = np.linspace(0, self.n_requests - 1, 16).astype(int)
        brute_ok = True
        for j in picks:
            for query, (result, __) in zip(self.queries[j][::2], self.serve(j)[::2]):
                expect = brute_force_knn(points, query.query, query.k)
                got = points[result.row_ids]
                # Equal neighbours up to the order of exact distance ties.
                brute_ok &= np.array_equal(
                    np.hypot(*(expect - [query.query.x, query.query.y]).T),
                    np.hypot(*(got - [query.query.x, query.query.y]).T),
                )
        return Verification(
            checks=[("answers == brute force", bool(brute_ok), f"{len(picks)} requests")],
            exact=_answer_metrics(references, self.engine.stats.total_catalog_bytes()),
        )


def _execute_children(engine, batch: QueryBatch, queries, response) -> tuple[Child, ...]:
    stats = engine.stats
    table = stats.table(POINTS)
    snapshot = stats.snapshot(POINTS)
    estimator = stats.select_estimator_for_planning(POINTS)
    browsed = [q for q, (__, e) in zip(queries, response) if e.chosen == INCREMENTAL]
    return (
        Child(
            "engine.explain_batch",
            lambda: engine.explain_batch(queries),
            children=(
                Child(
                    "engine.stats_estimate",
                    lambda: stats.estimate_select_costs_batch(
                        POINTS, estimator, batch.points, batch.ks
                    ),
                ),
            ),
        ),
        Child(
            "engine.executor",
            lambda: execute_incremental_knn_batch(table, browsed, snapshot),
            children=(
                Child(
                    "geometry.mindist_batch",
                    lambda: kernels.mindist_rects_batch(batch.points, snapshot.rects),
                ),
            ),
        ),
    )


def build_tier(fixture: Fixture) -> ShardedServingTier:
    """An unstarted 2-shard data tier over a fresh table of the points."""
    sizes = fixture.sizes
    return ShardedServingTier(
        SpatialTable(POINTS, fixture.points, capacity=sizes.capacity),
        shard_mode="data",
        n_shards=N_SHARDS,
        workers_per_shard=1,
        manager_kwargs={"max_k": sizes.max_k},
    )


def stop_tier(tier: ShardedServingTier) -> None:
    """Close the tier and wait until its worker processes are gone.

    ``tier.close()`` terminates the workers without waiting for them,
    so they are listed first and joined (then killed) after.
    """
    workers = multiprocessing.active_children()
    tier.close()
    for process in workers:
        process.join(timeout=5)
        if process.is_alive():
            process.kill()
            process.join(timeout=5)


def workers_rss_kb(tier: ShardedServingTier) -> int:
    """Sum of the live workers' peak RSS, in kB."""
    return sum(s["ru_maxrss_kb"] for s in tier.worker_stats())


# ----------------------------------------------------------------------
class ServeData(Workload):
    """The ``execute_local`` requests through a 2-shard data tier.

    Identical inputs make ``serve_data - execute_local`` the cost of
    transport, worker rounds and the cross-shard merge.
    """

    name = "serve_data"
    root_span = "serving.serve"

    def __init__(self, fixture: Fixture) -> None:
        super().__init__(fixture)
        sizes = self.sizes
        self.requests = fixture.select_requests(sizes.exec_requests, sizes.exec_batch, 11)
        self.queries = [r.as_knn_queries(POINTS) for r in self.requests]
        self.n_requests = len(self.requests)
        self.tier: ShardedServingTier | None = None
        self.retries = 0
        self.respawns = 0
        self._reference: SpatialEngine | None = None

    def ops(self, j: int) -> int:
        return len(self.requests[j])

    def setup(self) -> None:
        self.tier = build_tier(self.fixture)
        try:
            self.tier.start()
            self.serve(0)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.tier is not None:
            tier, self.tier = self.tier, None
            stop_tier(tier)

    def serve(self, j: int):
        return self.tier.serve(self.requests[j])

    def digest(self, j: int, response) -> tuple:
        return answer_digest(response.results, response.explanations)

    def bad_ops(self, j: int, response) -> int:
        self.retries += sum(s.retries for s in response.shards)
        self.respawns += sum(s.respawns for s in response.shards)
        return response.n_degraded + response.n_partial

    def reference_engine(self) -> SpatialEngine:
        """The unsharded engine every served answer must equal."""
        if self._reference is None:
            self._reference = self.fixture.build_engine()
        return self._reference

    def trace_children(self, j: int, response) -> tuple[Child, ...]:
        engine, batch, queries = self.reference_engine(), self.requests[j], self.queries[j]
        return (
            # The work itself, as the unsharded engine does it; what is
            # left of the root is transport, worker rounds and the merge.
            Child("engine.execute_batch", lambda: engine.execute_batch(queries)),
            Child(
                "serving.pickle",
                lambda: (
                    pickle.loads(pickle.dumps(batch)),
                    pickle.loads(pickle.dumps(response)),
                ),
            ),
        )

    def verify(self, references: list[tuple]) -> Verification:
        engine = self.reference_engine()
        identical = True
        for j in range(self.n_requests):
            local = engine.execute_batch(self.queries[j])
            identical &= same_answers(
                references[j], answer_digest([r for r, __ in local], [e for __, e in local])
            )
        pools = self.tier.pools_spawned
        return Verification(
            checks=[
                ("served == in-process engine", bool(identical), f"{self.n_requests} requests"),
                ("pools spawned once", pools == N_SHARDS, f"pools_spawned={pools}"),
                ("no retries or respawns", self.retries == 0 and self.respawns == 0,
                 f"retries={self.retries} respawns={self.respawns}"),
            ],
            exact=_answer_metrics(references, engine.stats.total_catalog_bytes()),
        )

    def extra_rss_kb(self) -> int:
        return workers_rss_kb(self.tier)


def churn_initial_points(sizes: Sizes) -> np.ndarray:
    """The points the churned tree starts from — the same for every seed.

    The tree is small so that a phase stays short, and a small sample
    of clustered data differs a lot from draw to draw (catalog bytes
    spread 16 % over ten seeds).  The seed therefore draws where the
    mutations land and what is asked, not the starting tree.
    """
    return generate_osm_like(
        sizes.churn_points,
        seed=np.random.default_rng(STRUCTURE_SEED),
        structure_seed=STRUCTURE_SEED,
    )


# ----------------------------------------------------------------------
class ChurnMaintain(Workload):
    """Incremental catalog maintenance beside reads.

    Each request is a phase of a moving-hotspot churn: a few inserts
    and a delete, one ``refresh_incremental()``, then scalar estimates.
    The same index, catalog and estimator layers serve writes here, so
    a catalog layout that speeds ``plan_estimate`` lookups but makes
    reconciliation dearer shows up in this workload.
    """

    name = "churn_maintain"
    root_span = "churn.phase"
    rebuild_each_pass = True

    def __init__(self, fixture: Fixture) -> None:
        super().__init__(fixture)
        sizes = self.sizes
        self.initial = churn_initial_points(sizes)
        self.phases = churn_phases(
            self.initial,
            WORLD_BOUNDS,
            phases=sizes.churn_phases,
            inserts_per_phase=sizes.churn_inserts,
            deletes_per_phase=sizes.churn_deletes,
            queries_per_phase=sizes.churn_queries,
            max_k=sizes.churn_max_k,
            hotspot_fraction=0.9,
            seed=int(fixture.rng(31).integers(0, 2**31)),
        )
        self.focal = [
            [Point(float(x), float(y)) for x, y in phase.queries] for phase in self.phases
        ]
        self.n_requests = len(self.phases)
        self.tree: MutableQuadtree | None = None
        self.estimator: MaintainedStaircaseEstimator | None = None
        self._parts = (0.0, 0.0, 0.0)

    def ops(self, j: int) -> int:
        return self.phases[j].n_mutations + len(self.focal[j])

    def setup(self) -> None:
        sizes = self.sizes
        self.tree = MutableQuadtree(
            self.initial, bounds=WORLD_BOUNDS, capacity=sizes.churn_capacity
        )
        self.estimator = MaintainedStaircaseEstimator(self.tree, max_k=sizes.churn_max_k)
        self.estimator.refresh_incremental()
        self.estimator.estimate(self.focal[0][0], int(self.phases[0].ks[0]))

    def serve(self, j: int):
        phase, tree, estimator = self.phases[j], self.tree, self.estimator
        t0 = time.perf_counter()
        for x, y in phase.inserts:
            tree.insert(float(x), float(y))
        for x, y in phase.deletes:
            tree.delete(float(x), float(y))
        t1 = time.perf_counter()
        report = estimator.refresh_incremental()
        t2 = time.perf_counter()
        estimates = [
            estimator.estimate(point, int(k)) for point, k in zip(self.focal[j], phase.ks)
        ]
        self._parts = (t1 - t0, t2 - t1, time.perf_counter() - t2)
        return estimates, report

    def digest(self, j: int, response) -> tuple:
        estimates, report = response
        return (
            np.array(estimates),
            (report.generation, report.catalogs_total, report.catalogs_rebuilt),
        )

    def trace_children(self, j: int, response) -> tuple[Child, ...]:
        mutate, reconcile, estimate = self._parts
        return (
            Child("index.mutate", seconds=mutate),
            Child("estimators.reconcile", seconds=reconcile),
            Child("estimators.estimate_scalar", seconds=estimate),
        )

    def verify(self, references: list[tuple]) -> Verification:
        """The maintained catalogs on the final tree equal a fresh build."""
        tree, sizes = self.tree, self.sizes
        fresh = StaircaseEstimator(tree, aux_index=tree, max_k=sizes.churn_max_k)
        store = fresh.to_store()
        kept = self.estimator.catalog_entries()
        leaves = partition_bounds(tree)
        catalogs_equal = len(kept) == leaves.shape[0] and all(
            kept.get(tuple(float(v) for v in row))
            == (store.get(f"center/{i}"), store.get(f"corners/{i}"))
            for i, row in enumerate(leaves)
        )
        sample = self.fixture.mixed_batch(sizes.verify_sample, 32)
        sample = QueryBatch(sample.points, np.minimum(sample.ks, sizes.churn_max_k))
        queries = [(sample.point(i), int(sample.ks[i])) for i in range(len(sample))]
        maintained = [self.estimator.estimate(p, k) for p, k in queries]
        rebuilt = [fresh.estimate(p, k) for p, k in queries]
        error, blocks = _estimate_accuracy(
            IndexSnapshot.from_index(tree), tree.blocks, sample, maintained
        )
        return Verification(
            checks=[
                ("maintained catalogs == fresh build", bool(catalogs_equal),
                 f"{leaves.shape[0]} leaves"),
                # Catalogs are compared exactly; the interpolated
                # estimates to the last bits only, because the two
                # estimators take the query-to-centre distance with
                # math.hypot and np.hypot, which differ by an ulp.
                ("maintained estimates == fresh build",
                 bool(np.allclose(maintained, rebuilt, rtol=1e-12, atol=0.0)),
                 f"{len(sample)} queries"),
            ],
            exact={
                "blocks_per_query": blocks,
                "est_error_ratio": error,
                "catalog_mb": self.estimator.storage_bytes() / 1e6,
            },
        )


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (PlanEstimate, ExecuteLocal, ServeData, ChurnMaintain)
}
