"""The array select planner against the per-query oracle.

``SpatialEngine.explain_batch`` plans a table's selects as arrays: one
``guard_select_batch`` pass, one batched estimate, one
``arbitrate_batch`` over the group's cost matrix.  This suite holds it
to ``tests/reference_planner.py`` — the per-query planner it replaced —
field for field (``LinkDecision.elapsed_us`` aside: it is a clock), and
to a loop of scalar guards on errors:

* a hypothesis property over mixed batches: several tables (one empty),
  σ < 1 predicates, regions (zero-area ones too), far-outside points,
  ``k > n_rows``, exact-table and wildcard pins (``region-pruned-knn``
  on region-less rows included), ``fallback=False`` and a primary tier
  corrupted through ``resilience.faultinject``;
* error parity: a batch whose first invalid query is at position ``i``
  raises exactly what a scalar loop raises at ``i``;
* ``guard_select_batch`` against a loop of ``guard_select_query`` on
  raw arrays (non-finite coordinates, bad k types, huge k, the far
  boundary to the last ulp);
* structure, by call counts (no wall-clock): a 64-query single-table
  batch arbitrates once, builds 64 explanations, no fallback outcome
  and no physical operator, and words no decision note until one is
  read; explaining a batch twice does the same work twice (no memo
  keyed on query values);
* k at the int64 edge, scalar and batch;
* the certificates are the old rules: ``estimate_batch`` (Staircase
  both variants and with a zero-diagonal leaf, each with and without
  the fallback chain; points inside, on the bounds' edges and corners,
  outside and non-finite; k in and past the catalogs and below 1;
  arrays, lists, int32 and scalar k) is the scalar loop bit for bit,
  errors included; ``explain_batch`` is the oracle and the per-query
  ``explain`` loop at those edges; a short catalog still raises its
  leaf's own error; the chain's returned outcome is the row-by-row
  walk's under healthy, raising, NaN and negative tiers; a returned
  cost array is the caller's own;
* a deterministic call budget for planning a warm 4-query batch and a
  single query (``sys.setprofile``, no clock).
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.catalog import CatalogLookupError
from repro.datasets import generate_osm_like, generate_uniform
from repro.engine import (
    KnnJoinQuery,
    KnnSelectQuery,
    RangeQuery,
    SpatialEngine,
    SpatialTable,
    StatisticsManager,
    column,
)
from repro.engine import engine as engine_module
from repro.engine import physical, planner
from repro.estimators import DensityBasedEstimator, StaircaseEstimator
from repro.estimators.base import SelectCostEstimator
from repro.geometry import Point, Rect
from repro.index import IndexSnapshot, MutableQuadtree, Quadtree, partition_bounds
from repro.resilience import (
    FaultInjectingSelectEstimator,
    FaultSchedule,
    FaultSpec,
    InvalidQueryError,
)
from repro.resilience import fallback, guards
from repro.resilience.guards import guard_select_batch, guard_select_query, require_valid_k
from tests.reference_planner import (
    reference_effective_k,
    reference_explain_batch,
    reference_guard,
)
from tests.test_block_locator import _Partition

MAX_K = 32
K_CEILING = 2**63 - 1

TABLES = (
    SpatialTable(
        "a", generate_osm_like(400, seed=3), {"v": np.arange(400) % 10}, capacity=16
    ),
    SpatialTable("b", generate_uniform(250, seed=4), {"v": np.arange(250) % 7}, capacity=32),
    SpatialTable("empty", np.empty((0, 2)), {"v": np.empty(0, dtype=np.int64)}, capacity=16),
)
N_ROWS = {table.name: table.n_rows for table in TABLES}


def _engine(*, fallback=True, pins=None, fault=False, strict=False) -> SpatialEngine:
    engine = SpatialEngine(
        StatisticsManager(
            max_k=MAX_K,
            join_sample_size=20,
            fallback=fallback,
            pinned_operators=pins,
            strict=strict,
        )
    )
    for table in TABLES:
        engine.register(table)
    if fault:
        # The proxy corrupts every third scalar estimate: batches reach
        # it through the ABC's per-query loop, so the chain degrades
        # exactly those rows.
        chain = engine.stats.resilient_select_estimator("a")
        chain.wrap_tier(
            chain.primary_tier,
            lambda est: FaultInjectingSelectEstimator(
                est, FaultSchedule(FaultSpec.corrupting(), every=3)
            ),
        )
    return engine


def _fields(explanation) -> dict:
    """Every field; the preprocessing timings differ between two builds."""
    out = dict(vars(explanation))
    out["preprocessing"] = {
        key: value for key, value in out["preprocessing"].items() if not key.endswith("seconds")
    }
    return out


_coordinate = st.floats(0.0, 1000.0, allow_nan=False)
_region = st.one_of(
    st.none(),
    st.tuples(_coordinate, _coordinate, st.floats(0.0, 400.0), st.floats(0.0, 400.0)).map(
        lambda r: Rect(r[0], r[1], r[0] + r[2], r[1] + r[3])
    ),
    _coordinate.map(lambda x: Rect(x, 100.0, x, 700.0)),  # zero area
)


@st.composite
def _select(draw, names=("a", "a", "b", "empty")):
    name = draw(st.sampled_from(names))
    if draw(st.integers(0, 9)) == 0:
        point = Point(draw(st.sampled_from([-1e5, 1e5])), draw(_coordinate))  # far outside
    else:
        point = Point(draw(_coordinate), draw(_coordinate))
    k = draw(st.one_of(st.integers(1, 3 * MAX_K), st.sampled_from([260, 399, 401, 5000])))
    predicate = draw(st.one_of(st.none(), st.integers(1, 9).map(lambda t: column("v") < t)))
    return KnnSelectQuery(name, point, k=k, predicate=predicate, region=draw(_region))


_other = st.one_of(
    st.builds(KnnJoinQuery, st.just("b"), st.just("a"), st.integers(1, MAX_K)),
    st.builds(KnnJoinQuery, st.just("empty"), st.just("a"), st.integers(1, 4)),
    _region.filter(lambda r: r is not None).map(lambda r: RangeQuery("a", r)),
)

_pins = st.sampled_from(
    [
        None,
        {"a:select": "filter-then-knn"},
        {"select": "incremental-knn"},
        {"select": "region-pruned-knn"},  # inapplicable on region-less rows
        {"b:select": "region-pruned-knn", "select": "filter-then-knn"},
    ]
)


@st.composite
def _configs(draw):
    fallback = draw(st.booleans())
    return {
        "fallback": fallback,
        "pins": draw(_pins),
        "fault": fallback and draw(st.booleans()),
    }


@settings(max_examples=40, deadline=None)
@given(
    config=_configs(),
    queries=st.lists(st.one_of(_select(), _select(), _select(), _other), min_size=1, max_size=20),
)
def test_explain_batch_equals_the_per_query_oracle(config, queries):
    # A repeat within the batch is planned as a query of its own.
    queries = queries + queries[: len(queries) // 2]
    expected = reference_explain_batch(_engine(**config).stats, queries)
    got = _engine(**config).explain_batch(queries)
    assert [_fields(e) for e in got] == [_fields(e) for e in expected]
    for explanation in got:
        (record,) = explanation.trail
        assert record.elapsed_us > 0.0


def test_the_property_reaches_every_rule():
    """The shapes the property draws do reach degraded tiers, pins,
    region columns, σ < 1 and guard notes — checked once, here."""
    queries = [
        KnnSelectQuery("a", Point(500.0, 500.0), k=5, region=Rect(400, 400, 600, 600)),
        KnnSelectQuery("a", Point(500.0, 500.0), k=5, predicate=column("v") < 3),
        KnnSelectQuery("a", Point(1e5, 5.0), k=401, region=Rect(10, 100, 10, 700)),
        KnnSelectQuery("empty", Point(5.0, 5.0), k=3),
    ] * 4
    expected = reference_explain_batch(
        _engine(fault=True, pins={"select": "region-pruned-knn"}).stats, queries
    )
    got = _engine(fault=True, pins={"select": "region-pruned-knn"}).explain_batch(queries)
    assert [_fields(e) for e in got] == [_fields(e) for e in expected]
    assert any(e.degraded for e in got)
    assert {e.decided_by for e in got} == {"pinned-override", "cost-based"}
    assert any(e.selectivity < 1.0 and e.effective_k > 5 for e in got)
    assert any("exceeds" in note for e in got for note in e.notes)
    assert any("zero area" in note for e in got for note in e.notes)
    assert any("outside" in note for e in got for note in e.notes)


# ----------------------------------------------------------------------
# Error parity
# ----------------------------------------------------------------------
def _outcome(call):
    try:
        call()
    except (InvalidQueryError, KeyError) as exc:
        return type(exc), str(exc)
    return None


_bad_select = st.one_of(
    st.builds(
        KnnSelectQuery,
        st.sampled_from(["a", "b"]),
        st.just(Point(500.0, 500.0)),
        st.sampled_from([1.5, True, 2**63, 2**64]),
    ),
    st.builds(KnnSelectQuery, st.just("ghost"), st.just(Point(1.0, 1.0)), st.just(3)),
)
_bad_other = st.one_of(
    st.builds(KnnJoinQuery, st.just("b"), st.just("a"), st.sampled_from([2**63, 2.5])),
    st.builds(KnnJoinQuery, st.just("ghost"), st.just("a"), st.just(3)),
)


@settings(max_examples=60, deadline=None)
@given(
    queries=st.lists(
        st.one_of(_select(), _select(), _other, _bad_select, _bad_other), min_size=1, max_size=12
    ),
    strict=st.booleans(),
)
def test_the_first_offender_in_batch_order_raises(queries, strict):
    engine = _engine(strict=strict)
    expected = _outcome(lambda: [reference_guard(engine.stats, query) for query in queries])
    assert _outcome(lambda: engine.explain_batch(queries)) == expected
    scalar = _engine(strict=strict)
    if expected is not None:
        assert _outcome(lambda: [scalar.explain(query) for query in queries]) == expected


def test_a_mixed_batch_names_the_earliest_offender_across_groups():
    queries = [
        KnnSelectQuery("a", Point(500.0, 500.0), k=3),
        KnnJoinQuery("b", "a", k=2**63),  # position 1: the first offender
        KnnSelectQuery("b", Point(500.0, 500.0), k=1.5),
        RangeQuery("a", Rect(1, 1, 1, 5)),
    ]
    with pytest.raises(InvalidQueryError, match=f"got {2**63}$"):
        _engine().explain_batch(queries)
    queries[1] = KnnJoinQuery("b", "a", k=3)
    with pytest.raises(InvalidQueryError, match="integer, got 1.5"):
        _engine().explain_batch(queries)
    with pytest.raises(InvalidQueryError, match="integer, got 1.5"):
        _engine(strict=True).explain_batch(queries)
    queries[2] = KnnSelectQuery("b", Point(500.0, 500.0), k=3)
    with pytest.raises(InvalidQueryError, match="zero area"):
        _engine(strict=True).explain_batch(queries)


# ----------------------------------------------------------------------
# guard_select_batch == a loop of guard_select_query
# ----------------------------------------------------------------------
def _loop(points, ks, n_rows, bounds, strict, regions):
    notes = {}
    for j, ((x, y), k) in enumerate(zip(points, ks)):
        query = SimpleNamespace(
            query=SimpleNamespace(x=x, y=y), k=k, region=None if regions is None else regions[j]
        )
        row = guard_select_query(query, n_rows, bounds, strict)
        if row:
            notes[j] = row
    return notes


def _result(call):
    try:
        return call()
    except InvalidQueryError as exc:
        return type(exc), str(exc)


_raw_coordinate = st.one_of(
    st.floats(-50.0, 60.0, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]),
)
_raw_k = st.one_of(
    st.integers(1, 40),
    st.sampled_from([0, -3, 1.5, True, np.int64(7), np.uint64(2**64 - 1), 2**63 - 1, 2**63]),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(_raw_coordinate, _raw_coordinate, _raw_k, _region), max_size=8),
    n_rows=st.sampled_from([0, 1, 20]),
    bounds=st.sampled_from([Rect(0, 0, 3, 4), Rect(2, 2, 2, 2), None]),
    strict=st.booleans(),
)
def test_guard_select_batch_equals_the_scalar_loop(rows, n_rows, bounds, strict):
    points = [(x, y) for x, y, __, __ in rows]
    ks = [k for __, __, k, __ in rows]
    regions = [r for __, __, __, r in rows]
    expected = _result(lambda: _loop(points, ks, n_rows, bounds, strict, regions))
    assert _result(lambda: guard_select_batch(points, ks, n_rows, bounds, strict, regions)) == expected
    if all(r is None for r in regions):
        assert _result(lambda: guard_select_batch(points, ks, n_rows, bounds, strict)) == expected


@pytest.mark.parametrize("strict", [False, True])
def test_the_far_boundary_is_the_scalar_rule_to_the_ulp(strict):
    # Bounds 3 x 4: diagonal 5, far beyond 20 units.  23.0 is exactly on
    # the line (not far); the next float up is past it.
    bounds = Rect(0, 0, 3, 4)
    xs = [23.0, np.nextafter(23.0, np.inf), np.nextafter(23.0, -np.inf), -20.0, 3.0 + 12.0]
    points = [(x, 2.0) for x in xs] + [(3.0 + 12.0, 4.0 + 16.0), (15.0, np.nextafter(20.0, 99))]
    ks = [1] * len(points)
    expected = _result(lambda: _loop(points, ks, 10, bounds, strict, None))
    assert _result(lambda: guard_select_batch(points, ks, 10, bounds, strict)) == expected
    if not strict:
        assert sorted(expected) == [1, 6]


# ----------------------------------------------------------------------
# Structure: what a 64-query select batch builds
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, owner, name, counts, key):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_64_query_batch_arbitrates_once_and_builds_no_operator(monkeypatch):
    engine = _engine()
    rng = np.random.default_rng(9)
    queries = [
        KnnSelectQuery("a", Point(*map(float, rng.uniform(100, 900, 2))), k=int(k))
        for k in rng.integers(1, MAX_K + 20, size=64)
    ]
    engine.explain_batch(queries)  # catalogs built before counting
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, planner, "arbitrate_batch", counts, "arbitrate_batch")
    _count_calls(monkeypatch, planner, "arbitrate", counts, "arbitrate")
    _count_calls(monkeypatch, planner.PlanExplanation, "__init__", counts, "explanations")
    _count_calls(monkeypatch, fallback.FallbackOutcome, "__init__", counts, "outcomes")
    _count_calls(monkeypatch, guards, "_select_notes", counts, "scalar guards")
    for operator in (
        physical.FilterThenKnnOperator,
        physical.IncrementalKnnOperator,
        physical.RegionPrunedKnnOperator,
        physical.IndexRangeScanOperator,
        physical.LocalityJoinOperator,
        physical.PerPointSelectsOperator,
    ):
        _count_calls(monkeypatch, operator, "__init__", counts, "operators")
    explanations = engine.explain_batch(queries)
    assert not any(e.degraded or e.notes for e in explanations)
    assert counts == {"arbitrate_batch": 1, "explanations": 64}
    # No decision note is worded until one is read.
    records = [e.trail[0] for e in explanations]
    assert all(record._note.__class__ is tuple for record in records)
    note = records[5].note
    assert records[5]._note is note and note.startswith("chose ")
    assert sum(record._note.__class__ is tuple for record in records) == 63


def test_explaining_a_batch_twice_does_the_same_work_twice(monkeypatch):
    """No memo keyed on query values: the second explain of a batch
    estimates, arbitrates and builds everything again."""
    queries = [
        KnnSelectQuery("a", Point(120.0 + 11.0 * i, 640.0 - 7.0 * i), k=1 + i % MAX_K)
        for i in range(40)
    ] + [
        KnnSelectQuery("b", Point(300.0, 300.0), k=3, region=Rect(200, 200, 500, 500)),
        KnnSelectQuery("a", Point(510.0, 490.0), k=9, predicate=column("v") < 4),
        KnnJoinQuery("b", "a", 5),
        RangeQuery("a", Rect(100, 100, 400, 400)),
    ]
    # Warm the process-wide verdict wording and join sample on one
    # engine, and a second engine's catalogs on another batch.
    _engine().explain_batch(queries)
    engine = _engine()
    engine.explain_batch([queries[0], queries[-4], queries[-3], queries[-2]])
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, StaircaseEstimator, "estimate_batch", counts, "estimates")
    _count_calls(monkeypatch, planner, "arbitrate_batch", counts, "arbitrate_batch")
    _count_calls(monkeypatch, planner.PlanExplanation, "__init__", counts, "explanations")
    _count_calls(monkeypatch, engine_module, "guard_select_batch", counts, "guards")
    seen, calls = [], []
    for __ in range(2):
        counts.clear()
        calls.append(_repro_calls(lambda: seen.append(engine.explain_batch(queries))))
        assert counts == {
            "estimates": 3, "arbitrate_batch": 2, "explanations": 44, "guards": 2
        }, counts
    assert calls[0] == calls[1]
    assert [_fields(e) for e in seen[0]] == [_fields(e) for e in seen[1]]


def test_only_degraded_rows_build_a_fallback_outcome(monkeypatch):
    engine = _engine(fault=True)
    queries = [KnnSelectQuery("a", Point(100.0 + 10 * i, 500.0), k=4) for i in range(30)]
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, fallback.FallbackOutcome, "__init__", counts, "outcomes")
    explanations = engine.explain_batch(queries)
    degraded = sum(e.degraded for e in explanations)
    assert 0 < degraded < len(queries)
    assert counts["outcomes"] == degraded


def test_execute_builds_one_operator_per_non_browsing_plan(monkeypatch):
    engine = _engine(pins={"a:select": "filter-then-knn"})
    queries = [KnnSelectQuery(name, Point(500.0, 500.0), k=3) for name in ("a", "b", "a")]
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, physical.FilterThenKnnOperator, "__init__", counts, "filter")
    _count_calls(monkeypatch, physical.IncrementalKnnOperator, "__init__", counts, "browse")
    results = engine.execute_batch(queries)
    assert [e.chosen for __, e in results] == [
        "filter-then-knn", "incremental-knn", "filter-then-knn"
    ]
    # Browsing plans run as one batch per table, not as operators.
    assert counts == {"filter": 2}


# ----------------------------------------------------------------------
# k at the int64 edge
# ----------------------------------------------------------------------
def test_require_valid_k_stops_at_int64():
    require_valid_k(K_CEILING)
    for k in (2**63, 2**64):
        with pytest.raises(InvalidQueryError, match=f"got {k}$"):
            require_valid_k(k)


@pytest.mark.parametrize("k", [K_CEILING, 2**53 + 1, 2**62 + 1])
def test_a_huge_k_plans_at_itself(k):
    engine = _engine()
    query = KnnSelectQuery("a", Point(500.0, 500.0), k=k)
    for explanation in (engine.explain(query), engine.explain_batch([query, query])[1]):
        assert explanation.effective_k == k
        assert explanation.cost_of("incremental-knn") <= explanation.cost_of("filter-then-knn")
        assert any("exceeds" in note for note in explanation.notes)
    (result, explanation) = engine.execute(query)
    assert result.row_ids.shape == (N_ROWS["a"],)


@pytest.mark.parametrize("k", [2**63, 2**64])
def test_a_k_past_int64_is_a_typed_error_naming_k(k):
    engine = _engine()
    select = KnnSelectQuery("a", Point(500.0, 500.0), k=k)
    join = KnnJoinQuery("b", "a", k=k)
    for call in (
        lambda: engine.explain(select),
        lambda: engine.explain_batch([KnnSelectQuery("a", Point(1.0, 1.0), k=3), select]),
        lambda: engine.execute(select),
        lambda: engine.execute_batch([select]),
        lambda: engine.explain(join),
    ):
        with pytest.raises(InvalidQueryError, match=f"got {k}$"):
            call()


def test_a_saturated_k_prime_under_selectivity():
    engine = _engine()
    for query in (
        KnnSelectQuery("a", Point(500.0, 500.0), k=2**62, predicate=column("v") < 3),
        KnnSelectQuery("a", Point(500.0, 500.0), k=2**62, region=Rect(0, 0, 200, 200)),
        KnnJoinQuery("b", "a", k=2**62, inner_predicate=column("v") < 3),
        KnnJoinQuery("b", "a", k=K_CEILING),
    ):
        explanation = engine.explain(query)
        assert explanation.selectivity < 1.0 or query.k == K_CEILING
        assert explanation.effective_k == K_CEILING
    result, __ = engine.execute(
        KnnSelectQuery("a", Point(500.0, 500.0), k=2**62, predicate=column("v") < 3)
    )
    assert result.row_ids.shape == (120,)  # every qualifying row


@pytest.mark.parametrize("name", ["staircase", "chain"])
def test_estimate_batch_names_a_k_past_int64(name):
    engine = _engine()
    estimator = (
        engine.stats.select_estimator("a")
        if name == "staircase"
        else engine.stats.resilient_select_estimator("a")
    )
    pts = np.array([[500.0, 500.0], [600.0, 600.0]])
    for ks in ([3, 2**63], np.array([3, 2**63], dtype=np.uint64), [3, 2**64]):
        with pytest.raises(InvalidQueryError, match=f"got {int(ks[1])}$"):
            estimator.estimate_batch(pts, ks)
    with pytest.raises(InvalidQueryError, match=f"got {2**63}$"):
        estimator.estimate_batch(pts, 2**63)
    # Coordinates first at one query, and the first offender in batch order.
    with pytest.raises(InvalidQueryError, match="finite"):
        estimator.estimate_batch(np.array([[np.nan, 1.0], [1.0, 1.0]]), [3, 2**63])
    with pytest.raises(InvalidQueryError, match=f"got {2**63}$"):
        estimator.estimate_batch(np.array([[1.0, 1.0], [np.nan, 1.0]]), [2**63, 3])


@settings(max_examples=300, deadline=None)
@given(
    k=st.one_of(st.integers(1, 2**20), st.integers(2**52, 2**54), st.integers(1, K_CEILING)),
    # The planner's σ is at least 1 / n_rows.
    sigma=st.one_of(st.just(1.0), st.floats(2.0**-40, 1.0), st.sampled_from([0.5, 1 / 3, 1e-9])),
)
def test_vectorised_k_prime_equals_the_integer_rule(k, sigma):
    got = planner._effective_ks([k, k], np.array([sigma, 1.0]))
    assert got.tolist() == [reference_effective_k(k, sigma), k]


# ----------------------------------------------------------------------
# The certificates are the old rules
# ----------------------------------------------------------------------
_INDEX = TABLES[0].index
_BOUNDS = _INDEX.bounds


def _chained(estimator) -> fallback.FallbackSelectEstimator:
    snapshot = IndexSnapshot.from_index(_INDEX)
    return fallback.FallbackSelectEstimator(
        [("staircase", lambda: estimator), ("density", lambda: DensityBasedEstimator(snapshot))],
        guaranteed_bound=float(snapshot.n_blocks),
    )


def _estimators() -> dict[str, object]:
    east, north = _BOUNDS.x_max, _BOUNDS.y_max
    # A point-sized leaf on the universe's north-east corner (diagonal
    # 0, listed first so it is the corner's home), one leaf for the rest.
    corner = _Partition([(east, north, east, north), _BOUNDS.as_tuple()], _BOUNDS)
    raw = {
        "center+corners": StaircaseEstimator(_INDEX, max_k=MAX_K),
        "center": StaircaseEstimator(_INDEX, max_k=MAX_K, variant="center"),
        "zero-diagonal": StaircaseEstimator(_INDEX, aux_index=corner, max_k=MAX_K),
    }
    return {**raw, **{f"{name} + fallback": _chained(est) for name, est in raw.items()}}


_ESTIMATORS = _estimators()


@st.composite
def _edge_point(draw, finite=False):
    """Interior, on the bounds' edges and corners, just or far outside,
    or (unless ``finite``) non-finite."""
    b = _BOUNDS
    xs, ys = st.floats(b.x_min, b.x_max), st.floats(b.y_min, b.y_max)
    kinds = ["inside", "edge", "corner", "outside", "far"] + ["non-finite"] * (not finite)
    kind = draw(st.sampled_from(kinds))
    if kind == "inside":
        return draw(xs), draw(ys)
    if kind == "edge":
        if draw(st.booleans()):
            return draw(st.sampled_from([b.x_min, b.x_max])), draw(ys)
        return draw(xs), draw(st.sampled_from([b.y_min, b.y_max]))
    if kind == "corner":
        return draw(st.sampled_from([b.x_min, b.x_max])), draw(st.sampled_from([b.y_min, b.y_max]))
    if kind == "outside":
        return float(np.nextafter(b.x_max, np.inf)), draw(ys)
    if kind == "far":
        return draw(st.sampled_from([-1e5, 1e5])), draw(ys)
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return (bad, draw(ys)) if draw(st.booleans()) else (draw(xs), bad)


_edge_k = st.one_of(
    st.integers(1, MAX_K),
    st.sampled_from([1, MAX_K, MAX_K + 1, 5_000]),  # 5,000 > every table's rows
    st.sampled_from([0, -3]),
)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _focal(x: float, y: float):
    """The focal point a scalar caller passes (``Point`` refuses NaN)."""
    return Point(x, y) if math.isfinite(x) and math.isfinite(y) else SimpleNamespace(x=x, y=y)


def _scalar_loop(estimator, points, ks):
    try:
        return _bits([estimator.estimate(_focal(x, y), int(k)) for (x, y), k in zip(points, ks)])
    except InvalidQueryError as exc:
        return type(exc), str(exc)


def _batch(estimator, points, ks):
    try:
        return _bits(estimator.estimate_batch(points, ks))
    except InvalidQueryError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_ESTIMATORS)),
    rows=st.lists(st.tuples(_edge_point(), _edge_k), min_size=1, max_size=24),
    form=st.sampled_from(["canonical", "lists", "int32", "scalar k"]),
)
def test_estimate_batch_is_the_scalar_loop_through_every_certificate(name, rows, form):
    estimator = _ESTIMATORS[name]
    points = np.array([p for p, __ in rows], dtype=np.float64)
    ks = np.array([k for __, k in rows], dtype=np.int64)
    if form == "scalar k":
        ks[:] = ks[0]
    expected = _scalar_loop(estimator, points.tolist(), ks.tolist())
    given_pts, given_ks = {
        "canonical": (points, ks),
        "lists": (points.tolist(), ks.tolist()),
        "int32": (points, ks.astype(np.int32)),
        "scalar k": (points, int(ks[0])),
    }[form]
    kept = points.copy(), ks.copy()
    assert _batch(estimator, given_pts, given_ks) == expected
    # Canonical arrays pass through untouched.
    assert _bits(points) == _bits(kept[0]) and ks.tolist() == kept[1].tolist()


def test_the_certificate_cell_reaches_every_branch():
    """A zero-diagonal home, density routing and an invalid row, once."""
    b = _BOUNDS
    points = np.array([[b.x_max, b.y_max], [b.x_min, b.y_min], [1e5, 5.0], [500.0, 500.0]])
    ks = np.array([3, MAX_K, 4, MAX_K + 1])
    estimator = _ESTIMATORS["zero-diagonal"]
    batch = estimator.estimate_batch(points, ks)
    assert batch[0] == estimator._center_catalogs[0].lookup(3)
    assert _bits(batch) == _scalar_loop(estimator, points.tolist(), ks.tolist())
    with pytest.raises(InvalidQueryError, match="finite"):
        estimator.estimate_batch(np.array([[1.0, 1.0], [np.nan, 1.0]]), [3, 0])


_edge_select = st.builds(
    lambda point, k, name: KnnSelectQuery(name, Point(*point), k=max(k, 1)),
    _edge_point(finite=True),
    _edge_k,
    st.sampled_from(["a", "a", "b"]),
)
_EDGE_CONFIGS = {
    "default": {},
    "raw": {"fallback": False},
    "pinned": {"pins": {"select": "incremental-knn"}},
}
#: Three engines per configuration: the oracle's, the batch's and the loop's.
_EDGE_ENGINES = {
    name: [_engine(**config) for __ in range(3)] for name, config in _EDGE_CONFIGS.items()
}


@settings(max_examples=60, deadline=None)
@given(
    config=st.sampled_from(sorted(_EDGE_CONFIGS)),
    queries=st.lists(_edge_select, min_size=1, max_size=24),
)
def test_explain_batch_is_the_oracle_and_the_per_query_loop_at_the_edges(config, queries):
    oracle, batched, looped = _EDGE_ENGINES[config]
    expected = _result(lambda: [_fields(e) for e in reference_explain_batch(oracle.stats, queries)])
    assert _result(lambda: [_fields(e) for e in batched.explain_batch(queries)]) == expected
    assert _result(lambda: [_fields(looped.explain(query)) for query in queries]) == expected


def test_one_short_catalog_still_raises_its_leafs_own_error():
    store = StaircaseEstimator(_INDEX, max_k=MAX_K).to_store()
    store.put("corners/5", store.get("corners/5").truncated(3))
    estimator = StaircaseEstimator.from_store(_INDEX, store)
    rects = partition_bounds(_INDEX)
    centers = (rects[:, :2] + rects[:, 2:]) / 2.0
    # Every row is ordinary (inside, k <= max_k); rows 1 and 3 reach the
    # damaged leaf past its end.
    pts, ks = centers[[7, 5, 2, 5]], np.array([MAX_K, 9, 4, 5])
    with pytest.raises(CatalogLookupError) as batch_error:
        estimator.estimate_batch(pts, ks)
    with pytest.raises(CatalogLookupError) as leaf_error:
        estimator._corner_catalogs[5].lookup_many(np.array([9, 5]))
    assert str(batch_error.value) == str(leaf_error.value)
    assert _bits(estimator.estimate_batch(pts[[0, 2]], ks[[0, 2]])) == _scalar_loop(
        estimator, pts[[0, 2]].tolist(), [MAX_K, 4]
    )


def test_a_refresh_over_a_separate_partition_restacks_the_catalogs():
    # The data index mutates under a static auxiliary index: a refresh
    # replaces catalogs in place, and the stacked columns must follow.
    points = generate_osm_like(2_000, seed=1)
    data = MutableQuadtree(points, capacity=32)
    estimator = StaircaseEstimator(data, aux_index=Quadtree(points, capacity=64), max_k=MAX_K)
    pts, ks = points[:50] + 0.5, np.full(50, 16)
    estimator.estimate_batch(pts, ks)
    for x, y in np.random.default_rng(0).uniform(400.0, 600.0, (300, 2)):
        data.insert(float(x), float(y))
    assert estimator.refresh_incremental().catalogs_rebuilt > 0
    assert _bits(estimator.estimate_batch(pts, ks)) == _scalar_loop(estimator, pts.tolist(), ks)


# The chain's batch walk before the certificate, row by row: the oracle
# of the values and the outcome the certified walk must return.
def _reference_run_batch(chain, pts, ks):
    m = pts.shape[0]
    out = np.empty(m)
    tiers = np.full(m, fallback.GUARANTEED_BOUND_TIER, dtype=object)
    degraded = np.zeros(m, dtype=bool)
    attempts = []
    pending = np.arange(m)
    for position, name in enumerate(chain.tier_names):
        if pending.shape[0] == 0:
            break
        try:
            values = np.asarray(
                chain.tier_instance(name).estimate_batch(pts[pending], ks[pending]), dtype=float
            ).reshape(-1)
        except Exception as exc:  # noqa: BLE001 — the chain isolates every tier
            attempts.append(fallback.TierAttempt(name, f"{type(exc).__name__}: {exc}"))
            continue
        bad = ~np.isfinite(values) | (values < 0.0)
        answered = pending[~bad]
        out[answered] = values[~bad]
        tiers[answered] = name
        degraded[answered] = position > 0
        if bad.any():
            attempts.append(
                fallback.TierAttempt(
                    name,
                    f"invalid estimate for {int(bad.sum())} of {pending.shape[0]} queries",
                )
            )
        else:
            attempts.append(fallback.TierAttempt(name, "ok"))
        pending = pending[bad]
    if pending.shape[0]:
        out[pending] = chain._bound() if callable(chain._bound) else chain._bound
        degraded[pending] = True
        attempts.append(fallback.TierAttempt(fallback.GUARANTEED_BOUND_TIER, "ok"))
    return out, fallback.FallbackBatchOutcome(tiers.tolist(), degraded, attempts)


def _state(values, outcome):
    """Everything a batch call returns."""
    attempts = [(a.tier, a.outcome) for a in outcome.attempts]
    return _bits(values), outcome.tiers, outcome.degraded.tolist(), attempts


_FAULTS = {
    "healthy": None,
    "raising": FaultSchedule(FaultSpec.raising(), every=1),
    "nan": FaultSchedule(FaultSpec.corrupting(), every=3),
    "all nan": FaultSchedule(FaultSpec.corrupting(), every=1),
    "negative": FaultSchedule(FaultSpec.corrupting(-1.0), every=2),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_the_chains_outcome_and_health_are_the_row_by_row_walks(fault):
    # A failing tier is tried on every call: no history carries from
    # one walk to the next, so each call is its own row-by-row walk.
    def chain():
        stats = StatisticsManager(max_k=MAX_K)
        stats.register(TABLES[0])
        built = stats.resilient_select_estimator("a")
        if _FAULTS[fault] is not None:
            built.wrap_tier(
                built.primary_tier,
                lambda est: FaultInjectingSelectEstimator(est, _FAULTS[fault]),
            )
        return built

    certified, walked = chain(), chain()
    rng = np.random.default_rng(5)
    for m in (1, 4, 7, 4, 1, 6, 3, 5):
        pts = rng.uniform(-100.0, 1100.0, (m, 2))
        ks = rng.integers(1, 2 * MAX_K, m)
        expected = _state(*_reference_run_batch(walked, pts, ks))
        assert _state(*certified.walk(pts, ks)) == expected


class _Held(SelectCostEstimator):
    """A tier answering every batch from one array it keeps."""

    def __init__(self) -> None:
        self.values = np.arange(1.0, 9.0)

    def estimate(self, query, k):
        return 1.0

    def estimate_batch(self, queries, ks):
        return self.values[: len(queries)]

    def storage_bytes(self):
        return 0


def test_a_returned_cost_array_is_the_callers_own():
    chain = fallback.FallbackSelectEstimator([("held", _Held)], guaranteed_bound=100.0)
    pts, ks = np.full((4, 2), 500.0), np.full(4, 3, dtype=np.int64)
    for estimator in (chain, _ESTIMATORS["center+corners"], _ESTIMATORS["center + fallback"]):
        first = estimator.estimate_batch(pts, ks)
        expected = _bits(first)
        first[:] = -1.0
        assert _bits(estimator.estimate_batch(pts, ks)) == expected


# ----------------------------------------------------------------------
# A deterministic call budget for planning a small batch
# ----------------------------------------------------------------------
def _repro_calls(call) -> int:
    """Python function calls into the ``repro`` package while ``call`` runs."""
    root = os.path.dirname(repro.__file__)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


#: Calls a warm plan makes into ``repro`` (a generator counts once per
#: resume): 89 and 81 on Python 3.11 (each ``LinkDecision.__init__``
#: counts; the dataclass one was generated code), plus 10 % — the per-layer
#: re-validation and re-indexing this budget guards against made 112
#: and 107.  Python 3.12 inlines comprehensions, so it counts fewer.
#: If this trips, a change added per-call work to planning a select:
#: find it (cProfile a warm ``explain_batch``) and take it out, or —
#: when the work is needed — re-measure and raise the budget in the
#: same change, saying why.
PLAN_CALL_BUDGET = {"explain_batch of 4": 98, "explain of 1": 89}


def test_planning_a_small_batch_stays_within_its_call_budget():
    engine = _engine()
    queries = [
        KnnSelectQuery("a", Point(100.0 + 200.0 * i, 700.0 - 150.0 * i), k=k)
        for i, k in enumerate([1, 5, 17, MAX_K])
    ]
    engine.explain_batch(queries)
    engine.explain(queries[0])  # warm: catalogs, locator, stacked columns
    counts = {
        "explain_batch of 4": _repro_calls(lambda: engine.explain_batch(queries)),
        "explain of 1": _repro_calls(lambda: engine.explain(queries[0])),
    }
    assert all(counts[key] <= budget for key, budget in PLAN_CALL_BUDGET.items()), counts
