"""Tests for physical-operator arbitration: one cost comparison plus pins.

Covers :func:`~repro.optimizer.selection.arbitrate`'s cost and pin
rules, pin and manager-argument validation (at construction, before
anything plans or any worker spawns), the operator vocabulary, arbitration/legacy parity
across all three index substrates, the many-selects-vs-one-join
decision through the engine, the stale-catalog story under both
staleness policies, and the CLI surface.
"""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.datasets import generate_uniform
from repro.estimators import StaircaseEstimator
from repro.geometry import Point
from repro.index import GridIndex, Quadtree, RTree
from tests.reference_planner import reference_arbitrate
from repro.optimizer.selection import (
    KNOWN_OPERATORS,
    PIN_ANY_TABLE,
    LinkDecision,
    arbitrate,
    arbitrate_batch,
    normalize_pins,
    parse_pin_spec,
)

CANDIDATES = {"filter-then-knn": 64.0, "incremental-knn": 8.0}
TIE_ORDER = ("filter-then-knn", "incremental-knn")


def _decide(candidates=CANDIDATES, tie_order=TIE_ORDER, pins=None, table="points"):
    return arbitrate("select", table, candidates, tie_order, normalize_pins(pins))


class TestChainMechanics:
    def test_every_link_leaves_a_trail_entry(self, engine):
        """Every plan the engine arbitrates — select, empty-table select,
        range, join, degenerate join — carries exactly the deciding
        record."""
        from repro.engine import (
            KnnJoinQuery, KnnSelectQuery, RangeQuery, SpatialTable,
        )
        from repro.geometry import Rect

        engine.register(SpatialTable("empty", np.empty((0, 2)), capacity=64))
        queries = [
            KnnSelectQuery("points", Point(500, 500), k=8),
            KnnSelectQuery("empty", Point(500, 500), k=8),
            RangeQuery("points", Rect(100, 100, 300, 300)),
            KnnJoinQuery("points", "points", 4),
            KnnJoinQuery("empty", "points", 4),
        ]
        for explanation in engine.explain_batch(queries):
            (record,) = explanation.trail
            assert record.link == explanation.decided_by == "cost-based"
            assert record.operator == explanation.chosen

    def test_trail_entries_carry_per_link_timing(self, engine):
        from repro.engine import KnnSelectQuery

        explanation = engine.explain(KnnSelectQuery("points", Point(500, 500), k=8))
        for decision in explanation.trail:
            assert decision.elapsed_us > 0.0, decision
            assert "us)" in decision.describe()

    def test_untimed_decision_describe_omits_timing(self):
        decision = LinkDecision(
            link="cost-based", action="chose", operator="incremental-knn"
        )
        assert decision.elapsed_us == 0.0
        assert "us)" not in decision.describe()


class TestOperatorVocabulary:
    def test_names_match_the_engine_physical_operators(self):
        """The selection module hardcodes operator names (it cannot
        import the engine without a cycle); guard against drift."""
        from repro.engine import physical

        engine_names = {
            cls.name
            for cls in vars(physical).values()
            if isinstance(cls, type) and hasattr(cls, "name")
        }
        for kind in ("select", "join", "range"):
            for operator in KNOWN_OPERATORS[kind]:
                assert operator in engine_names, operator

    def test_batch_kind_matches_the_chooser_vocabulary(self):
        assert KNOWN_OPERATORS["batch"] == ("per-query-selects", "shared-knn-join")


class TestCostBasedSelection:
    def test_picks_minimum_cost(self):
        decision = _decide()
        assert decision.operator == "incremental-knn"
        assert (decision.link, decision.action) == ("cost-based", "chose")

    def test_exact_tie_resolves_toward_tie_order(self):
        tied = {"filter-then-knn": 64.0, "incremental-knn": 64.0}
        assert _decide(tied).operator == "filter-then-knn"
        assert _decide(tied, TIE_ORDER[::-1]).operator == "incremental-knn"

    def test_note_names_the_rejected_candidates(self):
        note = _decide().note
        assert "chose 'incremental-knn' at 8.0 blocks" in note
        assert "filter-then-knn at 64.0" in note

    def test_no_candidates_raises(self):
        with pytest.raises(ValueError, match="no candidates"):
            _decide({}, ("filter-then-knn",))

    def test_tie_order_filters_unavailable_candidates(self):
        decision = _decide({"incremental-knn": 8.0})
        assert decision.operator == "incremental-knn"
        assert "rejected" not in decision.note


class TestFreshnessGuardSelection:
    """Catalog freshness as the engine reports it: the fallback chain,
    not the arbitration, decides which estimator tier answers."""

    def test_fresh_catalogs_demote_nothing(self, engine):
        from repro.engine import KnnSelectQuery

        explanation = engine.explain(KnnSelectQuery("points", Point(500, 500), k=8))
        assert explanation.estimator_tier == "staircase"
        assert not explanation.degraded and not explanation.notes

    def test_stale_under_rebuild_policy_is_transparent(self):
        from repro.engine import KnnSelectQuery

        eng = _engine(staleness_policy="rebuild")
        query = KnnSelectQuery("points", Point(500, 500), k=8)
        before = eng.explain(query)
        eng.stats.table("points").index.data_generation = 4
        after = eng.explain(query)
        assert eng.stats.select_estimator("points").built_at_generation == 4
        assert (after.estimator_tier, after.degraded) == ("staircase", False)
        assert after.alternatives == before.alternatives


class TestConfidenceSelection:
    """The estimate's provenance lives on the explanation; the cost
    comparison does not read it."""

    def test_primary_tier_is_recorded(self, engine):
        from repro.engine import KnnSelectQuery

        explanation = engine.explain(KnnSelectQuery("points", Point(500, 500), k=8))
        assert "estimator: staircase (primary)" in str(explanation)


class TestPinnedOverrideSelection:
    def test_pin_wins_over_cost(self):
        decision = _decide(pins={("points", "select"): "filter-then-knn"})
        assert decision.operator == "filter-then-knn"
        assert (decision.link, decision.action) == ("pinned-override", "pinned")
        # The note still says what cost would have chosen.
        assert "would have chosen 'incremental-knn' at 8.0 blocks" in decision.note

    def test_exact_table_beats_wildcard(self):
        pins = {
            (PIN_ANY_TABLE, "select"): "incremental-knn",
            ("points", "select"): "filter-then-knn",
        }
        assert _decide(pins=pins).operator == "filter-then-knn"

    def test_wildcard_applies_to_any_table(self):
        pins = {(PIN_ANY_TABLE, "select"): "filter-then-knn"}
        assert _decide(pins=pins, table="other").operator == "filter-then-knn"

    def test_string_keys_accepted(self):
        pins = normalize_pins(
            {"points:select": "filter-then-knn", "join": "per-point-selects"}
        )
        assert pins[("points", "select")] == "filter-then-knn"
        assert pins[(PIN_ANY_TABLE, "join")] == "per-point-selects"

    def test_inapplicable_pin_falls_through(self):
        """A pin naming an operator this query cannot use is noted and
        the cost comparison decides."""
        decision = _decide(pins={("points", "select"): "region-pruned-knn"})
        assert decision.operator == "incremental-knn"
        assert decision.link == "cost-based"
        assert "pin 'region-pruned-knn' not applicable" in decision.note

    def test_unrelated_pin_leaves_cost_to_decide(self):
        decision = _decide(
            pins={("other", "select"): "filter-then-knn", "join": "locality-join"}
        )
        assert decision == _decide()

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            normalize_pins({("points", "frobnicate"): "filter-then-knn"})

    def test_operator_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="not a select operator"):
            normalize_pins({("points", "select"): "locality-join"})


class TestLazyNotes:
    """A batch's records word their notes when first read: whatever is
    read first, each record is an eagerly worded one."""

    ORDER = ("filter-then-knn", "region-pruned-knn", "incremental-knn")
    SHAPES = {
        "one candidate": ({"incremental-knn": 8.0}, None),
        "rejected candidates": (
            {"filter-then-knn": 64.0, "region-pruned-knn": 12.25, "incremental-knn": 8.125},
            None,
        ),
        "pinned override": (CANDIDATES, {(PIN_ANY_TABLE, "select"): "filter-then-knn"}),
        "inapplicable pin": (CANDIDATES, {("points", "select"): "region-pruned-knn"}),
    }
    READS = {
        "note": lambda d: d.note,
        "describe": lambda d: d.describe(),
        "repr": repr,
        "equality": lambda d: (d, d),
        "hash": hash,
        "pickle": lambda d: pickle.loads(pickle.dumps(d)),
    }

    def _pair(self, shape):
        candidates, pins = self.SHAPES[shape]
        row = [candidates.get(name, np.inf) for name in self.ORDER]
        (lazy,) = arbitrate_batch("select", "points", [row], self.ORDER, pins)
        eager = reference_arbitrate("select", "points", candidates, self.ORDER, pins)
        eager.elapsed_us = lazy.elapsed_us
        assert eager.elapsed_us > 0.0 and eager._note.__class__ is str
        return lazy, eager

    @pytest.mark.parametrize("first", list(READS))
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_a_record_reads_as_its_eager_twin(self, shape, first):
        lazy, eager = self._pair(shape)
        read = self.READS[first](lazy)
        if first == "equality":
            assert lazy == eager and eager == lazy and not lazy != eager
        elif first == "pickle":
            assert read == eager and read.note == eager.note
            assert repr(read) == repr(eager)
        else:
            assert read == self.READS[first](eager)
        assert lazy.note == eager.note
        assert (lazy.describe(), repr(lazy), hash(lazy)) == (
            eager.describe(), repr(eager), hash(eager),
        )
        assert {lazy: 1}[eager] == 1

    def test_a_record_is_unworded_until_read(self):
        lazy, eager = self._pair("rejected candidates")
        assert (lazy.link, lazy.action, lazy.operator) == (eager.link, eager.action, eager.operator)
        assert lazy._note.__class__ is tuple
        assert lazy.note is lazy.note == eager.note

    def test_elapsed_time_is_not_part_of_equality(self):
        lazy, eager = self._pair("one candidate")
        eager.elapsed_us += 1.0
        assert lazy == eager and hash(lazy) == hash(eager)
        assert repr(lazy) != repr(eager)

    def test_records_of_other_types_compare_unequal(self):
        lazy, __ = self._pair("one candidate")
        assert lazy != (lazy.link, lazy.action, lazy.operator, lazy.note)


class TestPinValidation:
    """A bad pin is a configuration error at construction — not a
    ``ValueError`` at the first ``explain``, and not a shard outage."""

    BAD = {"select": "locality-join"}

    def test_manager_rejects_a_bad_pin(self):
        from repro.engine import StatisticsManager

        with pytest.raises(ValueError, match="not a select operator"):
            StatisticsManager(pinned_operators=self.BAD)

    @pytest.mark.parametrize("shard_mode", ["replica", "data"])
    @pytest.mark.parametrize("channel", ["pinned_operators", "manager_kwargs"])
    def test_serving_tier_rejects_a_bad_pin_before_spawning(self, shard_mode, channel):
        from repro.engine import SpatialTable
        from repro.serving import ShardedServingTier

        table = SpatialTable("t", generate_uniform(400, seed=4), capacity=32)
        kwargs = (
            {"pinned_operators": self.BAD}
            if channel == "pinned_operators"
            else {"manager_kwargs": {"max_k": 32, "pinned_operators": self.BAD}}
        )
        with pytest.raises(ValueError, match="not a select operator"):
            ShardedServingTier(table, shard_mode=shard_mode, n_shards=2, **kwargs)
        assert multiprocessing.active_children() == []


BAD_MANAGER_ARGS = [
    ("max_k", 0),
    ("max_k", -5),
]


class TestManagerArgumentValidation:
    """Every manager argument is checked at construction, naming itself —
    not at the first ``explain`` as an error about the query's k."""

    @pytest.mark.parametrize(("arg", "value"), BAD_MANAGER_ARGS)
    def test_manager_rejects_the_argument(self, arg, value):
        from repro.engine import StatisticsManager

        with pytest.raises(ValueError, match=f"^{arg} must be"):
            StatisticsManager(**{arg: value})

    @pytest.mark.parametrize("shard_mode", ["replica", "data"])
    @pytest.mark.parametrize(("arg", "value"), BAD_MANAGER_ARGS)
    def test_serving_tier_rejects_the_argument_before_spawning(
        self, monkeypatch, shard_mode, arg, value
    ):
        from repro.engine import SpatialTable
        from repro.serving import ShardedServingTier, coordinator

        created = []

        class RecordingHandle(coordinator.ShardWorkerHandle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(coordinator, "ShardWorkerHandle", RecordingHandle)
        table = SpatialTable("t", generate_uniform(400, seed=4), capacity=32)
        with pytest.raises(ValueError, match=f"^{arg} must be"):
            ShardedServingTier(
                table, shard_mode=shard_mode, n_shards=2, manager_kwargs={arg: value}
            )
        # What ``pools_spawned`` would sum: no handle was even built.
        assert sum(handle.spawned for handle in created) == 0 and created == []
        assert multiprocessing.active_children() == []


class TestParsePinSpec:
    def test_bare_kind_is_wildcard(self):
        assert parse_pin_spec("select=filter-then-knn") == (
            (PIN_ANY_TABLE, "select"), "filter-then-knn",
        )

    def test_table_qualified(self):
        assert parse_pin_spec("points:select=incremental-knn") == (
            ("points", "select"), "incremental-knn",
        )

    def test_explicit_wildcard(self):
        assert parse_pin_spec("*:join=per-point-selects") == (
            (PIN_ANY_TABLE, "join"), "per-point-selects",
        )

    @pytest.mark.parametrize(
        "spec",
        ["select", "=filter-then-knn", "select=", "bogus=filter-then-knn",
         "select=locality-join"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_pin_spec(spec)


# ---------------------------------------------------------------------------
# Arbitration/legacy parity across substrates
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def parity_points():
    return generate_uniform(2_000, seed=5)


def _substrate_index(points, substrate):
    if substrate == "grid":
        return GridIndex(points, nx=10)
    if substrate == "rtree":
        return RTree(points, capacity=64)
    return Quadtree(points, capacity=64)


@pytest.mark.parametrize("substrate", ["quadtree", "grid", "rtree"])
class TestChainLegacyParity:
    """Arbitration must reproduce plain cost comparison bit-for-bit on
    every substrate (the legacy planner's contract).

    The engine plans over its own quadtree tables, so the select
    candidates are costed on the substrate here and handed to
    :func:`arbitrate` — the golden corpus' route.
    """

    @pytest.fixture()
    def setup(self, parity_points, substrate):
        index = _substrate_index(parity_points, substrate)
        aux = (
            None if substrate == "quadtree"
            else Quadtree(parity_points, capacity=64)
        )
        estimator = StaircaseEstimator(index, aux, max_k=512)

        def select_candidates(query, k, selectivity):
            effective_k = int(np.ceil(k / selectivity))
            return {
                "filter-then-knn": float(index.num_blocks),
                "incremental-knn": float(estimator.estimate(query, effective_k)),
            }

        return select_candidates

    def test_select_choice_matches_legacy_rule(self, setup, substrate):
        for k, selectivity in [(4, 0.5), (32, 0.25), (128, 0.02)]:
            costs = setup(Point(500.0, 500.0), k, selectivity)
            choice = _decide(costs)
            legacy = (
                "filter-then-knn"
                if costs["filter-then-knn"] <= costs["incremental-knn"]
                else "incremental-knn"
            )
            assert choice.operator == legacy, (substrate, k, selectivity)


class TestPlanChoiceSpeedup:
    """The golden select records' ``predicted_speedup`` field."""

    def test_predicted_speedup_is_inf_when_best_cost_is_zero(self):
        from repro.optimizer.regression import predicted_speedup

        # Infinite: recorded as null, JSON has no inf.
        assert predicted_speedup({"a": 64.0, "b": 0.0}) is None

    def test_predicted_speedup_ratio(self):
        from repro.optimizer.regression import predicted_speedup

        assert predicted_speedup({"a": 64.0, "b": 8.0}) == 8.0


class TestBatchChooserBatching:
    """Many selects vs. one shared join: the batch of query points is
    the outer table of a ``KnnJoinQuery``; the golden corpus costs the
    whole batch with one ``estimate_batch`` call."""

    @pytest.fixture(scope="class")
    def setup(self, inner_quadtree):
        from repro.engine import SpatialEngine, SpatialTable, StatisticsManager

        engine = SpatialEngine(StatisticsManager(max_k=256, join_sample_size=50))
        engine.register(SpatialTable("inner", inner_quadtree.all_points(), capacity=64))
        rng = np.random.default_rng(7)
        queries = rng.uniform(100.0, 900.0, size=(40, 2))
        return engine, queries

    def test_total_matches_scalar_loop_bit_for_bit(self):
        from repro.optimizer import regression

        record = regression.run_workload("uniform-quadtree-batch")
        estimator = regression._staircase("uniform", "inner", "quadtree")
        scalar_total = sum(
            float(estimator.estimate(Point(x, y), record["k"]))
            for x, y in regression._batch_queries("uniform")
        )
        assert record["candidates"]["per-query-selects"] == scalar_total

    def test_point_sequence_and_ndarray_agree(self, setup):
        from repro.engine import KnnJoinQuery, SpatialTable

        engine, queries = setup
        plans = []
        for batch in (queries, [(float(x), float(y)) for x, y in queries]):
            engine.register(SpatialTable("batch", batch, capacity=64))
            plans.append(engine.explain(KnnJoinQuery("batch", "inner", 8)))
        assert plans[0].alternatives == plans[1].alternatives
        assert plans[0].chosen == plans[1].chosen

    def test_decision_rule_matches_legacy(self, setup):
        from repro.engine import KnnJoinQuery, SpatialTable

        engine, queries = setup
        engine.register(SpatialTable("batch", queries, capacity=64))
        choice = engine.explain(KnnJoinQuery("batch", "inner", 8))
        legacy = (
            "locality-join"
            if choice.cost_of("locality-join") <= choice.cost_of("per-point-selects")
            else "per-point-selects"
        )
        assert choice.chosen == legacy


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------
def _engine(**manager_kwargs):
    from repro.engine import SpatialEngine, SpatialTable, StatisticsManager

    eng = SpatialEngine(StatisticsManager(**manager_kwargs))
    eng.register(
        SpatialTable("points", generate_uniform(1_500, seed=8), capacity=64)
    )
    return eng


@pytest.fixture()
def engine():
    return _engine()


class TestEngineIntegration:
    def test_explanation_carries_decided_by_and_trail(self, engine):
        from repro.engine import KnnSelectQuery

        explanation = engine.explain(KnnSelectQuery("points", Point(500, 500), k=8))
        assert explanation.decided_by == "cost-based"
        assert [(d.link, d.action) for d in explanation.trail] == [
            ("cost-based", "chose"),
        ]
        text = str(explanation)
        assert "decided by: cost-based" in text
        assert "link cost-based [chose]" in text

    def test_pinned_engine_forces_operator(self):
        from repro.engine import KnnSelectQuery

        eng = _engine(pinned_operators={"points:select": "filter-then-knn"})
        result, explanation = eng.execute(
            KnnSelectQuery("points", Point(500, 500), k=8)
        )
        assert explanation.chosen == "filter-then-knn"
        assert explanation.decided_by == "pinned-override"
        assert result.blocks_scanned == eng.stats.table("points").index.num_blocks

    def test_pinned_engine_answers_match_unpinned(self, engine):
        """A pin changes the cost, never the answer set."""
        from repro.engine import KnnSelectQuery

        pinned = _engine(pinned_operators={"points:select": "filter-then-knn"})
        query = KnnSelectQuery("points", Point(321, 654), k=12)
        a, __ = engine.execute(query)
        b, __ = pinned.execute(query)
        assert np.array_equal(np.sort(a.row_ids), np.sort(b.row_ids))

    def test_stale_catalogs_under_raise_demote_instead_of_crashing(self):
        """``staleness_policy="raise"`` with a catalog one generation
        behind the index: the Staircase tier raises, the fallback chain
        absorbs it and the density tier answers, degraded — planning
        does not surface StaleCatalogError."""
        from repro.engine import KnnSelectQuery

        eng = _engine(staleness_policy="raise")
        query = KnnSelectQuery("points", Point(500, 500), k=8)
        fresh = eng.explain(query)  # builds catalogs at generation 0
        assert fresh.estimator_tier == "staircase"
        eng.stats.table("points").index.data_generation = 1
        stale = eng.explain(query)
        assert stale.degraded
        assert stale.estimator_tier == "density"
        assert any("StaleCatalogError" in note for note in stale.notes)
        assert stale.decided_by == "cost-based"

    def test_stale_catalogs_without_fallback_propagate(self):
        """With ``fallback=False`` nothing absorbs the error: a stale
        catalog under ``raise`` surfaces at planning."""
        from repro.engine import KnnSelectQuery
        from repro.resilience.errors import StaleCatalogError

        eng = _engine(staleness_policy="raise", fallback=False)
        query = KnnSelectQuery("points", Point(500, 500), k=8)
        eng.explain(query)
        eng.stats.table("points").index.data_generation = 1
        with pytest.raises(StaleCatalogError):
            eng.explain(query)

    def test_stale_catalogs_under_rebuild_stay_primary(self):
        from repro.engine import KnnSelectQuery

        eng = _engine(staleness_policy="rebuild")
        query = KnnSelectQuery("points", Point(500, 500), k=8)
        eng.explain(query)
        eng.stats.table("points").index.data_generation = 1
        explanation = eng.explain(query)
        assert explanation.estimator_tier == "staircase"
        assert not explanation.degraded


class TestCliFlags:
    @pytest.fixture(scope="class")
    def points_csv(self, tmp_path_factory):
        from repro.datasets import save_points_csv

        path = tmp_path_factory.mktemp("chain_cli") / "pts.csv"
        rng = np.random.default_rng(3)
        save_points_csv(rng.uniform(0, 100, size=(2_000, 2)), path)
        return str(path)

    def test_explain_prints_chain_and_trail(self, points_csv, capsys):
        from repro.cli import main

        code = main(
            [
                "estimate-select", points_csv,
                "--x", "50", "--y", "50", "-k", "8",
                "--max-k", "64", "--capacity", "64", "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "decided by: cost-based" in out
        assert "link cost-based [chose]" in out

    def test_pin_operator_flag_changes_the_plan(self, points_csv, capsys):
        from repro.cli import main

        code = main(
            [
                "estimate-select", points_csv,
                "--x", "50", "--y", "50", "-k", "8",
                "--max-k", "64", "--capacity", "64", "--explain",
                "--pin-operator", "select=filter-then-knn",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decided by: pinned-override" in out
        assert "chosen: filter-then-knn" in out

    def test_bad_pin_exits_2(self, points_csv, capsys):
        from repro.cli import main

        code = main(
            [
                "estimate-select", points_csv,
                "--x", "50", "--y", "50", "-k", "8",
                "--pin-operator", "select=bogus-operator",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
