"""Tests for the composable physical-operator selection chain.

Covers the chain mechanics (composition, trails, cycle detection), the
shipped links' semantics, chain/legacy parity across all three index
substrates, the many-selects-vs-one-join decision through the engine, the
freshness-guard behavior under both staleness policies, and the CLI /
engine configuration surface.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.datasets import generate_uniform
from repro.estimators import StaircaseEstimator
from repro.geometry import Point
from repro.index import GridIndex, Quadtree, RTree
from repro.optimizer.selection import (
    CHAIN_PRESETS,
    KNOWN_OPERATORS,
    PIN_ANY_TABLE,
    ConfidenceSelection,
    CostBasedSelection,
    FreshnessGuardSelection,
    PhysicalOperatorSelection,
    PinnedOverrideSelection,
    PlanAssignment,
    PlanningContext,
    build_selection_chain,
    default_selection_chain,
    parse_pin_spec,
)


def _context(**overrides) -> PlanningContext:
    base = dict(
        kind="select",
        table="points",
        candidates={"filter-then-knn": 64.0, "incremental-knn": 8.0},
        tie_order=("filter-then-knn", "incremental-knn"),
        estimate_operators=("incremental-knn",),
    )
    base.update(overrides)
    return PlanningContext(**base)


def _walk(chain: PhysicalOperatorSelection, context: PlanningContext) -> PlanAssignment:
    return chain.select_physical_operators(None, PlanAssignment(), context)


class TestChainMechanics:
    def test_chain_with_returns_head_and_appends_at_tail(self):
        head = FreshnessGuardSelection()
        chain = head.chain_with(CostBasedSelection()).chain_with(ConfidenceSelection())
        assert chain is head
        assert [link.name for link in chain.links()] == [
            "freshness-guard", "cost-based", "confidence",
        ]
        assert chain.describe() == "freshness-guard -> cost-based -> confidence"

    def test_chain_with_rejects_cycles(self):
        head = FreshnessGuardSelection()
        tail = CostBasedSelection()
        head.chain_with(tail)
        with pytest.raises(ValueError, match="already part of this chain"):
            head.chain_with(tail)
        with pytest.raises(ValueError, match="already part of this chain"):
            head.chain_with(head)

    def test_every_link_leaves_a_trail_entry(self):
        assignment = _walk(default_selection_chain(), _context())
        assert [d.link for d in assignment.trail] == [
            "freshness-guard", "cost-based", "confidence",
        ]

    def test_chain_pickles(self):
        """Chains ride to spawn workers inside manager kwargs."""
        chain = build_selection_chain(
            "default", pins={"points:select": "filter-then-knn"}
        )
        clone = pickle.loads(pickle.dumps(chain))
        assert clone.describe() == chain.describe()
        assignment = _walk(clone, _context())
        assert assignment.operator == "filter-then-knn"
        assert assignment.pinned

    def test_trail_entries_carry_per_link_timing(self):
        assignment = _walk(default_selection_chain(), _context())
        for decision in assignment.trail:
            assert decision.elapsed_us > 0.0, decision
            assert "us)" in decision.describe()

    def test_untimed_decision_describe_omits_timing(self):
        from repro.optimizer.selection import LinkDecision

        decision = LinkDecision(
            link="cost-based", action="chose", operator="incremental-knn"
        )
        assert decision.elapsed_us == 0.0
        assert "us)" not in decision.describe()

    def test_build_selection_chain_presets(self):
        assert set(CHAIN_PRESETS) == {"default", "cost-only"}
        assert build_selection_chain("cost-only").describe() == "cost-based"
        with pytest.raises(ValueError, match="unknown optimizer preset"):
            build_selection_chain("frobnicate")


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
        assignment = _walk(CostBasedSelection(), _context())
        assert assignment.operator == "incremental-knn"
        assert assignment.decided_by == "cost-based"
        assert assignment.candidates == {
            "filter-then-knn": 64.0, "incremental-knn": 8.0,
        }

    def test_exact_tie_resolves_toward_tie_order(self):
        context = _context(
            candidates={"filter-then-knn": 64.0, "incremental-knn": 64.0}
        )
        assignment = _walk(CostBasedSelection(), context)
        assert assignment.operator == "filter-then-knn"

    def test_note_names_the_rejected_candidates(self):
        assignment = _walk(CostBasedSelection(), _context())
        note = assignment.trail[-1].note
        assert "chose 'incremental-knn' at 8.0 blocks" in note
        assert "filter-then-knn at 64.0" in note

    def test_no_candidates_raises(self):
        context = _context(candidates={}, tie_order=("filter-then-knn",))
        with pytest.raises(ValueError, match="no candidates"):
            _walk(CostBasedSelection(), context)

    def test_tie_order_filters_unavailable_candidates(self):
        context = _context(
            candidates={"incremental-knn": 8.0},
            tie_order=("filter-then-knn", "incremental-knn"),
        )
        assert _walk(CostBasedSelection(), context).operator == "incremental-knn"


class TestFreshnessGuardSelection:
    def _chain(self):
        return FreshnessGuardSelection().chain_with(CostBasedSelection())

    def test_no_estimator_involved_is_a_note(self):
        assignment = _walk(self._chain(), _context(estimator_tiers=()))
        assert assignment.trail[0].action == "noted"
        assert "no estimator involved" in assignment.trail[0].note

    def test_fresh_catalogs_demote_nothing(self):
        context = _context(
            estimator_tiers=("staircase", "density"),
            catalog_generation=3,
            data_generation=3,
        )
        assignment = _walk(self._chain(), context)
        assert assignment.demoted_tiers == ()
        assert "fresh at generation 3" in assignment.trail[0].note

    def test_stale_under_rebuild_policy_is_transparent(self):
        context = _context(
            estimator_tiers=("staircase", "density"),
            catalog_generation=1,
            data_generation=4,
            staleness_policy="rebuild",
        )
        assignment = _walk(self._chain(), context)
        assert assignment.trail[0].action == "noted"
        assert assignment.demoted_tiers == ()
        assert "rebuilt transparently" in assignment.trail[0].note

    def test_stale_under_raise_policy_demotes_catalog_tiers(self):
        """Satellite 6: a stale catalog under ``raise`` demotes the
        catalog-backed tiers instead of crashing the chain."""
        chain = self._chain()
        context = _context(
            estimator_tiers=("staircase", "density", "uniform-model"),
            catalog_generation=1,
            data_generation=4,
            staleness_policy="raise",
        )
        assignment = chain.select_physical_operators(
            None,
            PlanAssignment(estimator_ranking=("staircase", "density", "uniform-model")),
            context,
        )
        assert assignment.trail[0].action == "demoted"
        assert assignment.demoted_tiers == ("staircase",)
        assert assignment.estimator_ranking == (
            "density", "uniform-model", "staircase",
        )
        # Demotion never blocks arbitration.
        assert assignment.operator == "incremental-knn"


class TestConfidenceSelection:
    def _chain(self, penalty=1.0):
        return CostBasedSelection().chain_with(ConfidenceSelection(penalty))

    def test_penalty_below_one_rejected(self):
        with pytest.raises(ValueError, match="degraded_penalty"):
            ConfidenceSelection(0.5)

    def test_observer_at_default_penalty(self):
        context = _context(estimate_tier="density", estimate_degraded=True)
        assignment = _walk(self._chain(), context)
        assert assignment.operator == "incremental-knn"
        assert assignment.decided_by == "cost-based"
        assert assignment.trail[-1].action == "kept"

    def test_cache_hit_is_recorded(self):
        context = _context(cache_hit=True, estimate_tier="estimate-cache")
        assignment = _walk(self._chain(), context)
        assert "estimate cache" in assignment.trail[-1].note

    def test_primary_tier_is_recorded(self):
        context = _context(estimate_tier="staircase", estimate_degraded=False)
        assignment = _walk(self._chain(), context)
        assert "primary tier 'staircase' answered" in assignment.trail[-1].note

    def test_penalty_overrides_a_degraded_close_call(self):
        """64 vs 40 estimator-backed: a 2x penalty (80) flips the choice
        to the exactly-costed full scan."""
        context = _context(
            candidates={"filter-then-knn": 64.0, "incremental-knn": 40.0},
            estimate_tier="guaranteed-bound",
            estimate_degraded=True,
        )
        assignment = _walk(self._chain(2.0), context)
        assert assignment.operator == "filter-then-knn"
        assert assignment.decided_by == "confidence"
        assert assignment.trail[-1].action == "overrode"

    def test_penalty_keeps_a_decisive_win(self):
        context = _context(
            candidates={"filter-then-knn": 64.0, "incremental-knn": 8.0},
            estimate_tier="density",
            estimate_degraded=True,
        )
        assignment = _walk(self._chain(2.0), context)
        assert assignment.operator == "incremental-knn"
        assert assignment.trail[-1].action == "kept"

    def test_penalty_never_moves_a_pin(self):
        chain = PinnedOverrideSelection({"select": "incremental-knn"}).chain_with(
            CostBasedSelection()
        ).chain_with(ConfidenceSelection(10.0))
        context = _context(
            candidates={"filter-then-knn": 64.0, "incremental-knn": 40.0},
            estimate_tier="density",
            estimate_degraded=True,
        )
        assignment = _walk(chain, context)
        assert assignment.operator == "incremental-knn"
        assert assignment.decided_by == "pinned-override"


class TestPinnedOverrideSelection:
    def _chain(self, pins):
        return PinnedOverrideSelection(pins).chain_with(CostBasedSelection())

    def test_pin_wins_over_cost(self):
        assignment = _walk(
            self._chain({("points", "select"): "filter-then-knn"}), _context()
        )
        assert assignment.operator == "filter-then-knn"
        assert assignment.pinned
        assert assignment.decided_by == "pinned-override"
        # The arbiter still records what it would have chosen.
        assert "would have chosen 'incremental-knn'" in assignment.trail[-1].note

    def test_exact_table_beats_wildcard(self):
        pins = {
            (PIN_ANY_TABLE, "select"): "incremental-knn",
            ("points", "select"): "filter-then-knn",
        }
        assert _walk(self._chain(pins), _context()).operator == "filter-then-knn"

    def test_wildcard_applies_to_any_table(self):
        pins = {(PIN_ANY_TABLE, "select"): "filter-then-knn"}
        assignment = _walk(self._chain(pins), _context(table="other"))
        assert assignment.operator == "filter-then-knn"

    def test_string_keys_accepted(self):
        pins = {"points:select": "filter-then-knn", "join": "per-point-selects"}
        link = PinnedOverrideSelection(pins)
        assert link.pins[("points", "select")] == "filter-then-knn"
        assert link.pins[(PIN_ANY_TABLE, "join")] == "per-point-selects"

    def test_inapplicable_pin_falls_through(self):
        """A pin naming an operator this query cannot use is noted and
        the rest of the chain decides."""
        pins = {("points", "select"): "region-pruned-knn"}
        assignment = _walk(self._chain(pins), _context())
        assert assignment.operator == "incremental-knn"
        assert not assignment.pinned
        assert "not applicable" in assignment.trail[0].note

    def test_unrelated_pin_is_noted(self):
        assignment = _walk(
            self._chain({("other", "select"): "filter-then-knn"}), _context()
        )
        assert assignment.trail[0].action == "noted"
        assert assignment.operator == "incremental-knn"

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            PinnedOverrideSelection({("points", "frobnicate"): "filter-then-knn"})

    def test_operator_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="not a select operator"):
            PinnedOverrideSelection({("points", "select"): "locality-join"})


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
# Chain/legacy parity across substrates (satellite 3)
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
    """The default chain must reproduce plain cost arbitration
    bit-for-bit on every substrate (the legacy planner's contract).

    The engine plans over its own quadtree tables, so the select
    candidates are costed on the substrate here and handed to the chain
    — the golden corpus' route.
    """

    @pytest.fixture()
    def setup(self, parity_points, substrate):
        index = _substrate_index(parity_points, substrate)
        aux = (
            None if substrate == "quadtree"
            else Quadtree(parity_points, capacity=64)
        )
        estimator = StaircaseEstimator(index, aux, max_k=512)

        def select_context(query, k, selectivity):
            effective_k = int(np.ceil(k / selectivity))
            return _context(
                candidates={
                    "filter-then-knn": float(index.num_blocks),
                    "incremental-knn": float(estimator.estimate(query, effective_k)),
                },
                effective_k=effective_k,
                selectivity=selectivity,
            )

        return select_context

    def test_select_choice_matches_legacy_rule(self, setup, substrate):
        for k, selectivity in [(4, 0.5), (32, 0.25), (128, 0.02)]:
            context = setup(Point(500.0, 500.0), k, selectivity)
            choice = _walk(default_selection_chain(), context)
            costs = context.candidates
            legacy = (
                "filter-then-knn"
                if costs["filter-then-knn"] <= costs["incremental-knn"]
                else "incremental-knn"
            )
            assert choice.operator == legacy, (substrate, k, selectivity)

    def test_default_chain_equals_bare_arbiter(self, setup, substrate):
        context = setup(Point(321.0, 654.0), 16, 0.3)
        with_chain = _walk(default_selection_chain(), context)
        bare = _walk(CostBasedSelection(), context)
        assert with_chain.operator == bare.operator
        assert with_chain.decided_by == bare.decided_by == "cost-based"
        assert with_chain.candidates == bare.candidates == context.candidates


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
@pytest.fixture()
def engine():
    from repro.engine import SpatialEngine, SpatialTable

    eng = SpatialEngine()
    eng.register(
        SpatialTable("points", generate_uniform(1_500, seed=8), capacity=64)
    )
    return eng


class TestEngineIntegration:
    def test_default_chain_exposed(self, engine):
        assert engine.selection_chain.describe() == (
            "freshness-guard -> cost-based -> confidence"
        )

    def test_explanation_carries_decided_by_and_trail(self, engine):
        from repro.engine import KnnSelectQuery

        explanation = engine.explain(KnnSelectQuery("points", Point(500, 500), k=8))
        assert explanation.decided_by == "cost-based"
        assert [d.link for d in explanation.trail] == [
            "freshness-guard", "cost-based", "confidence",
        ]
        text = str(explanation)
        assert "decided by: cost-based" in text
        assert "link freshness-guard" in text

    def test_pinned_engine_forces_operator(self):
        from repro.engine import KnnSelectQuery, SpatialEngine, SpatialTable

        eng = SpatialEngine(
            pinned_operators={"points:select": "filter-then-knn"}
        )
        eng.register(
            SpatialTable("points", generate_uniform(1_500, seed=8), capacity=64)
        )
        result, explanation = eng.execute(
            KnnSelectQuery("points", Point(500, 500), k=8)
        )
        assert explanation.chosen == "filter-then-knn"
        assert explanation.decided_by == "pinned-override"
        assert result.blocks_scanned == eng.stats.table("points").index.num_blocks

    def test_pinned_engine_answers_match_unpinned(self, engine):
        """A pin changes the cost, never the answer set."""
        from repro.engine import KnnSelectQuery, SpatialEngine, SpatialTable

        pinned = SpatialEngine(
            pinned_operators={"points:select": "filter-then-knn"}
        )
        pinned.register(
            SpatialTable("points", generate_uniform(1_500, seed=8), capacity=64)
        )
        query = KnnSelectQuery("points", Point(321, 654), k=12)
        a, __ = engine.execute(query)
        b, __ = pinned.execute(query)
        assert np.array_equal(np.sort(a.row_ids), np.sort(b.row_ids))

    def test_configure_selection_after_construction(self, engine):
        engine.stats.configure_selection(
            pinned_operators={"select": "filter-then-knn"}
        )
        assert engine.selection_chain.describe().startswith("pinned-override")

    def test_stale_catalogs_under_raise_demote_instead_of_crashing(self):
        """Satellite 6, end to end: ``staleness_policy="raise"`` with a
        catalog one generation behind the index must degrade the
        estimate (density tier) and record the demotion — planning must
        not surface StaleCatalogError."""
        from repro.engine import (
            KnnSelectQuery, SpatialEngine, SpatialTable, StatisticsManager,
        )

        eng = SpatialEngine(StatisticsManager(staleness_policy="raise"))
        eng.register(
            SpatialTable("points", generate_uniform(1_500, seed=8), capacity=64)
        )
        query = KnnSelectQuery("points", Point(500, 500), k=8)
        fresh = eng.explain(query)  # builds catalogs at generation 0
        assert fresh.estimator_tier == "staircase"
        eng.stats.table("points").index.data_generation = 1
        stale = eng.explain(query)
        assert stale.degraded
        assert stale.estimator_tier not in ("staircase",)
        guard = [d for d in stale.trail if d.link == "freshness-guard"]
        assert guard and guard[0].action == "demoted"

    def test_stale_catalogs_under_rebuild_stay_primary(self):
        from repro.engine import (
            KnnSelectQuery, SpatialEngine, SpatialTable, StatisticsManager,
        )

        eng = SpatialEngine(StatisticsManager(staleness_policy="rebuild"))
        eng.register(
            SpatialTable("points", generate_uniform(1_500, seed=8), capacity=64)
        )
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
        assert "optimizer:" in out
        assert "freshness-guard -> cost-based -> confidence" in out
        assert "decided by:" in out
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
        assert "pinned-override" in out
        assert "chosen plan: filter-then-knn" in out or "filter-then-knn" in out

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

    def test_optimizer_preset_rejects_unknown(self, points_csv):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                [
                    "estimate-select", points_csv,
                    "--x", "50", "--y", "50", "-k", "8",
                    "--optimizer", "frobnicate",
                ]
            )

    def test_cost_only_preset_accepted(self, points_csv, capsys):
        from repro.cli import main

        code = main(
            [
                "estimate-select", points_csv,
                "--x", "50", "--y", "50", "-k", "8",
                "--max-k", "64", "--capacity", "64",
                "--optimizer", "cost-only", "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimizer:  cost-based" in out
