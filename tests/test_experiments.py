"""Integration tests: every experiment runs on the quick profile, its
exact cells equal the committed ``benchmarks/results/quick/`` table, and
the table has the paper's qualitative shape."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.catalog import IntervalCatalog
from repro.estimators import catalog_merge as catalog_merge_module
from repro.experiments import join_support, select_support
from repro.experiments.common import (
    ExperimentConfig,
    ExperimentResult,
    PROFILES,
    build_index,
    get_config,
)
from repro.experiments import runner
from repro.experiments.fig12_select_time import k_series
from repro.experiments.runner import EXPERIMENTS, experiment_runner, main, table_path
from tests.reference_builds import staircase_store

#: The committed quick-profile tables: the goldens of every exact cell.
QUICK_TABLES = Path(__file__).resolve().parent.parent / "benchmarks" / "results" / "quick"


def exact_cells(table: str) -> dict:
    """What repeats to the last digit in a rendered table.

    The title, the headers, the notes and every cell of every column
    whose header does not end in ``_s`` — a column is a wall-clock
    measurement iff it does, so no list of exempt columns exists.
    """
    title, header, rule, *rest = table.splitlines()
    spans = [match.span() for match in re.finditer("-+", rule)]
    headers = [header[a:b].strip() for a, b in spans]
    exact = [span for span, name in zip(spans, headers) if not name.endswith("_s")]
    notes = [line for line in rest if line.startswith("  note: ")]
    rows = [line for line in rest if not line.startswith("  note: ")]
    return {
        "title": title,
        "headers": headers,
        "rows": [tuple(row[a:b].strip() for a, b in exact) for row in rows],
        "notes": notes,
    }


@pytest.fixture(scope="module")
def quick() -> ExperimentConfig:
    return get_config("quick")


class TestConfig:
    def test_profiles_exist(self):
        assert {"quick", "default", "full"} <= set(PROFILES)

    def test_get_config_overrides(self):
        cfg = get_config("quick", n_queries=5)
        assert cfg.n_queries == 5

    def test_get_config_unknown(self):
        with pytest.raises(KeyError):
            get_config("gigantic")

    def test_config_hashable(self):
        assert hash(get_config("quick")) == hash(get_config("quick"))


class TestResultTable:
    def test_add_row_validates_width(self):
        result = ExperimentResult("x", "t", columns=("a", "b"))
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_column_extraction(self):
        result = ExperimentResult("x", "t", columns=("a", "b"))
        result.add_row(1, 2)
        result.add_row(3, 4)
        assert result.column("b") == [2, 4]

    def test_format_renders_all_rows(self):
        result = ExperimentResult("x", "title", columns=("a",))
        result.add_row(1)
        result.notes.append("hello")
        text = result.format_table()
        assert "title" in text and "hello" in text


class TestAllExperimentsRun:
    def test_every_table_has_an_experiment(self):
        assert len(EXPERIMENTS) == 25
        assert {path.stem for path in QUICK_TABLES.glob("*.txt")} == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_runs_and_is_nonempty(self, name, quick):
        result = experiment_runner(name)(quick)
        assert isinstance(result, ExperimentResult)
        assert result.rows, f"{name} produced no rows"
        # Regenerate with: python -m repro.experiments all --profile quick --write
        committed = table_path(name, "quick").read_text()
        assert exact_cells(result.format_table()) == exact_cells(committed)

    @pytest.mark.parametrize("kind", ["uniform", "skewed"])
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_runs_on_other_dataset_families(self, name, kind):
        result = experiment_runner(name)(get_config("quick", dataset_kind=kind))
        assert result.rows, f"{name} produced no rows on {kind} data"

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            experiment_runner("fig99")

    def test_exact_cells_skip_only_the_timing_columns(self):
        table = ExperimentResult("x", "t", columns=("name", "blocks", "build_s"))
        table.add_row("two words", 7, 0.25)
        table.notes.append("n")
        cells = exact_cells(table.format_table())
        assert cells["rows"] == [("two words", "7")]
        assert cells["headers"] == ["name", "blocks", "build_s"]
        table.rows[0] = ("two words", 7, 123.456)  # a slower host
        assert exact_cells(table.format_table()) == cells
        table.rows[0] = ("two words", 8, 0.25)  # a different answer
        assert exact_cells(table.format_table()) != cells


def _catalog_merge_lookups(estimator, k, monkeypatch) -> int:
    """Catalog lookups one Catalog-Merge estimate performs.

    Any locality computation during the estimate raises: the technique's
    point is that localities are paid once, at preprocessing.
    """
    lookups: list[int] = []
    real_lookup = IntervalCatalog.lookup

    def counting_lookup(catalog, key):
        lookups.append(key)
        return real_lookup(catalog, key)

    def no_localities(*args, **kwargs):
        raise AssertionError("Catalog-Merge computed a locality at estimate time")

    with monkeypatch.context() as patch:
        patch.setattr(IntervalCatalog, "lookup", counting_lookup)
        for name in (
            "locality_size_profiles",
            "locality_coverage_radii",
        ):
            patch.setattr(catalog_merge_module, name, no_localities)
        assert estimator.estimate(k) > 0.0
    return len(lookups)


class TestShapes:
    """Qualitative paper shapes that must hold even at quick scale.

    Asserted on exact columns and operation counts only.  Figures 12,
    13, 17–19, 21 and 23 are about wall-clock time: Tier-1 asserts what
    is deterministic about them (series, operation counts); their timing
    orderings are read off the committed tables (EXPERIMENTS.md), where
    a host stall cannot fail the suite.
    """

    def test_fig04_staircase_monotone(self, quick):
        result = experiment_runner("fig04")(quick)
        costs = result.column("cost_blocks")
        assert costs == sorted(costs)
        assert len(costs) >= 2  # the staircase has steps
        assert result.rows[0][0] == 1  # contiguous intervals starting at k=1

    def test_fig07_locality_monotone(self, quick):
        result = experiment_runner("fig07")(quick)
        sizes = result.column("locality_size")
        assert sizes == sorted(sizes)

    def test_fig11_staircase_beats_density(self, quick):
        # The paper's >10 % margin needs realistic block counts (the
        # default profile's table); quick scale keeps the ordering.
        result = experiment_runner("fig11")(quick)
        density = np.mean(result.column("density_based"))
        assert np.mean(result.column("staircase_center_corners")) < density
        assert np.mean(result.column("staircase_center_only")) < density
        assert result.column("staircase_center_corners")[-1] < 0.75

    def test_fig12_series_and_timings_well_formed(self, quick):
        result = experiment_runner("fig12")(quick)
        assert result.column("k") == k_series(quick.max_k)
        for __, *timings in result.rows:
            assert len(timings) == 3
            assert all(math.isfinite(t) and t > 0.0 for t in timings)

    def test_fig13_density_has_no_preprocessing(self, quick):
        result = experiment_runner("fig13")(quick)
        assert all(d == 0.0 for d in result.column("density_based_s"))

    def test_fig13_rows_and_timings_well_formed(self, quick):
        result = experiment_runner("fig13")(quick)
        assert result.column("scale") == list(quick.scales)
        for __, t_cc, t_c, __d in result.rows:
            assert all(math.isfinite(t) and t > 0.0 for t in (t_cc, t_c))

    def test_fig13_corners_cost_more_than_center(self, quick):
        # In profiles computed (five anchors per leaf against one).
        for scale in quick.scales:
            both = select_support.staircase_estimator(quick, scale)
            center = select_support.staircase_estimator(quick, scale, variant="center")
            assert (
                both.preprocessing_stats.profiles_computed
                > center.preprocessing_stats.profiles_computed
            )

    def test_fig13_shared_build_beats_reference(self, quick):
        # In anchors profiled: the per-anchor reference build
        # (tests/reference_builds.py) runs Procedure 1 five times per
        # leaf; the shared build dedupes corners that up to four sibling
        # leaves have in common, and yields the same catalogs.
        for scale in quick.scales:
            estimator = select_support.staircase_estimator(quick, scale)
            shared = estimator.preprocessing_stats
            index = build_index(
                scale, quick.base_n, quick.capacity, quick.seed, quick.dataset_kind
            )
            assert shared.anchors_total == 5 * len(index.leaves)
            assert shared.profiles_computed == shared.anchors_unique < shared.anchors_total
        reference = staircase_store(index, quick.max_k)
        assert estimator.to_store().to_bytes() == reference.to_bytes()

    def test_fig14_storage_ordering(self, quick):
        result = experiment_runner("fig14")(quick)
        for __, cc_bytes, c_bytes, __d in result.rows:
            assert cc_bytes > c_bytes > 0

    def test_fig14_storage_grows_with_scale(self, quick):
        result = experiment_runner("fig14")(quick)
        cc = result.column("staircase_center_corners_bytes")
        assert cc == sorted(cc)

    def test_fig15_error_improves_with_the_sample(self, quick):
        errors = experiment_runner("fig15")(quick).column("catalog_merge")
        assert errors[-1] <= errors[0]
        assert errors[-1] < 0.25

    def test_fig16_error_bounded(self, quick):
        errors = experiment_runner("fig16")(quick).column("virtual_grid")
        assert np.mean(errors) < 0.45

    def test_fig17_catalog_merge_fastest(self, quick, monkeypatch):
        # In operations per estimate: one catalog lookup and no locality
        # work, against one locality per sampled block for Block-Sample.
        result = experiment_runner("fig17")(quick)
        for __, *timings in result.rows:
            assert all(math.isfinite(t) and t > 0.0 for t in timings)
        scale, size = quick.scales[-1], quick.join_sample_size
        assert join_support.block_sample_estimator(quick, scale, size).sample_size > 1
        catalog_merge = join_support.catalog_merge_estimator(quick, scale, size)
        for k in k_series(quick.max_k):
            assert _catalog_merge_lookups(catalog_merge, k, monkeypatch) == 1

    def test_fig18_block_sample_slower_than_catalog_merge(self, quick, monkeypatch):
        # Localities sized per Block-Sample estimate grow with the sample
        # size; Catalog-Merge stays at its one lookup.
        result = experiment_runner("fig18")(quick)
        for __, *timings in result.rows:
            assert all(math.isfinite(t) and t > 0.0 for t in timings)
        scale, k = quick.scales[-1], min(64, quick.max_k)
        sizes = (10, 30, 90)
        localities = [
            join_support.block_sample_estimator(quick, scale, s).sample_size
            for s in sizes
        ]
        assert localities == sorted(set(localities)) and localities[0] > 1
        for s in sizes:
            catalog_merge = join_support.catalog_merge_estimator(quick, scale, s)
            assert _catalog_merge_lookups(catalog_merge, k, monkeypatch) == 1

    def test_fig20_virtual_grid_smaller(self, quick):
        result = experiment_runner("fig20")(quick)
        for __, cm_bytes, vg_bytes, ratio in result.rows:
            assert cm_bytes > vg_bytes > 0  # pairwise catalogs always dominate
            assert ratio == pytest.approx(cm_bytes / vg_bytes)
        # The ratio tracks the catalog counts: n(n-1) pair catalogs
        # against n grid catalog sets, i.e. roughly (n-1)x.
        assert result.rows[-1][3] > (quick.n_relations - 1) * 0.5

    def test_fig21_block_sample_zero(self, quick):
        result = experiment_runner("fig21")(quick)
        assert all(row[2] == 0.0 for row in result.rows)

    def test_fig22_storage_grows_with_parameter(self, quick):
        result = experiment_runner("fig22")(quick)
        vg_rows = [r for r in result.rows if r[0] == "b:virtual_grid"]
        sizes = [r[2] for r in vg_rows]
        assert sizes == sorted(sizes)
        cm_rows = [r for r in result.rows if r[0] == "a:catalog_merge"]
        assert cm_rows[-1][2] >= cm_rows[0][2]

    def test_fig24_has_all_techniques(self, quick):
        result = experiment_runner("fig24")(quick)
        techniques = set(result.column("technique"))
        assert techniques == {
            "Density-Based",
            "Staircase (Center-Only)",
            "Staircase (Center+Corners)",
            "Block-Sample",
            "Catalog-Merge",
            "Virtual-Grid",
        }
        buckets = set(result.column("est_time_bucket_s"))
        assert buckets <= {"Low", "Medium", "High", "None"}
        # Structural entries of the paper's matrix: the computing
        # baselines precompute nothing, Block-Sample stores nothing.
        row = {r[1]: dict(zip(result.columns, r)) for r in result.rows}
        assert row["Density-Based"]["preprocessing_bucket_s"] == "None"
        assert row["Block-Sample"]["preprocessing_bucket_s"] == "None"
        assert row["Block-Sample"]["storage"] == "None"

    def test_capacity_widens_the_staircase(self, quick):
        # Section 3.1: larger capacity => fewer staircase steps per catalog.
        steps = experiment_runner("ablation_capacity")(quick).column(
            "mean_intervals_per_catalog"
        )
        assert steps[-1] < steps[0]

    def test_density_degrades_more_than_staircase_off_uniform_data(self, quick):
        result = experiment_runner("ablation_dataset_distribution")(quick)
        staircase, density = (
            dict(zip(result.column("dataset"), result.column(name)))
            for name in ("staircase_cc", "density_based")
        )
        assert (
            density["osm-like"] - density["uniform"]
            > staircase["osm-like"] - staircase["uniform"]
        )

    def test_staircase_usable_over_an_rtree(self, quick):
        result = experiment_runner("ablation_index_substrate")(quick)
        assert dict(zip(result.column("substrate"), result.column("mean_error")))["rtree"] < 1.0

    def test_k_distribution_orderings(self, quick):
        result = experiment_runner("ablation_k_distribution")(quick)
        cc, center, density = (
            dict(zip(result.column("k_distribution"), result.column(name)))
            for name in ("staircase_cc", "staircase_center", "density")
        )
        # Large k (the regime of the paper's figures): Staircase beats density.
        assert cc["large-only"] < density["large-only"]
        assert center["large-only"] < density["large-only"]
        # Small k is strictly harder for Center+Corners; Center-Only is robust.
        assert cc["zipf"] >= cc["large-only"]
        assert center["zipf"] <= cc["zipf"]

    def test_browsing_never_scans_more_than_depth_first(self, quick):
        result = experiment_runner("ablation_knn_algorithm")(quick)
        for __, browsing, depth_first in result.rows:
            assert depth_first >= browsing >= 1
        assert "beaten on 0 of" in result.notes[0]

    def test_clipped_assignment_only_shrinks_the_estimate(self, quick):
        scale = max(quick.scales)
        grid = join_support.virtual_grid_estimator(quick, scale, quick.join_grid_size)
        outer = join_support.relation_counts(quick, scale, 0)
        k = min(quick.join_k_values[0], quick.max_k)
        overlap = grid.estimate(outer, k, assignment="overlap")
        assert 0 < grid.estimate(outer, k, assignment="clipped") <= overlap

    def test_plan_quality_regret_is_small(self, quick):
        ((n_queries, correct, regret),) = experiment_runner("plan_quality")(quick).rows
        assert regret < 0.30
        assert correct >= n_queries * 0.6

    def test_lbs_optimized_stream_tracks_the_better_static_policy(self, quick):
        result = experiment_runner("lbs_simulation")(quick)
        blocks = dict(zip(result.column("policy"), result.column("total_blocks")))
        static = (blocks["always-scan"], blocks["always-browse"])
        assert blocks["optimized"] <= min(static) * 1.02
        assert blocks["optimized"] < max(static) * 0.8


class TestRunnerCli:
    def test_single_experiment(self, capsys):
        code = main(["fig04", "--profile", "quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig04" in out

    def test_dataset_override(self, capsys):
        code = main(["fig04", "--profile", "quick", "--dataset", "uniform"])
        assert code == 0
        assert "fig04" in capsys.readouterr().out

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["fig04", "--profile", "quick", "--dataset", "fractal"])

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["fig99", "--profile", "quick"])

    def test_write_path_is_derived_from_the_profile(self):
        assert table_path("fig11", "default") == runner.RESULTS_ROOT / "fig11.txt"
        assert table_path("fig11", "quick") == QUICK_TABLES / "fig11.txt"

    def test_write_never_touches_another_profiles_tables(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(runner, "RESULTS_ROOT", tmp_path)
        (tmp_path / "fig13.txt").write_text("the default profile's table\n")
        assert main(["fig13", "--profile", "quick"]) == 0  # no --write, no file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig13.txt"]
        assert main(["fig13", "--profile", "quick", "--write"]) == 0
        first = (tmp_path / "quick" / "fig13.txt").read_text()
        assert first in capsys.readouterr().out  # what was printed is what was saved
        assert (tmp_path / "fig13.txt").read_text() == "the default profile's table\n"
        # A second write of the same profile moves nothing but wall-clock cells.
        assert main(["fig13", "--profile", "quick", "--write"]) == 0
        second = (tmp_path / "quick" / "fig13.txt").read_text()
        assert exact_cells(second) == exact_cells(first)
        assert exact_cells(first) == exact_cells((QUICK_TABLES / "fig13.txt").read_text())
        assert sorted(p.name for p in tmp_path.rglob("*.txt")) == ["fig13.txt"] * 2

    def test_write_rejects_a_dataset_override(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "RESULTS_ROOT", tmp_path)
        with pytest.raises(SystemExit):
            main(["fig04", "--profile", "quick", "--dataset", "uniform", "--write"])
        assert not list(tmp_path.iterdir())

    def test_write_needs_a_source_checkout(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "RESULTS_ROOT", tmp_path / "site-packages" / "results")
        with pytest.raises(SystemExit):
            main(["fig04", "--profile", "quick", "--write"])
        assert not list(tmp_path.iterdir())
