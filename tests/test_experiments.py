"""Integration tests: every experiment runs on the quick profile and
produces a table with the paper's qualitative shape."""

import math

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
from repro.experiments.fig12_select_time import k_series
from repro.experiments.runner import EXPERIMENTS, experiment_runner, main
from tests.reference_builds import staircase_store


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
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_runs_and_is_nonempty(self, name, quick):
        result = experiment_runner(name)(quick)
        assert isinstance(result, ExperimentResult)
        assert result.rows, f"{name} produced no rows"

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            experiment_runner("fig99")


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

    Figures 12, 13, 17 and 18 are about wall-clock time; Tier-1 asserts
    only what is deterministic about them (series, operation counts) and
    leaves the timing orderings to the ``benchmarks/bench_fig*`` modules
    of the same names, where a host stall cannot fail the suite.
    """

    def test_fig04_staircase_monotone(self, quick):
        result = experiment_runner("fig04")(quick)
        costs = result.column("cost_blocks")
        assert costs == sorted(costs)
        assert len(costs) >= 2  # the staircase has steps

    def test_fig07_locality_monotone(self, quick):
        result = experiment_runner("fig07")(quick)
        sizes = result.column("locality_size")
        assert sizes == sorted(sizes)

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
            assert cm_bytes > 0 and vg_bytes > 0
            assert ratio == pytest.approx(cm_bytes / vg_bytes)

    def test_fig21_block_sample_zero(self, quick):
        result = experiment_runner("fig21")(quick)
        assert all(row[2] == 0.0 for row in result.rows)

    def test_fig22_storage_grows_with_parameter(self, quick):
        result = experiment_runner("fig22")(quick)
        vg_rows = [r for r in result.rows if r[0] == "b:virtual_grid"]
        sizes = [r[2] for r in vg_rows]
        assert sizes == sorted(sizes)

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
        buckets = set(result.column("est_time"))
        assert buckets <= {"Low", "Medium", "High", "None"}


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
