"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import save_points_csv


@pytest.fixture(scope="module")
def points_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "pts.csv"
    rng = np.random.default_rng(0)
    save_points_csv(rng.uniform(0, 100, size=(3_000, 2)), path)
    return str(path)


@pytest.fixture(scope="module")
def inner_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "inner.csv"
    rng = np.random.default_rng(1)
    save_points_csv(rng.uniform(0, 100, size=(3_000, 2)), path)
    return str(path)


class TestGenerate:
    def test_generates_csv(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = main(["generate", "--kind", "uniform", "-n", "500", "-o", str(out)])
        assert code == 0
        assert out.exists()
        assert "500" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["osm", "uniform", "skewed"])
    def test_all_kinds(self, tmp_path, kind):
        out = tmp_path / f"{kind}.csv"
        assert main(["generate", "--kind", kind, "-n", "100", "-o", str(out)]) == 0


class TestIndexStats:
    def test_prints_stats(self, points_csv, capsys):
        assert main(["index-stats", points_csv, "--capacity", "128"]) == 0
        out = capsys.readouterr().out
        assert "points:" in out and "3000" in out
        assert "blocks:" in out


class TestVisualize:
    def test_density(self, points_csv, capsys):
        assert main(["visualize", points_csv, "--width", "30", "--height", "10"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().split("\n")) == 10

    def test_with_blocks(self, points_csv, capsys):
        code = main(
            ["visualize", points_csv, "--blocks", "--width", "30", "--height", "10"]
        )
        assert code == 0
        assert "+" in capsys.readouterr().out


class TestStaircase:
    def test_prints_profile_and_plot(self, points_csv, capsys):
        code = main(
            [
                "staircase", points_csv,
                "--x", "50", "--y", "50", "--max-k", "256", "--capacity", "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "k_start" in out
        assert "*" in out  # the ASCII staircase


class TestEstimateSelect:
    @pytest.mark.parametrize("technique", ["staircase", "density"])
    def test_estimates(self, points_csv, capsys, technique):
        code = main(
            [
                "estimate-select", points_csv,
                "--x", "50", "--y", "50", "-k", "32",
                "--technique", technique,
                "--max-k", "64", "--capacity", "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimate:" in out and "actual:" in out and "error:" in out


class TestEstimateJoin:
    @pytest.mark.parametrize(
        "technique", ["catalog-merge", "block-sample", "virtual-grid"]
    )
    def test_estimates(self, points_csv, inner_csv, capsys, technique):
        code = main(
            [
                "estimate-join", points_csv, inner_csv,
                "-k", "16", "--technique", technique,
                "--sample-size", "30", "--grid-size", "4",
                "--max-k", "64", "--capacity", "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert technique in out
        assert "error:" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestResilienceBehavior:
    def test_malformed_csv_exits_2_with_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1.0,2.0\n3.0,oops\n")
        code = main(["estimate-select", str(bad), "--x", "0", "--y", "0", "-k", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 3" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["estimate-select", str(tmp_path / "nope.csv"), "--x", "0", "--y", "0", "-k", "4"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_strict_flag_accepted_and_healthy(self, points_csv, capsys):
        code = main(
            [
                "estimate-select", points_csv,
                "--x", "50", "--y", "50", "-k", "8",
                "--max-k", "64", "--capacity", "64", "--strict",
            ]
        )
        assert code == 0
        assert "degraded:" not in capsys.readouterr().out

    def test_join_strict_flag_accepted(self, points_csv, inner_csv, capsys):
        code = main(
            [
                "estimate-join", points_csv, inner_csv,
                "-k", "8", "--technique", "block-sample",
                "--sample-size", "10", "--max-k", "64",
                "--capacity", "64", "--strict",
            ]
        )
        assert code == 0
        assert "estimate:" in capsys.readouterr().out


class TestEstimateSelectBatch:
    @pytest.fixture(scope="class")
    def queries_csv(self, tmp_path_factory):
        from repro.geometry import Rect
        from repro.workloads import QueryBatch

        path = tmp_path_factory.mktemp("cli_batch") / "queries.csv"
        batch = QueryBatch.uniform(Rect(0, 0, 100, 100), 80, 16, seed=7)
        batch.to_csv(path)
        return str(path)

    def test_batch_mode_reports_throughput(self, points_csv, queries_csv, capsys):
        code = main(
            [
                "estimate-select", points_csv,
                "--batch", queries_csv,
                "--max-k", "64", "--capacity", "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workload:" in out and "80 queries" in out
        assert "mode:" in out and "batch" in out
        assert "throughput:" in out and "queries/s" in out
        assert "latency:" in out

    def test_cache_size_is_an_unknown_argument(self, points_csv, queries_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate-select", points_csv, "--batch", queries_csv, "--cache-size", "4096"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache-size" in capsys.readouterr().err

    def test_scalar_args_required_without_batch(self, points_csv, capsys):
        code = main(["estimate-select", points_csv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--batch" in err

    def test_missing_queries_csv_exits_2(self, points_csv, tmp_path, capsys):
        code = main(
            ["estimate-select", points_csv, "--batch", str(tmp_path / "nope.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_queries_csv_exits_2(self, points_csv, tmp_path, capsys):
        bad = tmp_path / "bad_queries.csv"
        bad.write_text("x,y\n1.0,2.0\n")
        code = main(["estimate-select", points_csv, "--batch", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "columns" in err

    def test_strict_escalates_suspicious_queries(
        self, points_csv, tmp_path, capsys
    ):
        # k beyond the relation's 3000 rows: a note by default, an
        # InvalidQueryError (exit 2) under --strict — the same contract
        # as the scalar command.
        far = tmp_path / "big_k.csv"
        far.write_text("x,y,k\n50.0,50.0,5000\n")
        code = main(
            [
                "estimate-select", points_csv,
                "--batch", str(far),
                "--max-k", "64", "--capacity", "64",
            ]
        )
        assert code == 0
        code = main(
            [
                "estimate-select", points_csv,
                "--batch", str(far),
                "--max-k", "64", "--capacity", "64", "--strict",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestShardedCli:
    @pytest.fixture(scope="class")
    def queries_csv(self, tmp_path_factory):
        from repro.geometry import Rect
        from repro.workloads import QueryBatch

        path = tmp_path_factory.mktemp("cli_sharded") / "queries.csv"
        batch = QueryBatch.uniform(Rect(0, 0, 100, 100), 40, 8, seed=9)
        batch.to_csv(path)
        return str(path)

    @pytest.mark.parametrize("shard_mode", ["replica", "data"])
    def test_shard_mode_serves_and_reports(
        self, points_csv, queries_csv, capsys, shard_mode
    ):
        code = main(
            [
                "estimate-select", points_csv,
                "--batch", queries_csv,
                "--shards", "2",
                "--shard-mode", shard_mode,
                "--max-k", "64", "--capacity", "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mode:        sharded" in out
        assert f"shard mode:  {shard_mode}" in out

    def test_unknown_shard_mode_is_rejected(self, points_csv, queries_csv):
        with pytest.raises(SystemExit):
            main(
                [
                    "estimate-select", points_csv,
                    "--batch", queries_csv,
                    "--shards", "2", "--shard-mode", "quantum",
                ]
            )


class TestExplainTiming:
    def test_explain_renders_per_link_elapsed(self, points_csv, capsys):
        code = main(
            [
                "estimate-select", points_csv,
                "--x", "50", "--y", "50", "-k", "8",
                "--max-k", "64", "--capacity", "64", "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        link_lines = [line for line in out.splitlines() if "link " in line]
        assert link_lines, out
        assert all("us)" in line for line in link_lines), link_lines
