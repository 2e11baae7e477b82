"""Tests for workload generation and metrics."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.workloads import (
    ErrorSummary,
    QueryBatch,
    SelectQuery,
    data_distributed_queries,
    error_ratio,
    mean_error_ratio,
    random_k_values,
    summarize_errors,
    time_callable,
    serve_workload,
    uniform_queries,
    zipf_k_values,
)
from repro.geometry import Point


class TestQueries:
    def test_select_query_validates_k(self):
        with pytest.raises(ValueError):
            SelectQuery(Point(0, 0), 0)

    def test_random_k_range(self):
        ks = random_k_values(1_000, 64, seed=0)
        assert ks.min() >= 1
        assert ks.max() <= 64

    def test_random_k_rejects_bad_args(self):
        with pytest.raises(ValueError):
            random_k_values(-1, 10)
        with pytest.raises(ValueError):
            random_k_values(10, 0)

    def test_zipf_k_range(self):
        ks = zipf_k_values(2_000, 100, seed=0)
        assert ks.min() >= 1
        assert ks.max() <= 100

    def test_zipf_is_small_k_heavy(self):
        uniform = random_k_values(5_000, 100, seed=0)
        zipf = zipf_k_values(5_000, 100, seed=0)
        assert float(np.median(zipf)) < float(np.median(uniform))
        # More than half the Zipf mass sits in the bottom decile.
        assert float(np.mean(zipf <= 10)) > 0.5

    def test_zipf_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            zipf_k_values(10, 100, exponent=1.0)

    def test_zipf_deterministic(self):
        assert np.array_equal(zipf_k_values(100, 50, seed=3), zipf_k_values(100, 50, seed=3))

    def test_data_distributed_queries_on_data(self, osm_points):
        queries = data_distributed_queries(osm_points, 50, 32, seed=0)
        assert len(queries) == 50
        point_set = {(x, y) for x, y in osm_points}
        for q in queries:
            assert (q.query.x, q.query.y) in point_set
            assert 1 <= q.k <= 32

    def test_data_distributed_rejects_empty(self):
        with pytest.raises(ValueError):
            data_distributed_queries(np.empty((0, 2)), 5, 8)

    def test_uniform_queries_in_bounds(self):
        bounds = Rect(10, 20, 30, 40)
        queries = uniform_queries(bounds, 50, 16, seed=0)
        assert len(queries) == 50
        for q in queries:
            assert bounds.contains_point(q.query)

    def test_deterministic(self, osm_points):
        a = data_distributed_queries(osm_points, 20, 8, seed=5)
        b = data_distributed_queries(osm_points, 20, 8, seed=5)
        assert a == b


class TestErrorMetrics:
    def test_error_ratio_basics(self):
        assert error_ratio(10, 10) == 0.0
        assert error_ratio(15, 10) == 0.5
        assert error_ratio(5, 10) == 0.5

    def test_error_ratio_zero_actual(self):
        assert error_ratio(0, 0) == 0.0
        assert error_ratio(1, 0) == float("inf")

    def test_mean_error_ratio(self):
        assert mean_error_ratio([10, 20], [10, 10]) == pytest.approx(0.5)

    def test_mean_rejects_mismatch(self):
        with pytest.raises(ValueError):
            mean_error_ratio([1], [1, 2])

    def test_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            mean_error_ratio([], [])

    def test_summarize(self):
        summary = summarize_errors([10, 20, 30], [10, 10, 10])
        assert isinstance(summary, ErrorSummary)
        assert summary.mean == pytest.approx(1.0)
        assert summary.median == pytest.approx(1.0)
        assert summary.count == 3
        assert "mean" in str(summary)


class TestTiming:
    def test_time_callable(self):
        stats = time_callable(lambda: sum(range(100)), repeats=10, warmup=1)
        assert stats.calls == 10
        assert stats.mean_seconds > 0
        assert stats.min_seconds <= stats.mean_seconds
        assert stats.total_seconds >= stats.min_seconds * 10

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)


class TestQueryBatch:
    def test_construction_normalizes_dtypes(self):
        batch = QueryBatch([[1, 2], [3, 4]], [5, 6])
        assert batch.points.dtype == np.dtype(np.float64)
        assert batch.points.shape == (2, 2)
        assert batch.ks.dtype == np.dtype(np.int64)
        assert len(batch) == 2

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            QueryBatch(np.zeros((3, 2)), np.array([1, 2]))

    def test_rejects_first_invalid_k(self):
        with pytest.raises(ValueError, match="got 0"):
            QueryBatch(np.zeros((3, 2)), np.array([1, 0, -2]))

    def test_empty_batch(self):
        batch = QueryBatch(np.empty((0, 2)), np.empty(0, dtype=np.int64))
        assert len(batch) == 0
        assert batch.describe() == "0 queries"
        assert list(batch.iter_queries()) == []

    def test_lazy_views(self):
        batch = QueryBatch([[1.5, 2.5], [3.0, 4.0]], [7, 9])
        assert batch.point(0) == Point(1.5, 2.5)
        query = batch[1]
        assert isinstance(query, SelectQuery)
        assert query.query == Point(3.0, 4.0)
        assert query.k == 9
        assert [q.k for q in batch.iter_queries()] == [7, 9]

    def test_data_distributed_samples_data_points(self):
        data = np.random.default_rng(0).uniform(0, 100, size=(500, 2))
        batch = QueryBatch.data_distributed(data, 50, 16, seed=1)
        assert len(batch) == 50
        assert batch.ks.min() >= 1 and batch.ks.max() <= 16
        rows = {tuple(row) for row in data}
        assert all(tuple(p) in rows for p in batch.points)

    def test_data_distributed_rejects_empty(self):
        with pytest.raises(ValueError):
            QueryBatch.data_distributed(np.empty((0, 2)), 10, 5)

    def test_uniform_stays_in_bounds(self):
        bounds = Rect(10.0, 20.0, 30.0, 40.0)
        batch = QueryBatch.uniform(bounds, 200, 8, seed=2)
        assert len(batch) == 200
        assert batch.points[:, 0].min() >= 10.0
        assert batch.points[:, 0].max() <= 30.0
        assert batch.points[:, 1].min() >= 20.0
        assert batch.points[:, 1].max() <= 40.0

    def test_csv_roundtrip_is_exact(self, tmp_path):
        original = QueryBatch.uniform(Rect(0, 0, 1, 1), 40, 12, seed=3)
        path = tmp_path / "queries.csv"
        original.to_csv(path)
        loaded = QueryBatch.from_csv(path)
        np.testing.assert_array_equal(original.points, loaded.points)
        np.testing.assert_array_equal(original.ks, loaded.ks)

    def test_from_csv_without_header(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("1.0,2.0,3\n4.0,5.0,6\n")
        batch = QueryBatch.from_csv(path)
        assert len(batch) == 2
        np.testing.assert_array_equal(batch.ks, [3, 6])

    def test_from_csv_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x,y,k\n1.0,2.0,3\n")
        batch = QueryBatch.from_csv(path)
        assert len(batch) == 1
        assert batch[0].k == 3

    def test_from_csv_rejects_wrong_columns(self, tmp_path):
        path = tmp_path / "two_cols.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="columns"):
            QueryBatch.from_csv(path)

    def test_from_csv_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,k\n1.0,oops,3\n")
        with pytest.raises(ValueError, match="non-numeric"):
            QueryBatch.from_csv(path)

    def test_as_knn_queries(self):
        batch = QueryBatch([[1.0, 2.0]], [4])
        queries = batch.as_knn_queries("pts")
        assert len(queries) == 1
        assert queries[0].table == "pts"
        assert queries[0].query == Point(1.0, 2.0)
        assert queries[0].k == 4

    def test_describe(self):
        batch = QueryBatch([[0, 0], [1, 1]], [3, 11])
        assert batch.describe() == "2 queries, k in [3, 11]"


class TestServeWorkload:
    @pytest.fixture(scope="class")
    def engine(self):
        from repro.engine import SpatialEngine, SpatialTable, StatisticsManager

        points = np.random.default_rng(4).uniform(0, 100, size=(2_000, 2))
        engine = SpatialEngine(StatisticsManager(max_k=32))
        engine.register(SpatialTable("pts", points, capacity=64))
        return engine

    @pytest.fixture(scope="class")
    def batch(self):
        return QueryBatch.uniform(Rect(0, 0, 100, 100), 60, 16, seed=5)

    def test_report_metrics_and_describe(self, engine, batch):
        report = serve_workload(engine, "pts", batch)
        assert report.seconds > 0
        assert report.queries_per_second > 0
        assert report.mean_latency_us > 0
        assert len(report.explanations) == len(batch)
        text = report.describe()
        for field in ("mode:", "queries:", "throughput:", "latency:"):
            assert field in text

    def test_cacheless_engine_reports_none(self, engine, batch):
        """Estimates are never cached, so a report carries no cache figures."""
        report = serve_workload(engine, "pts", batch)
        assert not any(name.startswith("cache") for name in dir(report))
        assert "cache" not in report.describe()

    def test_rejects_unknown_mode(self, engine, batch):
        with pytest.raises(ValueError, match="mode"):
            serve_workload(engine, "pts", batch, mode="turbo")

    def test_empty_workload(self, engine):
        empty = QueryBatch(np.empty((0, 2)), np.empty(0, dtype=np.int64))
        report = serve_workload(engine, "pts", empty)
        assert report.n_queries == 0
        assert report.queries_per_second == 0.0
        assert report.mean_latency_us == 0.0
