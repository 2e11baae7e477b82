"""Figure 14 bench: Staircase catalog storage versus scale.

Regenerates the storage table and benchmarks catalog serialization (the
operation whose output size the figure reports).
"""

from __future__ import annotations

from _bench_utils import headline, save_table
from repro.catalog import catalog_to_bytes
from repro.estimators import build_select_catalog
from repro.experiments.common import build_snapshot, build_index
from repro.experiments.fig14_select_storage import run
from repro.geometry import Point


def test_fig14_table_and_serialization(benchmark, bench_config):
    result = run(bench_config)
    save_table(result)
    cc = result.column("staircase_center_corners_bytes")
    c = result.column("staircase_center_only_bytes")
    # Paper shape: storage grows with scale; Center+Corners ~2x.
    assert cc == sorted(cc)
    assert all(big > small for big, small in zip(cc, c))

    cfg = bench_config
    scale = cfg.scales[0]
    index = build_index(scale, cfg.base_n, cfg.capacity, cfg.seed, cfg.dataset_kind)
    counts = build_snapshot(
        scale, cfg.base_n, cfg.capacity, cfg.seed, cfg.dataset_kind
    )
    catalog = build_select_catalog(
        counts, index.blocks, Point(500.0, 500.0), cfg.max_k
    )

    payload = benchmark(catalog_to_bytes, catalog)
    benchmark.extra_info.update(headline(result, max_rows=10))
    assert len(payload) > 0
