#!/usr/bin/env python3
"""k-NN-Join cost estimation: "for each hotel, its k closest restaurants".

Builds two co-distributed relations (hotels and restaurants share the
same street network, as real POI types do), runs the locality-based
k-NN-Join for ground truth, and compares the paper's three join cost
estimators — Block-Sample, Catalog-Merge, and Virtual-Grid — on
accuracy, estimation latency, preprocessing, and storage.

Run:
    python examples/hotel_restaurant_join.py
"""

from __future__ import annotations

import time

import repro
from repro.datasets import WORLD_BOUNDS


def main() -> None:
    print("Building hotels (60k) and restaurants (120k) over one street network...")
    hotels = repro.generate_osm_like(60_000, seed=31, structure_seed=30)
    restaurants = repro.generate_osm_like(120_000, seed=32, structure_seed=30)
    hotel_index = repro.Quadtree(hotels, capacity=256)
    restaurant_index = repro.Quadtree(restaurants, capacity=256)
    restaurant_counts = repro.IndexSnapshot.from_index(restaurant_index)
    print(
        f"  -> hotels: {hotel_index.num_blocks} blocks, "
        f"restaurants: {restaurant_index.num_blocks} blocks"
    )

    k = 20
    print(f"\nGround truth: locality-based k-NN-Join (k={k})...")
    start = time.perf_counter()
    actual = repro.knn_join_cost(hotel_index, restaurant_index, k)
    print(
        f"  -> scans {actual} restaurant blocks "
        f"(computed in {time.perf_counter() - start:.2f}s)"
    )

    print("\nEstimators (hotels ⋉_kNN restaurants):")
    block_sample = repro.BlockSampleEstimator(
        hotel_index, restaurant_counts, sample_size=400
    )
    catalog_merge = repro.CatalogMergeEstimator(
        hotel_index, restaurant_counts, sample_size=400, max_k=2_048
    )
    virtual_grid = repro.VirtualGridEstimator(
        restaurant_counts, bounds=WORLD_BOUNDS, grid_size=10, max_k=2_048
    )
    bound_grid = virtual_grid.for_outer(hotel_index)

    print(f"{'technique':>15} {'estimate':>10} {'error':>7} {'est time':>10} "
          f"{'preproc':>9} {'storage':>9}")
    for name, estimator in (
        ("Block-Sample", block_sample),
        ("Catalog-Merge", catalog_merge),
        ("Virtual-Grid", bound_grid),
    ):
        start = time.perf_counter()
        estimate = estimator.estimate(k)
        elapsed = time.perf_counter() - start
        error = abs(estimate - actual) / actual
        print(
            f"{name:>15} {estimate:>10.0f} {error:>6.1%} {elapsed:>9.2e}s "
            f"{estimator.preprocessing_seconds:>8.2f}s "
            f"{estimator.storage_bytes():>8d}B"
        )
    print(
        "\nVirtual-Grid trades accuracy for linear (per-relation) storage "
        "— the paper's Figure 24 rates it Medium accuracy vs Catalog-"
        "Merge's High.  Its linear diagonal scaling is coarsest for small "
        "k; the bias shrinks as k grows:"
    )
    for k_probe in (20, 200, 1_000, 2_000):
        actual_probe = repro.knn_join_cost(hotel_index, restaurant_index, k_probe)
        estimate_probe = bound_grid.estimate(k_probe)
        err = (estimate_probe - actual_probe) / actual_probe
        print(f"  k={k_probe:>5}: Virtual-Grid error {err:+.0%}")

    print(
        "\nThe single Virtual-Grid catalog set also serves any other outer "
        "relation against the restaurants — here, a second query batch:"
    )
    cafes = repro.generate_osm_like(10_000, seed=33, structure_seed=30)
    cafe_index = repro.Quadtree(cafes, capacity=256)
    cafe_actual = repro.knn_join_cost(cafe_index, restaurant_index, k)
    cafe_estimate = virtual_grid.estimate(repro.IndexSnapshot.from_index(cafe_index), k)
    print(
        f"  cafes ⋉_kNN restaurants: estimate {cafe_estimate:.0f} vs actual "
        f"{cafe_actual} ({abs(cafe_estimate - cafe_actual) / cafe_actual:.1%} error) "
        "— no new preprocessing needed."
    )


if __name__ == "__main__":
    main()
