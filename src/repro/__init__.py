"""repro — Cost estimation of spatial k-nearest-neighbor operators.

A complete reproduction of Aly, Aref & Ouzzani, *Cost Estimation of
Spatial k-Nearest-Neighbor Operators* (EDBT 2015): the spatial index
substrate (region quadtree, STR R-tree, grid, Count-Index), the k-NN
operators whose cost is modelled (distance browsing, locality-based
k-NN-Join), and the paper's five estimation techniques (Staircase,
density-based, Block-Sample, Catalog-Merge, Virtual-Grid), plus the
experiment harness regenerating every table and figure of the paper's
evaluation.

Quickstart::

    import repro
    points = repro.generate_osm_like(100_000, seed=1)
    index = repro.Quadtree(points, capacity=256)
    estimator = repro.StaircaseEstimator(index, max_k=1_024)
    q = repro.Point(500.0, 500.0)
    estimated = estimator.estimate(q, k=64)
    actual = repro.select_cost(index, q, k=64)
"""

from repro.geometry import (
    Point,
    Rect,
    mindist_point_rect,
    maxdist_point_rect,
    mindist_rect_rect,
    maxdist_rect_rect,
)
from repro.index import (
    Block,
    GridIndex,
    HierarchicalCountIndex,
    IndexSnapshot,
    MutableQuadtree,
    Quadtree,
    RTree,
    SpatialIndex,
    as_snapshot,
)
from repro.knn import (
    DistanceBrowser,
    brute_force_knn,
    depth_first_knn,
    knn_join_cost,
    knn_select,
    locality_block_indices,
    locality_size,
    locality_size_profile,
    select_cost,
    select_cost_exact,
    select_cost_profile,
)
from repro.catalog import (
    CatalogLookupError,
    CatalogStore,
    IntervalCatalog,
    catalog_storage_bytes,
    merge_max,
    merge_sum,
)
from repro.estimators import (
    BlockSampleEstimator,
    BoundVirtualGridEstimator,
    CatalogMergeEstimator,
    DensityBasedEstimator,
    JoinCostEstimator,
    MaintainedStaircaseEstimator,
    UniformModelEstimator,
    SelectCostEstimator,
    StaircaseEstimator,
    VirtualGridEstimator,
    build_select_catalog,
)
from repro.datasets import (
    WORLD_BOUNDS,
    generate_gaussian_clusters,
    generate_osm_like,
    generate_skewed,
    generate_uniform,
    load_points_csv,
    save_points_csv,
    scale_factor_points,
)

__version__ = "1.0.0"

__all__ = [
    # geometry
    "Point",
    "Rect",
    "mindist_point_rect",
    "maxdist_point_rect",
    "mindist_rect_rect",
    "maxdist_rect_rect",
    # indexes
    "Block",
    "GridIndex",
    "HierarchicalCountIndex",
    "IndexSnapshot",
    "MutableQuadtree",
    "Quadtree",
    "RTree",
    "SpatialIndex",
    "as_snapshot",
    # knn operators
    "DistanceBrowser",
    "brute_force_knn",
    "depth_first_knn",
    "knn_join_cost",
    "knn_select",
    "locality_block_indices",
    "locality_size",
    "locality_size_profile",
    "select_cost",
    "select_cost_exact",
    "select_cost_profile",
    # catalogs
    "CatalogLookupError",
    "CatalogStore",
    "IntervalCatalog",
    "catalog_storage_bytes",
    "merge_max",
    "merge_sum",
    # estimators
    "BlockSampleEstimator",
    "BoundVirtualGridEstimator",
    "CatalogMergeEstimator",
    "DensityBasedEstimator",
    "JoinCostEstimator",
    "MaintainedStaircaseEstimator",
    "SelectCostEstimator",
    "StaircaseEstimator",
    "UniformModelEstimator",
    "VirtualGridEstimator",
    "build_select_catalog",
    # datasets
    "WORLD_BOUNDS",
    "generate_gaussian_clusters",
    "generate_osm_like",
    "generate_skewed",
    "generate_uniform",
    "load_points_csv",
    "save_points_csv",
    "scale_factor_points",
    "__version__",
]
