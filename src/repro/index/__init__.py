"""Spatial index substrate.

The paper assumes the data points are organized in a hierarchical
spatial index; its testbed uses a region quadtree, and the techniques
are stated to apply to R-trees and other variants as well.  This
subpackage implements:

* :class:`~repro.index.quadtree.Quadtree` — a point-region quadtree
  (space-partitioning), the paper's data index.
* :class:`~repro.index.rtree.RTree` — an STR bulk-loaded R-tree
  (data-partitioning), exercising the "auxiliary index differs from the
  data index" path of Section 3.3.
* :class:`~repro.index.grid.GridIndex` — a uniform grid, the substrate
  of the Virtual-Grid join estimator.
* :class:`~repro.index.snapshot.IndexSnapshot` — the paper's
  Count-Index (§2): the frozen columnar summary of per-block bounds and
  counts (no data points), gathered once from any of the above, that
  every cost estimator and k-NN algorithm consumes.
* :class:`~repro.index.locator.BlockLocator` — the bucket grid that
  finds the block (or auxiliary leaf) containing a point by testing
  only the rects filed under the point's cell.
"""

from repro.index.base import Block, IndexNode, SpatialIndex
from repro.index.quadtree import Quadtree, QuadtreeNode
from repro.index.rtree import RTree, RTreeNode
from repro.index.grid import GridIndex
from repro.index.hierarchical_count import HierarchicalCountIndex
from repro.index.mutable_quadtree import MutableQuadtree
from repro.index.locator import BlockLocator
from repro.index.snapshot import IndexSnapshot, as_snapshot, partition_bounds

__all__ = [
    "Block",
    "IndexNode",
    "SpatialIndex",
    "Quadtree",
    "QuadtreeNode",
    "RTree",
    "RTreeNode",
    "GridIndex",
    "HierarchicalCountIndex",
    "MutableQuadtree",
    "IndexSnapshot",
    "as_snapshot",
    "partition_bounds",
    "BlockLocator",
]
