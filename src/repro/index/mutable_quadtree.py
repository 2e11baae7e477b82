"""A mutable PR quadtree with generation-keyed update tracking.

The paper's catalogs are built once over a static index; a deployed
system must also survive inserts and deletes.  ``MutableQuadtree``
supports point insertion and deletion with the standard PR-quadtree
split/merge rules and records which leaf *regions* changed — the hook
the catalog estimators' ``refresh_incremental()`` (see
:mod:`repro.estimators.maintenance`) uses to rebuild exactly the
affected catalogs.

Change tracking is **generation-keyed and coalesced**: every mutation
bumps the monotone :attr:`data_generation`, and the *dirty log* maps
each touched region to the generation of its latest mutation (repeated
mutations of one region coalesce into one entry, so the log is bounded
by the number of distinct regions, not the number of mutations).  An
insert notes its leaf — the one a split kills — and a merge notes the
parent that absorbs its children, so every leaf that appeared or died
lies inside a noted region: the log's *maximal* regions (those inside
no other noted region) were nodes before the mutations and still are,
and everything outside them is unchanged.  :meth:`leaves_under` reads
the leaves now under such a region, which is how a consumer splices
its per-leaf state without walking the whole tree.

Consumers hold private generation watermarks and ask
:meth:`dirty_region_items_since` for everything after their watermark;
:meth:`prune_logs` (and the back-compat :meth:`clear_dirty`) advances
:attr:`log_floor`, below which history is discarded — a consumer whose
watermark predates the floor must treat everything as dirty (that
conservative fallback is what fixes the old watermark-desync bug, where
an external ``clear_dirty()`` silently marked mutated leaves clean
forever).

Blocks are materialized lazily: the mutable tree keeps per-leaf Python
lists for O(1) appends and converts to the immutable
:class:`~repro.index.base.Block` view (contiguous ids, numpy arrays)
only when :attr:`blocks` is read, invalidating the cache on mutation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry import Point, Rect
from repro.index.base import Block, IndexNode, SpatialIndex, validate_points
from repro.index.quadtree import DEFAULT_CAPACITY, DEFAULT_MAX_DEPTH, _resolve_bounds


class _MutNode(IndexNode):
    """One mutable quadtree node."""

    __slots__ = ("_rect", "_children", "points_list", "depth", "_block")

    def __init__(self, rect: Rect, depth: int) -> None:
        self._rect = rect
        self._children: list["_MutNode"] = []
        self.points_list: list[tuple[float, float]] = []
        self.depth = depth
        self._block: Block | None = None  # assigned at materialization

    @property
    def rect(self) -> Rect:
        return self._rect

    @property
    def is_leaf(self) -> bool:
        return not self._children

    @property
    def children(self) -> Sequence["_MutNode"]:
        return self._children

    @property
    def block(self) -> Block | None:
        return self._block

    def subtree_count(self) -> int:
        if self.is_leaf:
            return len(self.points_list)
        return sum(child.subtree_count() for child in self._children)


class MutableQuadtree(SpatialIndex):
    """A PR quadtree supporting inserts and deletes.

    Args:
        points: Initial ``(n, 2)`` points (may be empty).
        bounds: The fixed universe; inserts outside it are rejected.
            Defaults to a padded square box of the initial points.
        capacity: Leaf split threshold.
        max_depth: Depth cap against unsplittable duplicates.
    """

    def __init__(
        self,
        points=(),
        bounds: Rect | None = None,
        capacity: int = DEFAULT_CAPACITY,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        pts = validate_points(np.asarray(points, dtype=float).reshape(-1, 2))
        self._capacity = capacity
        self._max_depth = max_depth
        self._bounds = _resolve_bounds(pts, bounds)
        self._root = _MutNode(self._bounds, 0)
        self._n_points = 0
        self._blocks_cache: list[Block] | None = None
        #: region bounds -> generation of the region's latest mutation.
        self._dirty_log: dict[tuple[float, float, float, float], int] = {}
        self._log_floor = 0
        self._mutations_since_clear = 0
        self._data_generation = 0
        for x, y in pts:
            self.insert(float(x), float(y))
        # The bulk load is construction, not "updates" to track.
        self.clear_dirty()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, x: float, y: float) -> Rect:
        """Insert a point; returns the affected leaf region.

        Raises:
            ValueError: If the point lies outside the universe.
        """
        p = Point(x, y)
        if not self._bounds.contains_point(p):
            raise ValueError(f"point {p} is outside the index bounds {self._bounds}")
        leaf = self._descend(p)
        leaf.points_list.append((x, y))
        self._n_points += 1
        affected = leaf.rect
        # The noted region is the leaf a split below kills.
        self._note_change(affected)
        if len(leaf.points_list) > self._capacity and leaf.depth < self._max_depth:
            self._split(leaf)
        return affected

    def delete(self, x: float, y: float) -> bool:
        """Delete one occurrence of the point; returns whether it existed.

        Merge semantics (pinned by ``tests/test_index_mutable_quadtree``):
        after the removal, parents along the leaf's root path are
        examined bottom-up, and a parent absorbs its children only when
        **all four children are leaves** and the parent's subtree holds
        at most ``capacity // 2`` points.  Two corollaries:

        * a parent with any *internal* child never merges, which stops
          the cascade at the first mixed leaf/internal level (a higher
          ancestor can still merge later, once deeper deletes have
          collapsed its subtrees into leaves one level at a time);
        * with ``capacity == 1`` the threshold is ``1 // 2 == 0``, so a
          non-empty parent can never merge — only deleting the last
          point of a subtree collapses it.
        """
        p = Point(x, y)
        if not self._bounds.contains_point(p):
            return False
        path: list[_MutNode] = []
        node = self._root
        while not node.is_leaf:
            path.append(node)
            node = self._child_for(node, p)
        try:
            node.points_list.remove((x, y))
        except ValueError:
            return False
        self._n_points -= 1
        self._note_change(node.rect)
        # Merge underfull subtrees bottom-up.
        for parent in reversed(path):
            if all(child.is_leaf for child in parent.children) and (
                parent.subtree_count() <= self._capacity // 2
            ):
                merged: list[tuple[float, float]] = []
                self._note_change(parent.rect)
                for child in parent.children:
                    merged.extend(child.points_list)
                parent._children = []
                parent.points_list = merged
            else:
                break
        return True

    def _descend(self, p: Point) -> _MutNode:
        node = self._root
        while not node.is_leaf:
            node = self._child_for(node, p)
        return node

    @staticmethod
    def _child_for(node: _MutNode, p: Point) -> _MutNode:
        cx = (node.rect.x_min + node.rect.x_max) / 2.0
        cy = (node.rect.y_min + node.rect.y_max) / 2.0
        return node.children[(0 if p.x < cx else 1) + (0 if p.y < cy else 2)]

    def _split(self, leaf: _MutNode) -> None:
        children = [_MutNode(q, leaf.depth + 1) for q in leaf.rect.quadrants()]
        cx = (leaf.rect.x_min + leaf.rect.x_max) / 2.0
        cy = (leaf.rect.y_min + leaf.rect.y_max) / 2.0
        for x, y in leaf.points_list:
            idx = (0 if x < cx else 1) + (0 if y < cy else 2)
            children[idx].points_list.append((x, y))
        leaf.points_list = []
        leaf._children = children
        # Recurse if a quadrant is still overfull (duplicate pile-ups).
        for child in children:
            if len(child.points_list) > self._capacity and child.depth < self._max_depth:
                self._split(child)

    def _note_change(self, region: Rect) -> None:
        self._blocks_cache = None
        self._data_generation += 1
        self._dirty_log[region.as_tuple()] = self._data_generation
        self._mutations_since_clear += 1

    # ------------------------------------------------------------------
    # Update tracking
    # ------------------------------------------------------------------
    @property
    def mutations_since_clear(self) -> int:
        """Number of tracked mutations since the last clear."""
        return self._mutations_since_clear

    @property
    def data_generation(self) -> int:
        """Monotone mutation counter — never reset by :meth:`clear_dirty`.

        Statistics consumers snapshot it at build time; a catalog whose
        build-time generation no longer matches the index's current one
        was built over dead data and must be rebuilt or flagged (see
        :class:`~repro.resilience.errors.StaleCatalogError`).
        """
        return self._data_generation

    @property
    def log_floor(self) -> int:
        """Generation below which dirty history has been pruned.

        ``dirty_region_items_since(g)`` can only answer for watermarks
        ``g >= log_floor``; a consumer holding an older watermark must
        treat its whole cache as dirty.
        """
        return self._log_floor

    def dirty_region_items_since(
        self, generation: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Regions mutated after ``generation``, with their generations.

        Args:
            generation: A consumer watermark (a past
                :attr:`data_generation` value), at least
                :attr:`log_floor`.

        Returns:
            ``(bounds, generations)`` — an ``(m, 4)`` float array of
            region bounds and the matching ``(m,)`` int64 array of each
            region's *latest* mutation generation, for every logged
            region whose latest mutation is newer than ``generation``.

        Raises:
            ValueError: If ``generation`` predates :attr:`log_floor`
                (the history needed to answer has been pruned).
        """
        generation = int(generation)
        if generation < self._log_floor:
            raise ValueError(
                f"dirty history before generation {self._log_floor} has "
                f"been pruned; cannot answer since {generation}"
            )
        items = [(b, g) for b, g in self._dirty_log.items() if g > generation]
        if not items:
            return np.empty((0, 4), dtype=float), np.empty(0, dtype=np.int64)
        bounds = np.array([b for b, __ in items], dtype=float)
        gens = np.array([g for __, g in items], dtype=np.int64)
        return bounds, gens

    def prune_logs(self, before_generation: int | None = None) -> None:
        """Discard dirty history up to ``before_generation``.

        Bounds the logs' memory under sustained churn once every
        consumer's watermark has advanced past ``before_generation``
        (defaults to the current generation, i.e. drop everything).
        Raises :attr:`log_floor`; consumers with older watermarks fall
        back to treating their whole cache as dirty.
        """
        cutoff = (
            self._data_generation
            if before_generation is None
            else min(int(before_generation), self._data_generation)
        )
        if cutoff <= self._log_floor:
            return
        self._dirty_log = {
            b: g for b, g in self._dirty_log.items() if g > cutoff
        }
        self._log_floor = cutoff

    def clear_dirty(self) -> None:
        """Forget tracked changes (after statistics refresh).

        Prunes the whole dirty history (advancing
        :attr:`log_floor` to the current generation) and resets
        :attr:`mutations_since_clear`.  :attr:`data_generation` is never
        reset, and generation-watermarked consumers stay *correct*
        across an external clear — their watermark drops below the new
        floor, which reads as "everything dirty", a conservative rebuild
        rather than the silent stale-cache of the old index-based
        watermarks.
        """
        self.prune_logs()
        self._mutations_since_clear = 0

    # ------------------------------------------------------------------
    # SpatialIndex interface
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> Rect:
        return self._bounds

    @property
    def root(self) -> _MutNode:
        # Sync the per-leaf Block views before handing the hierarchy to
        # traversals (they read node.block on leaves).
        __ = self.blocks
        return self._root

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def num_points(self) -> int:
        return self._n_points

    @property
    def blocks(self) -> Sequence[Block]:
        if self._blocks_cache is None:
            self._blocks_cache = []
            self._materialize(self._root)
        return self._blocks_cache

    def _materialize(self, node: _MutNode) -> None:
        if node.is_leaf:
            if node.points_list:
                block = Block(
                    block_id=len(self._blocks_cache),
                    rect=node.rect,
                    points=np.array(node.points_list, dtype=float).reshape(-1, 2),
                )
                self._blocks_cache.append(block)
                node._block = block
            else:
                node._block = None
            return
        node._block = None
        for child in node.children:
            self._materialize(child)

    def leaf_for(self, p: Point) -> _MutNode:
        """The leaf whose region contains ``p`` (space partitioning).

        Raises:
            ValueError: If ``p`` is outside the universe.
        """
        if not self._bounds.contains_point(p):
            raise ValueError(f"query point {p} is outside the index bounds")
        # Materialize so leaf.block is in sync for callers that read it.
        __ = self.blocks
        return self._descend(p)

    def leaves_under(self, region: tuple[float, float, float, float]) -> list[_MutNode]:
        """The leaves under the node whose region is ``region``, depth-first.

        Descends from the root to that node only and materializes no
        block, so the cost is the path plus the subtree.  The leaves
        come in :attr:`leaves` order: in a quadtree every node's leaves
        are one contiguous run of the depth-first leaf sequence.

        Raises:
            ValueError: If no node has exactly that region.
        """
        region = tuple(region)
        middle = Point((region[0] + region[2]) / 2.0, (region[1] + region[3]) / 2.0)
        node = self._root
        while node.rect.as_tuple() != region:
            if node.is_leaf or not node.rect.contains_point(middle):
                raise ValueError(f"no quadtree node has the region {region}")
            node = self._child_for(node, middle)
        out: list[_MutNode] = []
        stack = [node]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out

    @property
    def leaves(self) -> list[_MutNode]:
        """All current leaf nodes (including empty ones)."""
        __ = self.blocks  # sync leaf.block assignments
        out: list[_MutNode] = []

        def collect(node: _MutNode) -> None:
            if node.is_leaf:
                out.append(node)
                return
            for child in node.children:
                collect(child)

        collect(self._root)
        return out
