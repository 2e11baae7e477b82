"""Shared pieces of incremental catalog maintenance.

The paper builds its catalogs once, offline.  Here every catalog
estimator (:class:`~repro.estimators.staircase.StaircaseEstimator`,
:class:`~repro.estimators.catalog_merge.CatalogMergeEstimator`,
:class:`~repro.estimators.virtual_grid.VirtualGridEstimator`) keeps its
catalogs valid under updates with one method,
``refresh_incremental(*, full=False)``: drop the entries a mutation may
have changed, rebuild what is missing with the routine the constructor
uses, keep the rest.  Construction is that call on an empty table.

**The coverage-radius invariant.**  Every catalog entry is a pure
function of an *anchor* (a leaf's center and corners, an outer block, a
grid cell) and the data blocks within some radius of it:

* a select-cost staircase stops scanning once ``max_k`` points are
  retrievable, so it depends only on blocks with MINDIST up to the
  first *unscanned* block's MINDIST (the coverage radius of
  :func:`~repro.perf.profile_staircases`, proved on the scalar
  per-anchor scan kept in ``tests/reference_builds.py``);
* a locality staircase depends only on blocks with MINDIST up to the
  running-MAXDIST mark of its first count-reaching prefix
  (:func:`~repro.knn.locality.locality_coverage_radii`).

Blocks only ever change inside a leaf region the index noted dirty, so
an entry whose coverage disc misses every dirty region is **bit-for-bit
identical** to what a from-scratch build would produce.  The invariant
is transitive: surviving an update leaves both the entry and its radius
unchanged, so entries can skip arbitrarily many update rounds.

**The conservative-drop rule.**  Each estimator holds one private
generation watermark and asks the index for dirty regions *since the
watermark*; it never consumes the index's log.  When the index cannot
answer — it has no update-log API, or another consumer pruned the
history past the watermark — every entry is treated as stale.  Entries
are matched to the live partition by region bounds, so the entry of a
region that stopped being a leaf (split or merged) is evicted at the
next refresh; should a region of the same bounds reappear, its blocks
changed inside noted regions and the coverage test decides as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.geometry.kernels import mindist_rects_batch

#: Region bounds as the hashable catalog key (``Rect.as_tuple()``).
RegionKey = tuple[float, float, float, float]


@dataclass(frozen=True)
class MaintenanceReport:
    """Outcome of one maintenance pass over a catalog set.

    ``catalogs_*`` count the technique's maintenance unit: auxiliary
    leaves (Staircase), sampled-outer-block temporaries (Catalog-Merge),
    or grid cells (Virtual-Grid).
    """

    mode: str  #: ``"incremental"`` or ``"full"``.
    generation: int  #: Data generation the catalogs are now valid for.
    catalogs_total: int
    catalogs_rebuilt: int
    catalogs_reused: int

    @classmethod
    def of_pass(
        cls, *, full: bool, generation: int, total: int, rebuilt: int
    ) -> "MaintenanceReport":
        """The report of a pass that rebuilt ``rebuilt`` of ``total`` units."""
        mode = "full" if full else "incremental"
        return cls(mode, generation, total, rebuilt, total - rebuilt)

    @property
    def rebuild_ratio(self) -> float:
        """Fraction of catalog units that had to be rebuilt."""
        if self.catalogs_total == 0:
            return 0.0
        return self.catalogs_rebuilt / self.catalogs_total


def tracks_updates(index) -> bool:
    """Whether ``index`` keeps the generation-keyed dirty-region log.

    Locality coverage radii cost a second MINDIST/MAXDIST pass and only
    pay off against such an index, so the join estimators skip them
    over anything else (immutable indexes, snapshots).
    """
    return hasattr(index, "dirty_region_items_since") and hasattr(index, "log_floor")


def dirty_since(index, since: int, *, full: bool = False) -> np.ndarray | None:
    """``(m, 4)`` bounds of the regions noted dirty after generation ``since``.

    ``None`` when the caller asked for a full rebuild or the index
    cannot say what changed (no update log, or history pruned past
    ``since``): the conservative-drop rule then treats everything as
    stale.
    """
    if full or not tracks_updates(index) or since < index.log_floor:
        return None
    return index.dirty_region_items_since(since)[0]


def stale_entries(
    index, since: int, rects: np.ndarray, coverage: np.ndarray, *, full: bool = False
) -> np.ndarray:
    """Mask of entries a mutation after generation ``since`` may have changed.

    Args:
        index: The index whose blocks the entries were computed from.
        since: The generation the entries were last valid for.
        rects: ``(n, 4)`` bounds of each entry's anchor region.
        coverage: ``(n,)`` coverage radii (``inf`` = depends on everything).
        full: The caller asked for a full rebuild: everything is stale.

    Returns:
        ``(n,)`` bool mask; all ``True`` when the index cannot say what
        changed since ``since``.
    """
    n = rects.shape[0]
    dirty = dirty_since(index, since, full=full)
    if dirty is None:
        return np.ones(n, dtype=bool)
    if n == 0 or dirty.shape[0] == 0:
        return np.zeros(n, dtype=bool)
    return (mindist_rects_batch(rects, dirty) <= coverage[:, None]).any(axis=1)


def maximal_regions(rects: np.ndarray) -> np.ndarray:
    """The rows of a distinct ``(m, 4)`` bounds array inside no other row."""
    if rects.shape[0] < 2:
        return rects
    inside = (
        (rects[:, None, 0] >= rects[None, :, 0])
        & (rects[:, None, 1] >= rects[None, :, 1])
        & (rects[:, None, 2] <= rects[None, :, 2])
        & (rects[:, None, 3] <= rects[None, :, 3])
    )
    np.fill_diagonal(inside, False)
    return rects[~inside.any(axis=1)]


def spliced(old, runs: list[tuple[int, int]], pieces: list):
    """``old`` with each run ``[lo, hi)`` replaced by its piece.

    ``runs`` are ascending and disjoint; ``old`` and the pieces are all
    arrays (concatenated along the first axis) or all lists.
    """
    parts, prev = [], 0
    for (lo, hi), piece in zip(runs, pieces):
        parts += [old[prev:lo], piece]
        prev = hi
    parts.append(old[prev:])
    if isinstance(old, np.ndarray):
        return np.concatenate(parts)
    return list(chain.from_iterable(parts))


def region_keys(rects: np.ndarray) -> list[RegionKey]:
    """The rows of an ``(n, 4)`` bounds array as hashable keys."""
    return [tuple(row) for row in rects.tolist()]


def carry_over(
    old_keys: list[RegionKey], stale: np.ndarray, new_keys: list[RegionKey]
) -> np.ndarray:
    """For each new key, the position of its reusable old entry, or -1."""
    old = {
        key: i for i, (key, gone) in enumerate(zip(old_keys, stale.tolist())) if not gone
    }
    return np.array([old.get(key, -1) for key in new_keys], dtype=np.int64)


def patched(old, built, source: np.ndarray) -> list:
    """Entries in new-key order: ``old[source[i]]``, or the next built one."""
    fresh = iter(built)
    return [next(fresh) if s < 0 else old[s] for s in source.tolist()]
