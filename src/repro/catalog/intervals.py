"""The interval catalog data structure.

An :class:`IntervalCatalog` maps every ``k`` in ``[1, max_k]`` to a cost
through a short, sorted list of constant-cost ranges.  Lookups are a
single binary search (the paper's "logarithmic time w.r.t. the number of
intervals", Section 3.3); the arrays are stored columnar so a catalog's
in-memory and on-disk footprints are a few bytes per staircase step.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.geometry.kernels import interval_gather


class CatalogLookupError(KeyError):
    """Raised when a lookup falls outside the catalog's supported k range.

    Queries with ``k > max_k`` "are directed to the Count-Index"
    (Figure 5); callers catch this error and fall back accordingly.
    """


class IntervalCatalog:
    """A staircase of ``([k_start, k_end], cost)`` entries.

    Entries must be contiguous (each range starts where the previous one
    ended) and start at ``k = 1``.  Costs may be fractional: merged and
    scaled catalogs carry real-valued estimates even though raw per-
    block catalogs are integral.

    Args:
        entries: Iterable of ``(k_start, k_end, cost)`` tuples in
            ascending k order.

    Raises:
        ValueError: If ranges are empty, overlapping, non-contiguous, or
            do not start at 1, or a cost is negative, infinite or NaN
            (an estimate must stay inside its bounds).

    Catalogs are value objects: the backing arrays are frozen
    (``writeable=False``) at construction and in every derived clone, so
    transformations may share arrays without aliasing hazards and
    ``__hash__`` stays stable for the catalog's lifetime.
    """

    __slots__ = ("_k_end", "_cost")

    def __init__(self, entries: Iterable[tuple[int, int, float]]) -> None:
        entries = list(entries)
        if not entries:
            raise ValueError("a catalog needs at least one entry")
        expected_start = 1
        k_ends: list[int] = []
        costs: list[float] = []
        for k_start, k_end, cost in entries:
            if k_start != expected_start:
                raise ValueError(
                    f"catalog ranges must be contiguous from 1: expected "
                    f"k_start={expected_start}, got {k_start}"
                )
            if k_end < k_start:
                raise ValueError(f"empty catalog range [{k_start}, {k_end}]")
            cost = float(cost)
            if not 0.0 <= cost < math.inf:
                raise ValueError(f"catalog costs must be finite and >= 0, got {cost}")
            k_ends.append(int(k_end))
            costs.append(cost)
            expected_start = k_end + 1
        self._k_end = np.array(k_ends, dtype=np.int64)
        self._cost = np.array(costs, dtype=float)
        self._k_end.setflags(write=False)
        self._cost.setflags(write=False)

    @classmethod
    def _from_arrays(cls, k_end: np.ndarray, cost: np.ndarray) -> "IntervalCatalog":
        """Trusted constructor for pre-validated columnar data.

        Callers (the transformation methods below and the vectorized
        merges in :mod:`repro.catalog.merge`) guarantee the invariants —
        sorted positive ``k_end``, equal lengths — so this skips the
        per-entry validation loop.  Arrays are frozen before being
        adopted; already-frozen arrays may be shared between clones.
        """
        k_end = np.asarray(k_end, dtype=np.int64)
        cost = np.asarray(cost, dtype=float)
        if k_end.shape != cost.shape or k_end.ndim != 1 or k_end.shape[0] == 0:
            raise ValueError("catalog arrays must be equal-length, non-empty 1-D")
        k_end.setflags(write=False)
        cost.setflags(write=False)
        clone = cls.__new__(cls)
        clone._k_end = k_end
        clone._cost = cost
        return clone

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, k: int) -> float:
        """Return the cost for ``k`` via binary search.

        Raises:
            ValueError: If ``k < 1``.
            CatalogLookupError: If ``k`` exceeds :attr:`max_k`.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > self.max_k:
            raise CatalogLookupError(
                f"k={k} exceeds the catalog's supported maximum {self.max_k}"
            )
        idx = int(self._k_end.searchsorted(k))  # the method: no wrapper call
        return float(self._cost[idx])

    def lookup_many(self, ks: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lookup` over an array of k values.

        Exactly equivalent to looping :meth:`lookup` — including the
        edge cases: an empty ``ks`` returns an empty float array, and an
        invalid value raises the same error the scalar call would, at
        the first offending position (``ValueError`` for ``k < 1``,
        :class:`CatalogLookupError` for ``k > max_k``).

        Raises:
            ValueError: If any ``k < 1``.
            CatalogLookupError: If any ``k`` exceeds :attr:`max_k`.
        """
        ks = np.asarray(ks, dtype=np.int64).reshape(-1)
        if ks.size == 0:
            return np.empty(0, dtype=float)
        invalid = (ks < 1) | (ks > self.max_k)
        if invalid.any():
            k = int(ks[int(np.argmax(invalid))])
            if k < 1:
                raise ValueError(f"k must be >= 1, got {k}")
            raise CatalogLookupError(
                f"k={k} exceeds the catalog's supported maximum {self.max_k}"
            )
        # The range gather is the kernel's searchsorted (integer-exact).
        return interval_gather(self._k_end, self._cost, ks)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def max_k(self) -> int:
        """Largest k the catalog covers."""
        return int(self._k_end[-1])

    @property
    def n_entries(self) -> int:
        """Number of staircase steps."""
        return int(self._k_end.shape[0])

    @property
    def k_ends(self) -> np.ndarray:
        """``(n,)`` array of range upper bounds (frozen: writes raise)."""
        return self._k_end

    @property
    def costs(self) -> np.ndarray:
        """``(n,)`` array of per-range costs (frozen: writes raise)."""
        return self._cost

    def entries(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(k_start, k_end, cost)`` tuples in order."""
        k_start = 1
        for k_end, cost in zip(self._k_end, self._cost):
            yield (k_start, int(k_end), float(cost))
            k_start = int(k_end) + 1

    def __len__(self) -> int:
        return self.n_entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalCatalog):
            return NotImplemented
        return bool(
            np.array_equal(self._k_end, other._k_end)
            and np.array_equal(self._cost, other._cost)
        )

    def __hash__(self) -> int:  # catalogs are value objects but mutable-free
        return hash((self._k_end.tobytes(), self._cost.tobytes()))

    def __repr__(self) -> str:
        head = ", ".join(
            f"([{ks},{ke}]->{c:g})" for ks, ke, c in list(self.entries())[:3]
        )
        suffix = ", ..." if self.n_entries > 3 else ""
        return f"IntervalCatalog({head}{suffix}; max_k={self.max_k})"

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "IntervalCatalog":
        """Return a copy with every cost multiplied by ``factor``.

        Used by sampling-based join estimators to extrapolate from a
        block sample to the whole outer relation.
        """
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        # The frozen k_end array can be shared safely; costs are fresh.
        return IntervalCatalog._from_arrays(self._k_end, self._cost * factor)

    def truncated(self, max_k: int) -> "IntervalCatalog":
        """Return a copy limited to ``k <= max_k``.

        Always a distinct catalog object (possibly sharing the frozen
        backing arrays when no truncation is needed), so callers may
        treat the result as independently owned.

        Raises:
            ValueError: If ``max_k < 1``.
        """
        if max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        if max_k >= self.max_k:
            return IntervalCatalog._from_arrays(self._k_end, self._cost)
        cut = int(np.searchsorted(self._k_end, max_k, side="left"))
        return IntervalCatalog._from_arrays(
            np.concatenate([self._k_end[:cut], [max_k]]).astype(np.int64),
            self._cost[: cut + 1].copy(),
        )

    def coalesced(self) -> "IntervalCatalog":
        """Merge adjacent ranges with equal cost (redundant-entry removal)."""
        if self.n_entries <= 1:
            return self
        keep = np.ones(self.n_entries, dtype=bool)
        keep[:-1] = self._cost[:-1] != self._cost[1:]
        return IntervalCatalog._from_arrays(self._k_end[keep], self._cost[keep])

    @classmethod
    def constant(cls, cost: float, max_k: int) -> "IntervalCatalog":
        """Build a single-range catalog with one cost for all k."""
        return cls([(1, max_k, cost)])

    @classmethod
    def from_profile(
        cls, profile: Sequence[tuple[int, int, float]], max_k: int | None = None
    ) -> "IntervalCatalog":
        """Build from a staircase profile, optionally padding to ``max_k``.

        Profiles produced by the k-NN machinery can stop early when the
        index runs out of points; padding extends the final cost to
        ``max_k`` so lookups stay total, matching the paper's "repeat
        until all the blocks are scanned or a sufficiently large value
        of k is encountered".
        """
        if not profile:
            raise ValueError("cannot build a catalog from an empty profile")
        entries = [(int(a), int(b), float(c)) for a, b, c in profile]
        if max_k is not None and entries[-1][1] < max_k:
            k_start, k_end, cost = entries[-1]
            entries[-1] = (k_start, max_k, cost)
        return cls(entries)


class StackedCatalogs:
    """Many catalogs laid end to end as one sorted lookup column.

    Catalog ``i``'s entries become keys ``i * stride + k_end`` with
    ``stride`` one past the largest ``k_end`` anywhere, so the
    concatenation is ascending and ``(i, k)`` is answered by the same
    bisect-left as :meth:`IntervalCatalog.lookup` — on the composite
    key, for any mix of catalogs in one call.  The estimators use it to
    answer a whole query batch with one gather however many leaves the
    batch touches; the per-leaf :class:`IntervalCatalog` objects stay
    the unit of persistence and maintenance.

    Args:
        catalogs: The catalogs, in the order their index ``i`` counts.
    """

    __slots__ = ("_keys", "_costs", "_stride", "max_ks")

    def __init__(self, catalogs: Sequence[IntervalCatalog]) -> None:
        n = len(catalogs)
        per_catalog = [c._k_end for c in catalogs]
        sizes = np.fromiter(map(len, per_catalog), dtype=np.int64, count=n)
        k_ends = np.concatenate(per_catalog) if n else np.empty(0, dtype=np.int64)
        #: ``(n,)`` largest k each catalog covers.
        self.max_ks = k_ends[np.cumsum(sizes) - 1]
        self._stride = int(self.max_ks.max()) + 1 if n else 1
        self._keys = np.repeat(np.arange(n, dtype=np.int64) * self._stride, sizes) + k_ends
        self._costs = (
            np.concatenate([c._cost for c in catalogs]) if n else np.empty(0, dtype=float)
        )

    def lookup(self, which: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """``out[j] = catalogs[which[j]].lookup(ks[j])``, as one gather.

        Every pair is pre-validated by the caller: ``which`` in range
        and ``1 <= ks[j] <= max_ks[which[j]]`` (a k past its catalog
        would read the next catalog's first range).
        """
        return interval_gather(self._keys, self._costs, which * self._stride + ks)
