"""Input guards: validate queries and data at the engine boundary.

Guards follow one policy throughout:

* inputs that can never produce a meaningful answer (non-finite
  coordinates, ``k < 1``, inverted regions) **always raise**
  :class:`~repro.resilience.errors.InvalidQueryError`;
* inputs that are suspicious but well-defined (``k`` larger than the
  relation, focal points far outside the indexed space, zero-area query
  regions) are **noted** — the notes ride on the
  :class:`~repro.engine.planner.PlanExplanation` as degraded-mode
  provenance — unless ``strict=True``, in which case they raise too.

The split keeps the default engine permissive (a k-NN query outside the
indexed space is legal and answerable) while giving operators a switch
that turns every anomaly into a hard error.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.geometry import Point, Rect
from repro.resilience.errors import InvalidQueryError

#: A focal point farther than this many bounds-diagonals from the
#: indexed space is flagged as suspicious (estimates degrade to global
#: density there, and a typo'd coordinate is the most likely cause).
FAR_QUERY_DIAGONALS = 4.0

#: The largest k a query may ask for: batches carry k as int64, and a
#: larger value would wrap instead of planning.
K_CEILING = 2**63 - 1


def require_finite_coordinates(x: float, y: float, what: str = "query point") -> None:
    """Reject non-finite coordinates with a typed error.

    Raises:
        InvalidQueryError: If either coordinate is NaN or infinite.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidQueryError(
            f"{what} coordinates must be finite, got ({x}, {y})"
        )


def require_valid_k(k: int, what: str = "k") -> None:
    """Reject non-positive, non-integral or int64-overflowing k.

    Raises:
        InvalidQueryError: If ``k`` is not an integer in
            ``[1, K_CEILING]``.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise InvalidQueryError(f"{what} must be an integer, got {k!r}")
    if k < 1:
        raise InvalidQueryError(f"{what} must be >= 1, got {k}")
    if k > K_CEILING:
        raise InvalidQueryError(f"{what} must be <= 2**63 - 1, got {k}")


def require_valid_region(region: Rect, strict: bool = False) -> list[str]:
    """Validate a query region; returns notes for suspicious shapes.

    ``Rect`` already rejects inverted and non-finite bounds at
    construction, so the remaining check is degeneracy: a zero-area
    region is well-defined (it selects points on a segment) but almost
    always a bug in the caller.

    Raises:
        InvalidQueryError: On a zero-area region when ``strict``.
    """
    notes: list[str] = []
    if region.area == 0.0:
        message = f"query region {region} has zero area"
        if strict:
            raise InvalidQueryError(message)
        notes.append(message)
    return notes


def check_query_point(query: Point, bounds: Rect | None, strict: bool = False) -> list[str]:
    """Flag focal points far outside the indexed space.

    Raises:
        InvalidQueryError: When ``strict`` and the point is far outside.
    """
    require_finite_coordinates(query.x, query.y)
    if bounds is None:
        return []
    diagonal = bounds.diagonal
    if diagonal == 0.0:
        return []
    dx = max(bounds.x_min - query.x, 0.0, query.x - bounds.x_max)
    dy = max(bounds.y_min - query.y, 0.0, query.y - bounds.y_max)
    distance = math.hypot(dx, dy)
    if distance > FAR_QUERY_DIAGONALS * diagonal:
        message = (
            f"focal point ({query.x:g}, {query.y:g}) lies "
            f"{distance / diagonal:.1f} bounds-diagonals outside the "
            "indexed space; estimates degrade to global density"
        )
        if strict:
            raise InvalidQueryError(message)
        return [message]
    return []


def check_k_against_table(k: int, n_rows: int, strict: bool = False) -> list[str]:
    """Flag ``k`` exceeding the relation size.

    The query is well-defined — it returns every row — but the caller
    almost certainly meant something else, and catalogs cannot cover it.

    Raises:
        InvalidQueryError: If ``k < 1``, or when ``strict`` and
            ``k > n_rows`` for a non-empty relation.
    """
    require_valid_k(k)
    if 0 < n_rows < k:
        message = f"k={k} exceeds the relation's {n_rows} rows; the result holds every row"
        if strict:
            raise InvalidQueryError(message)
        return [message]
    return []


def guard_select_query(query, n_rows: int, bounds: Rect | None, strict: bool = False) -> list[str]:
    """Validate a :class:`~repro.engine.queries.KnnSelectQuery`.

    Args:
        query: The query specification.
        n_rows: Row count of the queried relation.
        bounds: Indexed bounds of the relation (``None`` when empty).
        strict: Escalate suspicious inputs to errors.

    Returns:
        Degraded-mode notes (empty when the query is unremarkable).

    Raises:
        InvalidQueryError: On inputs that cannot be answered (always)
            or suspicious ones (only when ``strict``).
    """
    return _select_notes(query.query, query.k, query.region, n_rows, bounds, strict)


def _select_notes(
    point: Point, k, region: Rect | None, n_rows: int, bounds: Rect | None, strict: bool
) -> list[str]:
    """The scalar select rule: the focal point, then k, then the region."""
    notes = check_query_point(point, bounds, strict)
    notes += check_k_against_table(k, n_rows, strict)
    if region is not None:
        notes += require_valid_region(region, strict)
    if n_rows == 0:
        notes.append("relation is empty; the result is empty for every k")
    return notes


def guard_select_batch(
    points,
    ks,
    n_rows: int,
    bounds: Rect | None,
    strict: bool = False,
    regions=None,
) -> dict[int, list[str]]:
    """:func:`guard_select_query` over one relation's selects at once.

    One far-outside-bounds ``hypot`` over the batch (which a non-finite
    coordinate fails too; one ``isfinite`` when the bounds have no
    extent), and k validity and ``k > n_rows`` decided for the whole
    group, flag the rows with anything to say; only those run the
    scalar rule, so notes, error types and messages are exactly a
    scalar loop's.  The first offender in batch order raises, and at
    one query the coordinate check comes before the k check.

    Args:
        points: ``(m, 2)`` focal coordinates.
        ks: The ``m`` k values as the queries carry them (their type
            is part of the check).
        n_rows: Row count of the queried relation.
        bounds: Indexed bounds of the relation (``None`` when empty).
        strict: Escalate suspicious inputs to errors.
        regions: Per-query region or ``None``; omit when no query has
            one.

    Returns:
        ``{row: notes}`` for the rows that have notes.

    Raises:
        InvalidQueryError: As a loop of :func:`guard_select_query`
            would, at its first offender.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if n_rows == 0:
        # Every row carries the empty-relation note.
        ok = np.zeros(points.shape[0], dtype=bool)
    else:
        ok = _unremarkable_points(points, bounds)
        k_flags = _k_flags(ks, min(n_rows, K_CEILING))
        if k_flags is not None:
            ok &= ~k_flags
        if regions is not None and any(r is not None for r in regions):
            ok &= [r is None or r.area != 0.0 for r in regions]
    notes: dict[int, list[str]] = {}
    if np.count_nonzero(ok) == ok.shape[0]:
        return notes
    for j in np.flatnonzero(~ok).tolist():
        x, y = points[j].tolist()
        require_finite_coordinates(x, y)
        region = None if regions is None else regions[j]
        row = _select_notes(Point(x, y), ks[j], region, n_rows, bounds, strict)
        if row:
            notes[j] = row
    return notes


def _unremarkable_points(points: np.ndarray, bounds: Rect | None) -> np.ndarray:
    """Rows :func:`check_query_point` certainly passes without a note.

    Finite and, when the bounds have extent, within the far-outside
    limit — one ``hypot`` over the batch.  A NaN or infinite coordinate
    makes the distance NaN or infinite, which fails the ``<=``.
    """
    diagonal = 0.0 if bounds is None else bounds.diagonal
    if diagonal == 0.0:
        return np.isfinite(points).all(axis=1)
    # Per axis max(lo - v, 0, v - hi), as the scalar rule spells it.
    gap = np.subtract(points, (bounds.x_max, bounds.y_max))
    np.maximum(gap, np.subtract((bounds.x_min, bounds.y_min), points), out=gap)
    np.maximum(gap, 0.0, out=gap)
    # np.hypot may sit an ulp from the scalar rule's math.hypot: draw
    # the line a hair early and let the scalar rule decide the rest.
    limit = FAR_QUERY_DIAGONALS * diagonal * (1.0 - 1e-9)
    return np.hypot.reduce(gap, axis=1) <= limit


def _k_flags(ks, limit: int) -> np.ndarray | None:
    """Rows whose k is invalid or above ``limit`` (``None``: no row)."""
    kinds = set(map(type, ks))
    if bool not in kinds and all(issubclass(t, (int, np.integer)) for t in kinds):
        if not kinds or 1 <= min(ks) and max(ks) <= limit:
            return None
        return np.array([not 1 <= k <= limit for k in ks], dtype=bool)
    return np.array(
        [
            isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= limit
            for k in ks
        ],
        dtype=bool,
    )


def guard_range_query(query, n_rows: int, strict: bool = False) -> list[str]:
    """Validate a :class:`~repro.engine.queries.RangeQuery`."""
    notes = require_valid_region(query.region, strict)
    if n_rows == 0:
        notes.append("relation is empty; the result is empty for every region")
    return notes


def guard_join_query(query, n_outer: int, n_inner: int, strict: bool = False) -> list[str]:
    """Validate a :class:`~repro.engine.queries.KnnJoinQuery`."""
    notes = check_k_against_table(query.k, n_inner, strict)
    if n_outer == 0 or n_inner == 0:
        notes.append("a join side is empty; the join result is trivial")
    return notes


def guard_estimate_inputs(query: Point, k: int) -> None:
    """The per-call boundary check every select estimator applies.

    Cheap enough (two ``isfinite`` calls and an integer compare) to run
    on the estimation hot path.

    Raises:
        InvalidQueryError: On a non-finite focal point or invalid ``k``.
    """
    require_finite_coordinates(query.x, query.y)
    require_valid_k(k)


def require_valid_ks(ks: np.ndarray, what: str = "k") -> None:
    """Vectorized :func:`require_valid_k` over an integer array.

    Raises on the *first* offending element (in array order) with the
    exact message a scalar loop would produce there.

    Raises:
        InvalidQueryError: If any ``k < 1``.
    """
    ks = np.asarray(ks)
    bad = ks < 1
    if bad.any():
        require_valid_k(int(ks[int(np.argmax(bad))]), what)


def guard_estimate_batch(points: np.ndarray, ks: np.ndarray) -> None:
    """Batch counterpart of :func:`guard_estimate_inputs`.

    Mirrors a loop of scalar guards exactly: the first query (in batch
    order) with a non-finite coordinate *or* an invalid k raises, and at
    that query the coordinate check comes before the k check — so the
    error type and message match the scalar loop bit for bit.

    Args:
        points: ``(m, 2)`` float array of focal coordinates.
        ks: ``(m,)`` integer array of per-query k values.

    Raises:
        InvalidQueryError: On any non-finite focal point or ``k < 1``.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    ks = np.asarray(ks)
    if np.count_nonzero(np.isfinite(points)) == points.size and not np.count_nonzero(ks < 1):
        return
    bad = ~np.isfinite(points).all(axis=1) | (ks < 1)
    if bad.any():
        i = int(np.argmax(bad))
        require_finite_coordinates(float(points[i, 0]), float(points[i, 1]))
        require_valid_k(int(ks[i]))
