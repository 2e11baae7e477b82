"""Unit and property tests for the MINDIST/MAXDIST metrics."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.geometry import (
    Point,
    Rect,
    circle_inside_rect,
    circle_inside_union,
    euclidean,
    kernels,
    maxdist_point_rect,
    maxdist_rect_rect,
    mindist_point_rect,
    mindist_rect_rect,
)

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


@st.composite
def points(draw):
    return Point(draw(coord), draw(coord))


class TestEuclidean:
    def test_values(self):
        assert euclidean(0, 0, 3, 4) == 5.0
        assert euclidean(1, 1, 1, 1) == 0.0


class TestMindistPointRect:
    def test_inside_is_zero(self):
        assert mindist_point_rect(Point(1, 1), Rect(0, 0, 2, 2)) == 0.0

    def test_boundary_is_zero(self):
        assert mindist_point_rect(Point(0, 1), Rect(0, 0, 2, 2)) == 0.0

    def test_left_of_rect(self):
        assert mindist_point_rect(Point(-3, 1), Rect(0, 0, 2, 2)) == 3.0

    def test_diagonal_from_corner(self):
        assert mindist_point_rect(Point(-3, -4), Rect(0, 0, 2, 2)) == 5.0

    @given(points(), rects())
    def test_zero_iff_contained(self, p, r):
        d = mindist_point_rect(p, r)
        assert (d == 0.0) == r.contains_point(p)

    @given(points(), rects())
    def test_lower_bounds_distance_to_corners(self, p, r):
        d = mindist_point_rect(p, r)
        for corner in r.corners():
            assert d <= p.distance_to(corner) + 1e-9


class TestMaxdistPointRect:
    def test_from_center_of_square(self):
        # Farthest point of [0,2]^2 from its center is any corner.
        assert maxdist_point_rect(Point(1, 1), Rect(0, 0, 2, 2)) == pytest.approx(
            math.sqrt(2)
        )

    def test_degenerate_rect_is_point_distance(self):
        assert maxdist_point_rect(Point(0, 0), Rect(3, 4, 3, 4)) == 5.0

    @given(points(), rects())
    def test_is_max_over_corners(self, p, r):
        d = maxdist_point_rect(p, r)
        corner_max = max(p.distance_to(c) for c in r.corners())
        assert d == pytest.approx(corner_max, rel=1e-9, abs=1e-9)

    @given(points(), rects())
    def test_dominates_mindist(self, p, r):
        assert maxdist_point_rect(p, r) >= mindist_point_rect(p, r) - 1e-12


class TestRectRectMetrics:
    def test_mindist_overlapping_is_zero(self):
        assert mindist_rect_rect(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)) == 0.0

    def test_mindist_separated_horizontally(self):
        assert mindist_rect_rect(Rect(0, 0, 1, 1), Rect(3, 0, 4, 1)) == 2.0

    def test_mindist_diagonal(self):
        assert mindist_rect_rect(Rect(0, 0, 1, 1), Rect(4, 5, 6, 7)) == 5.0

    def test_maxdist_value(self):
        # Farthest pair: (0,0) and (4,3) -> 5.
        assert maxdist_rect_rect(Rect(0, 0, 1, 1), Rect(3, 2, 4, 3)) == 5.0

    def test_maxdist_nested(self):
        outer = Rect(0, 0, 10, 10)
        inner = Rect(4, 4, 5, 5)
        # Farthest pair: outer corner (0,0) or (10,10) vs opposite inner corner.
        assert maxdist_rect_rect(inner, outer) == pytest.approx(math.hypot(6, 6))

    @given(rects(), rects())
    def test_symmetry(self, a, b):
        assert mindist_rect_rect(a, b) == pytest.approx(mindist_rect_rect(b, a))
        assert maxdist_rect_rect(a, b) == pytest.approx(maxdist_rect_rect(b, a))

    @given(rects(), rects())
    def test_mindist_zero_iff_intersecting(self, a, b):
        assert (mindist_rect_rect(a, b) == 0.0) == a.intersects(b)

    @given(rects(), rects())
    def test_maxdist_is_max_corner_pair(self, a, b):
        expected = max(
            ca.distance_to(cb) for ca in a.corners() for cb in b.corners()
        )
        assert maxdist_rect_rect(a, b) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(rects(), rects())
    def test_ordering(self, a, b):
        assert mindist_rect_rect(a, b) <= maxdist_rect_rect(a, b) + 1e-9


# Lattice coordinates plus sub-unit offsets: draws hit shared edges,
# zero-area rects and anchors inside the rect far more often than
# uniform floats would, beside the generic irrational-distance cases.
lattice = st.one_of(
    st.integers(-4, 4).map(float),
    st.tuples(st.integers(-4, 4), st.floats(0.0, 1.0, exclude_max=True)).map(sum),
    coord,
)


@st.composite
def lattice_rects(draw):
    x1, x2 = sorted((draw(lattice), draw(lattice)))
    y1, y2 = sorted((draw(lattice), draw(lattice)))
    return Rect(x1, y1, x2, y2)


def _assert_one_float(anchor, rect_list, scalar_min, scalar_max):
    """Scalar, single-anchor kernel and batch kernel agree with ``==``."""
    bounds = np.array([r.as_tuple() for r in rect_list])
    stack = kernels.as_anchor(anchor)[None, :]
    for kernel, batch, scalar in (
        (kernels.mindist_rects, kernels.mindist_rects_batch, scalar_min),
        (kernels.maxdist_rects, kernels.maxdist_rects_batch, scalar_max),
    ):
        single, row = kernel(anchor, bounds), batch(stack, bounds)[0]
        for i, r in enumerate(rect_list):
            assert scalar(anchor, r) == single[i] == row[i]


class TestVectorizedVariants:
    """The kernels are the only array form; the scalar forms are the same float."""

    @given(points(), st.lists(rects(), min_size=1, max_size=8))
    def test_point_rects_match_scalar(self, p, rect_list):
        _assert_one_float(p, rect_list, mindist_point_rect, maxdist_point_rect)

    @given(rects(), st.lists(rects(), min_size=1, max_size=8))
    def test_rect_rects_match_scalar(self, a, rect_list):
        _assert_one_float(a, rect_list, mindist_rect_rect, maxdist_rect_rect)

    @given(
        st.one_of(st.builds(Point, lattice, lattice), lattice_rects()),
        st.lists(lattice_rects(), min_size=1, max_size=8),
    )
    # hypot(17, 27) and hypot(0.3, 0.5): libm and the ``math`` module's
    # correctly-rounded hypot differ by 1 ulp, as on ~0.6 % of inputs.
    @example(Point(0.0, 0.0), [Rect(17.0, 27.0, 20.0, 30.0), Rect(-3.0, -3.0, -0.3, -0.5)])
    @example(Rect(-2.0, -2.0, 0.0, 0.0), [Rect(17.0, 27.0, 20.0, 30.0), Rect(0.0, 0.0, 0.0, 0.0)])
    def test_scalar_single_and_batch_are_one_float(self, anchor, rect_list):
        # Exact equality, not approx: the executor's strict ``<`` stop
        # test, the ground truth and the catalogs each call one of these
        # three forms, and a 1-ulp split between them moves a block count.
        if isinstance(anchor, Point):
            _assert_one_float(anchor, rect_list, mindist_point_rect, maxdist_point_rect)
        else:
            _assert_one_float(anchor, rect_list, mindist_rect_rect, maxdist_rect_rect)

    def test_accepts_bounds_array(self):
        arr = np.array([[0.0, 0.0, 1.0, 1.0], [2.0, 0.0, 3.0, 1.0]])
        got = kernels.mindist_rects(Point(0.5, 0.5), arr)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(1.5)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            kernels.mindist_rects(Point(0, 0), np.zeros((3, 3)))


class TestCircleContainment:
    def test_inside(self):
        assert circle_inside_rect(Point(5, 5), 2, Rect(0, 0, 10, 10))

    def test_touching_boundary_counts_as_inside(self):
        assert circle_inside_rect(Point(5, 5), 5, Rect(0, 0, 10, 10))

    def test_crossing_boundary(self):
        assert not circle_inside_rect(Point(1, 5), 2, Rect(0, 0, 10, 10))

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            circle_inside_rect(Point(0, 0), -1, Rect(0, 0, 1, 1))

    def test_union_of_quadrants_contains_inner_circle(self):
        quads = list(Rect(0, 0, 10, 10).quadrants())
        assert circle_inside_union(Point(5, 5), 3, quads)

    def test_union_does_not_contain_escaping_circle(self):
        quads = list(Rect(0, 0, 10, 10).quadrants())
        assert not circle_inside_union(Point(9, 9), 3, quads)

    def test_union_empty_is_false(self):
        assert not circle_inside_union(Point(0, 0), 1, [])
