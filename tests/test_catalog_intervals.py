"""Tests for the interval catalog data structure."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import CatalogLookupError, IntervalCatalog


@st.composite
def catalogs(draw):
    """Random valid catalogs: contiguous ranges with arbitrary costs."""
    n = draw(st.integers(1, 10))
    widths = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    costs = draw(
        st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    entries = []
    k = 1
    for width, cost in zip(widths, costs):
        entries.append((k, k + width - 1, cost))
        k += width
    return IntervalCatalog(entries)


class TestConstruction:
    def test_basic(self):
        cat = IntervalCatalog([(1, 10, 3.0), (11, 20, 7.0)])
        assert cat.n_entries == 2
        assert cat.max_k == 20

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntervalCatalog([])

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            IntervalCatalog([(1, 10, 3.0), (12, 20, 7.0)])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            IntervalCatalog([(1, 10, 3.0), (10, 20, 7.0)])

    def test_rejects_not_starting_at_one(self):
        with pytest.raises(ValueError):
            IntervalCatalog([(2, 10, 3.0)])

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            IntervalCatalog([(1, 0, 3.0)])

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_rejects_a_cost_outside_the_bounds(self, cost):
        # A NaN or infinite cost would make every lookup escape the
        # estimate's bounds; a negative block count is no cost.
        with pytest.raises(ValueError, match="costs"):
            IntervalCatalog([(1, 5, 1.0), (6, 10, cost)])

    def test_constant(self):
        cat = IntervalCatalog.constant(5.0, 100)
        assert cat.lookup(1) == cat.lookup(100) == 5.0

    def test_from_profile_pads_to_max_k(self):
        cat = IntervalCatalog.from_profile([(1, 10, 2.0)], max_k=50)
        assert cat.max_k == 50
        assert cat.lookup(50) == 2.0

    def test_from_profile_rejects_empty(self):
        with pytest.raises(ValueError):
            IntervalCatalog.from_profile([], max_k=10)


class TestLookup:
    def test_paper_figure4_example(self):
        # Figure 4(b) of the paper.
        cat = IntervalCatalog(
            [
                (1, 520, 3),
                (521, 675, 7),
                (676, 3496, 8),
                (3497, 4699, 12),
                (4700, 5837, 13),
                (5838, 10000, 14),
            ]
        )
        assert cat.lookup(1) == 3
        assert cat.lookup(520) == 3
        assert cat.lookup(521) == 7
        assert cat.lookup(3497) == 12
        assert cat.lookup(10000) == 14

    def test_rejects_k_zero(self):
        cat = IntervalCatalog.constant(1.0, 10)
        with pytest.raises(ValueError):
            cat.lookup(0)

    def test_beyond_max_k_raises_lookup_error(self):
        cat = IntervalCatalog.constant(1.0, 10)
        with pytest.raises(CatalogLookupError):
            cat.lookup(11)

    def test_lookup_error_is_key_error(self):
        # Callers may catch KeyError generically.
        cat = IntervalCatalog.constant(1.0, 10)
        with pytest.raises(KeyError):
            cat.lookup(11)

    def test_lookup_many(self):
        cat = IntervalCatalog([(1, 5, 1.0), (6, 10, 2.0)])
        got = cat.lookup_many([1, 5, 6, 10])
        assert np.array_equal(got, [1.0, 1.0, 2.0, 2.0])

    def test_lookup_many_out_of_range(self):
        cat = IntervalCatalog.constant(1.0, 10)
        with pytest.raises(CatalogLookupError):
            cat.lookup_many([5, 11])

    @given(catalogs())
    def test_lookup_consistent_with_entries(self, cat):
        for k_start, k_end, cost in cat.entries():
            assert cat.lookup(k_start) == cost
            assert cat.lookup(k_end) == cost

    @given(catalogs())
    def test_lookup_many_matches_scalar(self, cat):
        ks = np.arange(1, cat.max_k + 1)
        dense = cat.lookup_many(ks)
        for k in (1, cat.max_k, (1 + cat.max_k) // 2):
            assert dense[k - 1] == cat.lookup(k)


class TestLookupManyScalarEquivalence:
    """Property: ``lookup_many`` IS a vectorized ``lookup`` loop.

    Exact equivalence across random catalogs and random k arrays — same
    floats for valid inputs, and for invalid ones the same error type
    and message the scalar loop raises at its first offending position.
    """

    @given(catalogs(), st.data())
    def test_valid_ks_match_scalar_loop(self, cat, data):
        ks = data.draw(
            st.lists(st.integers(1, cat.max_k), min_size=0, max_size=50)
        )
        got = cat.lookup_many(np.asarray(ks, dtype=np.int64))
        assert got.dtype == np.dtype(float)
        assert np.array_equal(got, [cat.lookup(k) for k in ks])

    @given(catalogs())
    def test_empty_ks(self, cat):
        out = cat.lookup_many([])
        assert out.shape == (0,)
        assert out.dtype == np.dtype(float)

    @given(catalogs(), st.data())
    def test_first_offender_parity(self, cat, data):
        # Mixed valid / k < 1 / k > max_k values: whatever the scalar
        # loop does first — return everything or raise at position i —
        # the batch must do identically.
        ks = data.draw(
            st.lists(
                st.integers(-3, cat.max_k + 5), min_size=1, max_size=30
            )
        )
        scalar_error = None
        scalar_values = []
        try:
            for k in ks:
                scalar_values.append(cat.lookup(k))
        except (ValueError, CatalogLookupError) as exc:
            scalar_error = exc
        if scalar_error is None:
            assert np.array_equal(cat.lookup_many(ks), scalar_values)
        else:
            with pytest.raises(type(scalar_error)) as caught:
                cat.lookup_many(ks)
            assert str(caught.value) == str(scalar_error)
            assert type(caught.value) is type(scalar_error)


class TestTransformations:
    def test_scaled(self):
        cat = IntervalCatalog([(1, 5, 2.0), (6, 10, 4.0)]).scaled(2.5)
        assert cat.lookup(3) == 5.0
        assert cat.lookup(8) == 10.0

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            IntervalCatalog.constant(1.0, 5).scaled(-1.0)

    def test_truncated(self):
        cat = IntervalCatalog([(1, 5, 1.0), (6, 10, 2.0), (11, 20, 3.0)])
        cut = cat.truncated(8)
        assert cut.max_k == 8
        assert cut.lookup(8) == 2.0
        assert cut.n_entries == 2

    def test_truncated_returns_distinct_object_when_larger(self):
        # The docstring promises a copy callers may treat as their own;
        # returning self leaked identity (and with it, shared-ownership
        # bugs) even though no truncation happened.
        cat = IntervalCatalog.constant(1.0, 10)
        cut = cat.truncated(50)
        assert cut is not cat
        assert cut == cat

    def test_truncated_at_boundary(self):
        cat = IntervalCatalog([(1, 5, 1.0), (6, 10, 2.0)])
        cut = cat.truncated(5)
        assert cut.max_k == 5
        assert cut.n_entries == 1

    def test_coalesced(self):
        cat = IntervalCatalog([(1, 5, 1.0), (6, 10, 1.0), (11, 20, 3.0)])
        merged = cat.coalesced()
        assert merged.n_entries == 2
        assert merged.lookup(10) == 1.0
        assert merged.max_k == 20

    @given(catalogs())
    def test_coalesced_preserves_lookups(self, cat):
        merged = cat.coalesced()
        for k in (1, cat.max_k, (1 + cat.max_k) // 2):
            assert merged.lookup(k) == cat.lookup(k)


class TestValueSemantics:
    def test_equality(self):
        a = IntervalCatalog([(1, 5, 1.0)])
        b = IntervalCatalog([(1, 5, 1.0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert IntervalCatalog([(1, 5, 1.0)]) != IntervalCatalog([(1, 5, 2.0)])

    def test_len_and_repr(self):
        cat = IntervalCatalog([(1, 5, 1.0), (6, 10, 2.0)])
        assert len(cat) == 2
        assert "IntervalCatalog" in repr(cat)


class TestImmutability:
    """Catalogs are value objects: the backing arrays are frozen, so
    transformations may alias them without aliasing hazards."""

    def test_k_ends_writes_raise(self):
        cat = IntervalCatalog([(1, 5, 1.0), (6, 10, 2.0)])
        with pytest.raises(ValueError):
            cat.k_ends[0] = 99

    def test_costs_writes_raise(self):
        cat = IntervalCatalog([(1, 5, 1.0), (6, 10, 2.0)])
        with pytest.raises(ValueError):
            cat.costs[0] = 99.0

    def test_scaled_does_not_alias_mutably(self):
        # Regression: scaled() shares the frozen k_end array; a caller
        # must not be able to corrupt the parent through the clone.
        parent = IntervalCatalog([(1, 5, 1.0), (6, 10, 2.0)])
        clone = parent.scaled(3.0)
        with pytest.raises(ValueError):
            clone.k_ends[0] = 99
        with pytest.raises(ValueError):
            clone.costs[0] = -1.0
        assert parent.lookup(1) == 1.0
        assert clone.lookup(1) == 3.0

    def test_truncated_clone_is_frozen(self):
        parent = IntervalCatalog([(1, 5, 1.0), (6, 10, 2.0)])
        for clone in (parent.truncated(7), parent.truncated(50)):
            with pytest.raises(ValueError):
                clone.k_ends[0] = 99
            with pytest.raises(ValueError):
                clone.costs[0] = 99.0
        assert parent.lookup(10) == 2.0

    def test_coalesced_clone_is_frozen(self):
        parent = IntervalCatalog([(1, 5, 1.0), (6, 10, 1.0), (11, 20, 3.0)])
        clone = parent.coalesced()
        with pytest.raises(ValueError):
            clone.costs[0] = 99.0
        assert parent.n_entries == 3

    def test_hash_stable_across_transformations(self):
        cat = IntervalCatalog([(1, 5, 1.0), (6, 10, 2.0)])
        before = hash(cat)
        cat.scaled(2.0)
        cat.truncated(7)
        cat.coalesced()
        assert hash(cat) == before

    def test_from_profile_arrays_frozen(self):
        cat = IntervalCatalog.from_profile([(1, 4, 2.0)], max_k=10)
        assert not cat.k_ends.flags.writeable
        assert not cat.costs.flags.writeable
