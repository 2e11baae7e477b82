"""Tests for catalog max-merge and sum-merge (plane sweep)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import IntervalCatalog, merge_max, merge_sum
from tests.reference_builds import evaluate_dense


@st.composite
def catalogs(draw, max_total=60):
    n = draw(st.integers(1, 6))
    widths = draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))
    costs = draw(
        st.lists(st.integers(0, 100), min_size=n, max_size=n)
    )
    entries = []
    k = 1
    for width, cost in zip(widths, costs):
        entries.append((k, k + width - 1, float(cost)))
        k += width
    return IntervalCatalog(entries)


class TestPaperExample:
    def test_figure8_walkthrough(self):
        """Figure 8: four temporary catalogs merge to [1,k1]->17,
        [k1,k2]->25 (17-5+13), [k2,k3]->29 (25-4+8), [k3,..]->32
        (29-6+9)."""
        k1, k2, k3, kmax = 10, 20, 30, 40
        block1 = IntervalCatalog([(1, kmax, 2)])
        block2 = IntervalCatalog([(1, k1, 5), (k1 + 1, kmax, 13)])
        block3 = IntervalCatalog([(1, k3, 6), (k3 + 1, kmax, 9)])
        block4 = IntervalCatalog([(1, k2, 4), (k2 + 1, kmax, 8)])
        merged = merge_sum([block1, block2, block3, block4])
        assert merged.lookup(1) == 17  # 2 + 5 + 6 + 4
        assert merged.lookup(k1) == 17
        assert merged.lookup(k1 + 1) == 25  # 17 - 5 + 13
        assert merged.lookup(k2 + 1) == 29  # 25 - 4 + 8
        assert merged.lookup(k3 + 1) == 32  # 29 - 6 + 9


class TestMergeSemantics:
    def test_merge_sum_two(self):
        a = IntervalCatalog([(1, 5, 1.0), (6, 10, 3.0)])
        b = IntervalCatalog([(1, 3, 10.0), (4, 10, 20.0)])
        merged = merge_sum([a, b])
        assert merged.lookup(1) == 11.0
        assert merged.lookup(4) == 21.0
        assert merged.lookup(6) == 23.0

    def test_merge_max_two(self):
        a = IntervalCatalog([(1, 5, 1.0), (6, 10, 3.0)])
        b = IntervalCatalog([(1, 3, 2.0), (4, 10, 2.0)])
        merged = merge_max([a, b])
        assert merged.lookup(1) == 2.0
        assert merged.lookup(4) == 2.0
        assert merged.lookup(6) == 3.0

    def test_domain_is_min_of_inputs(self):
        a = IntervalCatalog.constant(1.0, 100)
        b = IntervalCatalog.constant(2.0, 50)
        assert merge_sum([a, b]).max_k == 50
        assert merge_max([a, b]).max_k == 50

    def test_single_catalog_coalesces(self):
        a = IntervalCatalog([(1, 5, 1.0), (6, 10, 1.0)])
        assert merge_sum([a]).n_entries == 1

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            merge_sum([])
        with pytest.raises(ValueError):
            merge_max([])

    @given(st.lists(catalogs(), min_size=2, max_size=5))
    def test_sum_matches_dense_evaluation(self, cats):
        merged = merge_sum(cats)
        dense = [evaluate_dense(c)[: merged.max_k] for c in cats]
        want = np.sum(dense, axis=0)
        got = evaluate_dense(merged)
        assert np.allclose(got, want)

    @given(st.lists(catalogs(), min_size=2, max_size=5))
    def test_max_matches_dense_evaluation(self, cats):
        merged = merge_max(cats)
        dense = [evaluate_dense(c)[: merged.max_k] for c in cats]
        want = np.max(dense, axis=0)
        got = evaluate_dense(merged)
        assert np.allclose(got, want)

    @given(st.lists(catalogs(), min_size=2, max_size=4))
    def test_merged_is_coalesced(self, cats):
        merged = merge_sum(cats)
        costs = merged.costs
        assert all(costs[i] != costs[i + 1] for i in range(len(costs) - 1))
