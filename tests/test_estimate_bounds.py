"""Estimate bounds over every select tier, on three substrates.

Every select-cost estimate is a count of blocks, so whatever tier
answers it lies in ``[0, n_blocks]``: Staircase (Center+Corners and
Center-Only, including the queries it routes to Density — ``k`` past
the catalogs, focal points outside the universe), Density,
Uniform-Model, and the fallback chain down to its guaranteed bound.
The hypothesis properties draw the substrate (quadtree, grid, R-tree),
focal points inside and far outside the data, ``k`` from 1 to past the
relation's size, and which chain tiers fail.

Staircase and Uniform-Model are also monotone non-decreasing in ``k``.
For Staircase that holds where its catalogs answer (``k <= max_k``,
focal point inside the universe); past them it is the Density estimate.
Density is not monotone in ``k`` — its expanding scan can stop at a
denser prefix for a larger ``k`` (``docs/algorithms.md``) — so only its
bounds are asserted.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_osm_like
from repro.estimators import DensityBasedEstimator, StaircaseEstimator, UniformModelEstimator
from repro.index import GridIndex, IndexSnapshot, Quadtree, RTree
from repro.resilience import (
    FallbackSelectEstimator,
    FaultInjectingSelectEstimator,
    FaultSchedule,
    FaultSpec,
)

N_POINTS = 2_000
MAX_K = 48
SUBSTRATES = ("quadtree", "grid", "rtree")
CHAIN_TIERS = ("staircase", "density", "uniform-model")


@lru_cache(maxsize=None)
def _world(substrate: str) -> dict:
    """One substrate's index, its universe and every select estimator."""
    points = generate_osm_like(N_POINTS, seed=17)
    aux = Quadtree(points, capacity=32)
    index = {
        "quadtree": aux,
        "grid": GridIndex(points, nx=12),
        "rtree": RTree(points, capacity=32),
    }[substrate]
    snapshot = IndexSnapshot.from_index(index)
    return {
        "n_blocks": index.num_blocks,
        "universe": aux.bounds,
        "estimators": {
            "staircase": StaircaseEstimator(index, aux, max_k=MAX_K),
            "staircase-center": StaircaseEstimator(index, aux, max_k=MAX_K, variant="center"),
            "density": DensityBasedEstimator(snapshot),
            "uniform-model": UniformModelEstimator(snapshot),
        },
    }


def _chain(world: dict, failing: frozenset) -> FallbackSelectEstimator:
    """The engine's select chain over ``world``, with ``failing`` tiers raising."""
    estimators = world["estimators"]
    chain = FallbackSelectEstimator(
        tiers=[(name, lambda name=name: estimators[name]) for name in CHAIN_TIERS],
        guaranteed_bound=float(world["n_blocks"]),
    )
    for name in failing:
        chain.wrap_tier(
            name,
            lambda est: FaultInjectingSelectEstimator(
                est, FaultSchedule(FaultSpec.raising(), every=1)
            ),
        )
    return chain


@st.composite
def _focal_points(draw, world, inside_only: bool = False):
    universe = world["universe"]
    span = max(universe.x_max - universe.x_min, universe.y_max - universe.y_min)
    pad = 0.0 if inside_only else span
    x = st.floats(universe.x_min - pad, universe.x_max + pad, allow_nan=False)
    y = st.floats(universe.y_min - pad, universe.y_max + pad, allow_nan=False)
    return draw(st.lists(st.tuples(x, y), min_size=1, max_size=6))


_ks = st.one_of(
    st.integers(1, MAX_K),
    st.integers(MAX_K + 1, 4 * MAX_K),
    st.sampled_from([N_POINTS - 1, N_POINTS, 10 * N_POINTS]),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), substrate=st.sampled_from(SUBSTRATES))
def test_every_tier_stays_inside_zero_and_n_blocks(data, substrate):
    world = _world(substrate)
    pts = np.array(data.draw(_focal_points(world)), dtype=float)
    ks = np.array(data.draw(st.lists(_ks, min_size=len(pts), max_size=len(pts))))
    failing = frozenset(data.draw(st.sets(st.sampled_from(CHAIN_TIERS))))
    n_blocks = world["n_blocks"]
    chain = _chain(world, failing)
    answers = dict(world["estimators"], chain=chain)
    for name, estimator in answers.items():
        costs = estimator.estimate_batch(pts, ks)
        assert np.all(costs >= 0.0) and np.all(costs <= n_blocks), (name, costs, n_blocks)
    if failing == frozenset(CHAIN_TIERS):
        assert set(chain.walk(pts, ks)[1].tiers) == {"guaranteed-bound"}


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_the_guaranteed_bound_answers_when_every_tier_fails(substrate):
    world = _world(substrate)
    chain = _chain(world, frozenset(CHAIN_TIERS))
    costs, outcome = chain.walk(np.array([[500.0, 500.0], [-1e6, 0.0]]), [1, 10 * N_POINTS])
    assert costs.tolist() == [world["n_blocks"]] * 2
    assert outcome.tiers == ["guaranteed-bound"] * 2


@settings(max_examples=60, deadline=None)
@given(data=st.data(), substrate=st.sampled_from(SUBSTRATES))
def test_staircase_and_uniform_model_are_monotone_in_k(data, substrate):
    world = _world(substrate)
    estimators = world["estimators"]
    inside = data.draw(_focal_points(world, inside_only=True))
    catalog_ks = sorted(data.draw(st.lists(st.integers(1, MAX_K), min_size=2, max_size=12)))
    any_ks = sorted(data.draw(st.lists(_ks, min_size=2, max_size=12)))
    for x, y in inside:
        for name, ks in (
            ("staircase", catalog_ks),
            ("staircase-center", catalog_ks),
            ("uniform-model", any_ks),
        ):
            costs = estimators[name].estimate_batch(np.full((len(ks), 2), (x, y)), ks)
            assert np.all(np.diff(costs) >= 0.0), (name, (x, y), ks, costs)
