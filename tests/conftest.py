"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate_osm_like, generate_uniform
from repro.index.snapshot import IndexSnapshot
from repro.index.quadtree import Quadtree


@pytest.fixture(scope="session")
def osm_points() -> np.ndarray:
    """A small deterministic OSM-like dataset shared across tests."""
    return generate_osm_like(5_000, seed=42)


@pytest.fixture(scope="session")
def uniform_points() -> np.ndarray:
    """A small deterministic uniform dataset shared across tests."""
    return generate_uniform(3_000, seed=42)


@pytest.fixture(scope="session")
def osm_quadtree(osm_points) -> Quadtree:
    """A quadtree over the shared OSM-like dataset."""
    return Quadtree(osm_points, capacity=64)


@pytest.fixture(scope="session")
def osm_count_index(osm_quadtree) -> IndexSnapshot:
    """The Count-Index (block summary) of the shared quadtree."""
    return IndexSnapshot.from_index(osm_quadtree)


@pytest.fixture(scope="session")
def inner_quadtree() -> Quadtree:
    """A second relation (different seed) for join tests."""
    return Quadtree(generate_osm_like(5_000, seed=43), capacity=64)


@pytest.fixture(scope="session")
def inner_count_index(inner_quadtree) -> IndexSnapshot:
    """The Count-Index (block summary) of the second relation."""
    return IndexSnapshot.from_index(inner_quadtree)
