"""Cost estimators for spatial k-NN operators — the paper's contribution.

k-NN-Select (Section 3):

* :class:`~repro.estimators.density.DensityBasedEstimator` — the
  state-of-the-art baseline (Tao et al., TKDE 2004) adapted to
  non-uniform data via per-block densities.
* :class:`~repro.estimators.staircase.StaircaseEstimator` — the paper's
  catalog-based technique, Center-Only and Center+Corners variants.

k-NN-Join (Section 4):

* :class:`~repro.estimators.block_sample.BlockSampleEstimator` — the
  sampling baseline (no preprocessing, slow estimation).
* :class:`~repro.estimators.catalog_merge.CatalogMergeEstimator` —
  merged per-pair catalogs (fast lookup, quadratic catalog count).
* :class:`~repro.estimators.virtual_grid.VirtualGridEstimator` — one
  grid catalog per inner relation (linear catalog count).

The three catalog estimators stay valid under inserts and deletes
through their ``refresh_incremental()`` method, which returns a
:class:`~repro.estimators.maintenance.MaintenanceReport`;
:class:`~repro.estimators.staircase.MaintainedStaircaseEstimator` is the
Staircase estimator that calls it before answering instead of raising.
"""

from repro.estimators.base import SelectCostEstimator, JoinCostEstimator
from repro.estimators.density import DensityBasedEstimator
from repro.estimators.uniform_model import UniformModelEstimator
from repro.estimators.maintenance import MaintenanceReport
from repro.estimators.staircase import (
    MaintainedStaircaseEstimator,
    StaircaseEstimator,
    build_select_catalog,
)
from repro.estimators.block_sample import BlockSampleEstimator, sample_block_indices
from repro.estimators.catalog_merge import CatalogMergeEstimator
from repro.estimators.virtual_grid import VirtualGridEstimator, BoundVirtualGridEstimator

__all__ = [
    "SelectCostEstimator",
    "JoinCostEstimator",
    "DensityBasedEstimator",
    "UniformModelEstimator",
    "StaircaseEstimator",
    "MaintainedStaircaseEstimator",
    "MaintenanceReport",
    "build_select_catalog",
    "BlockSampleEstimator",
    "sample_block_indices",
    "CatalogMergeEstimator",
    "VirtualGridEstimator",
    "BoundVirtualGridEstimator",
]
