"""Interval catalogs: the paper's central data structure.

A catalog is "a set of tuples of the form ``([k_start, k_end], size)``"
(Section 3.1): contiguous k-ranges over which a cost is constant,
exploiting the staircase stability of k-NN costs.  Catalogs support
logarithmic lookup, pointwise max-merge (Staircase corner catalogs),
plane-sweep sum-merge (Catalog-Merge, Section 4.2.1), and compact
serialization whose byte sizes back the paper's storage-overhead
figures (14, 20, 22).
"""

from repro.catalog.intervals import CatalogLookupError, IntervalCatalog, StackedCatalogs
from repro.catalog.merge import merge_max, merge_sum
from repro.catalog.store import CatalogStore
from repro.catalog.serialize import (
    catalog_storage_bytes,
    catalog_to_bytes,
    catalog_from_bytes,
    catalog_to_json,
    catalog_from_json,
)

__all__ = [
    "CatalogStore",
    "IntervalCatalog",
    "StackedCatalogs",
    "CatalogLookupError",
    "merge_max",
    "merge_sum",
    "catalog_storage_bytes",
    "catalog_to_bytes",
    "catalog_from_bytes",
    "catalog_to_json",
    "catalog_from_json",
]
