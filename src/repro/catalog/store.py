"""A persistent store for named catalog collections.

Catalog preprocessing is the one expensive step of the paper's
techniques (Figures 13, 21, 23); a production optimizer computes the
catalogs offline and loads them at startup.  ``CatalogStore`` is that
persistence layer: an ordered mapping from string keys (e.g.
``"center/17"``) to :class:`~repro.catalog.intervals.IntervalCatalog`,
with a compact binary file format and a metadata dictionary for the
parameters the catalogs were built under (``max_k``, variant, index
fingerprint).

File layout (little-endian)::

    magic  b"RPCS"  | uint32 version | uint32 crc32 | uint32 n_meta | uint32 n_entries
    n_meta  x (uint32 key_len, key, uint32 value_len, value)   # UTF-8
    n_entries x (uint32 key_len, key, uint32 blob_len, blob)   # catalog codec

The CRC32 covers everything after the checksum field, so the metadata
(``max_k``, variant, fingerprints) and the keys are checked as well as
each embedded blob's own checksum.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Iterator, Mapping

from repro.catalog.intervals import IntervalCatalog
from repro.catalog.serialize import catalog_from_bytes, catalog_to_bytes
from repro.resilience.errors import CatalogCorruptError

_MAGIC = b"RPCS"
# Version 3: a CRC32 over the whole store after the checksum field; the
# embedded catalog blobs keep their own version byte and CRC32 (see
# repro.catalog.serialize).  Older stores, whose metadata and keys are
# unchecked, are rejected as unreadable rather than risking a silent
# misparse.
_VERSION = 3
_U32 = struct.Struct("<I")


class CatalogStore:
    """An ordered, persistable collection of named catalogs.

    Args:
        metadata: Free-form string pairs describing build parameters.
    """

    def __init__(self, metadata: Mapping[str, str] | None = None) -> None:
        self.metadata: dict[str, str] = dict(metadata or {})
        self._catalogs: dict[str, IntervalCatalog] = {}

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------
    def put(self, key: str, catalog: IntervalCatalog) -> None:
        """Insert or replace the catalog stored under ``key``."""
        if not key:
            raise ValueError("catalog keys must be non-empty")
        self._catalogs[key] = catalog

    def get(self, key: str) -> IntervalCatalog:
        """Return the catalog stored under ``key``.

        Raises:
            KeyError: If the key is absent.
        """
        return self._catalogs[key]

    def __contains__(self, key: str) -> bool:
        return key in self._catalogs

    def __len__(self) -> int:
        return len(self._catalogs)

    def keys(self) -> Iterator[str]:
        """Iterate the stored keys in insertion order."""
        return iter(self._catalogs)

    def storage_bytes(self) -> int:
        """Size of the serialized store."""
        return len(self.to_bytes())

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize the whole store."""
        parts = [_U32.pack(len(self.metadata)), _U32.pack(len(self._catalogs))]
        for key, value in self.metadata.items():
            parts.append(_pack_str(key))
            parts.append(_pack_str(value))
        for key, catalog in self._catalogs.items():
            parts.append(_pack_str(key))
            blob = catalog_to_bytes(catalog)
            parts.append(_U32.pack(len(blob)))
            parts.append(blob)
        body = b"".join(parts)
        return _MAGIC + _U32.pack(_VERSION) + _U32.pack(zlib.crc32(body)) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "CatalogStore":
        """Deserialize a store.

        Raises:
            CatalogCorruptError: On wrong magic/version, a checksum
                mismatch, truncated payloads, trailing bytes, or corrupt
                embedded catalogs (``CatalogCorruptError`` is also a
                ``ValueError``).
        """
        if data[:4] != _MAGIC:
            raise CatalogCorruptError("not a catalog store (bad magic)")
        version, offset = _read_u32(data, 4)
        if version != _VERSION:
            raise CatalogCorruptError(f"unsupported catalog store version {version}")
        checksum, offset = _read_u32(data, offset)
        actual = zlib.crc32(data[offset:])
        if actual != checksum:
            raise CatalogCorruptError(
                f"catalog store checksum mismatch: stored {checksum:#010x}, "
                f"computed {actual:#010x}"
            )
        n_meta, offset = _read_u32(data, offset)
        n_entries, offset = _read_u32(data, offset)
        store = cls()
        for __ in range(n_meta):
            key, offset = _read_str(data, offset)
            value, offset = _read_str(data, offset)
            store.metadata[key] = value
        for __ in range(n_entries):
            key, offset = _read_str(data, offset)
            blob_len, offset = _read_u32(data, offset)
            blob = data[offset : offset + blob_len]
            if len(blob) != blob_len:
                raise CatalogCorruptError("truncated catalog blob")
            offset += blob_len
            store.put(key, catalog_from_bytes(blob))
        if offset != len(data):
            raise CatalogCorruptError("trailing bytes after catalog store payload")
        return store

    # ------------------------------------------------------------------
    # File round trip
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the store to ``path`` (parents created as needed)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "CatalogStore":
        """Read a store from ``path``.

        Raises:
            FileNotFoundError: If the file does not exist.
            CatalogCorruptError: On malformed content.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(path)
        return cls.from_bytes(path.read_bytes())


def _pack_str(text: str) -> bytes:
    encoded = text.encode("utf-8")
    return _U32.pack(len(encoded)) + encoded


def _read_u32(data: bytes, offset: int) -> tuple[int, int]:
    if offset + 4 > len(data):
        raise CatalogCorruptError("truncated catalog store")
    (value,) = _U32.unpack_from(data, offset)
    return value, offset + 4


def _read_str(data: bytes, offset: int) -> tuple[str, int]:
    length, offset = _read_u32(data, offset)
    raw = data[offset : offset + length]
    if len(raw) != length:
        raise CatalogCorruptError("truncated catalog store string")
    try:
        return raw.decode("utf-8"), offset + length
    except UnicodeDecodeError as exc:
        raise CatalogCorruptError(f"corrupt catalog store string: {exc}") from exc
