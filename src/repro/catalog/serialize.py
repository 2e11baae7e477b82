"""Catalog serialization and storage accounting.

The paper's storage-overhead figures (14, 20, 22) measure the bytes
needed to persist the catalogs.  Because ranges are contiguous, an entry
only needs its upper bound and its cost; the binary codec packs each
entry as ``(uint32 k_end, float32 cost)`` — 8 bytes per staircase step.
A JSON codec is provided for human-readable interchange.

Binary layout (little-endian)::

    uint8 version | uint32 crc32 | uint32 n_entries | n_entries x (uint32 k_end, float32 cost)

The CRC32 covers everything after the checksum field (entry count plus
entries), so truncation, bit rot, and entry-count tampering are all
detected; damaged payloads raise
:class:`~repro.resilience.errors.CatalogCorruptError` rather than ever
deserializing into a plausible-but-wrong catalog.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.catalog.intervals import IntervalCatalog
from repro.resilience.errors import CatalogCorruptError

_ENTRY = struct.Struct("<If")  # little-endian uint32 k_end, float32 cost
_HEADER = struct.Struct("<BII")  # version byte, crc32, entry count

#: Current binary codec version (bumped when the layout changes).
CODEC_VERSION = 2

#: Bytes per serialized catalog entry.
BYTES_PER_ENTRY = _ENTRY.size

#: Bytes of fixed codec header (version + checksum + entry count).
HEADER_BYTES = _HEADER.size


def catalog_storage_bytes(catalog: IntervalCatalog) -> int:
    """Bytes needed to persist ``catalog`` in the binary codec."""
    return HEADER_BYTES + catalog.n_entries * BYTES_PER_ENTRY


def catalog_to_bytes(catalog: IntervalCatalog) -> bytes:
    """Serialize to the compact binary format (checksummed, versioned)."""
    body = [struct.pack("<I", catalog.n_entries)]
    for __, k_end, cost in catalog.entries():
        body.append(_ENTRY.pack(k_end, cost))
    payload = b"".join(body)
    checksum = zlib.crc32(payload) & 0xFFFFFFFF
    return struct.pack("<BI", CODEC_VERSION, checksum) + payload


def catalog_from_bytes(data: bytes) -> IntervalCatalog:
    """Deserialize the compact binary format.

    Raises:
        CatalogCorruptError: On truncated, tampered, or malformed input
            — unknown version, payload/entry-count mismatch, or a CRC32
            checksum failure.
    """
    if len(data) < HEADER_BYTES:
        raise CatalogCorruptError(
            f"truncated catalog header: {len(data)} bytes < {HEADER_BYTES}"
        )
    version, checksum, n_entries = _HEADER.unpack_from(data, 0)
    if version != CODEC_VERSION:
        raise CatalogCorruptError(
            f"unsupported catalog codec version {version} (expected {CODEC_VERSION})"
        )
    expected = HEADER_BYTES + n_entries * BYTES_PER_ENTRY
    if len(data) != expected:
        raise CatalogCorruptError(
            f"catalog payload size mismatch: {len(data)} != {expected} "
            f"for {n_entries} entries"
        )
    payload = data[struct.calcsize("<BI"):]
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != checksum:
        raise CatalogCorruptError(
            f"catalog checksum mismatch: stored {checksum:#010x}, "
            f"computed {actual:#010x}"
        )
    entries = []
    k_start = 1
    offset = HEADER_BYTES
    for __ in range(n_entries):
        k_end, cost = _ENTRY.unpack_from(data, offset)
        entries.append((k_start, k_end, cost))
        k_start = k_end + 1
        offset += BYTES_PER_ENTRY
    try:
        return IntervalCatalog(entries)
    except ValueError as exc:
        # The checksum passed but the entries are structurally invalid
        # (can only happen if corrupt bytes were re-checksummed).
        raise CatalogCorruptError(f"invalid catalog entries: {exc}") from exc


def catalog_to_json(catalog: IntervalCatalog) -> str:
    """Serialize to a human-readable JSON document."""
    return json.dumps(
        {"entries": [[ks, ke, cost] for ks, ke, cost in catalog.entries()]}
    )


def catalog_from_json(text: str) -> IntervalCatalog:
    """Deserialize the JSON document format.

    Raises:
        ValueError: On malformed JSON or entry structure.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid catalog JSON: {exc}") from exc
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ValueError("catalog JSON must be an object with an 'entries' key")
    try:
        return IntervalCatalog(tuple(entry) for entry in payload["entries"])
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed catalog entries: {exc}") from exc
