"""Content fingerprints: the group digest that keys every cache entry,
and the stored-CRC digest that identifies a store.

Two derivations, one contract — *equal fingerprint means equal bytes*:

- **In-memory** (:func:`group_fingerprint`, the identity half of every
  cache key): a BLAKE2b digest over the
  arrays a :class:`~repro.temporal.series.GroupView` actually hands the
  engine (edge array, bitmaps, weights, vertex liveness, snapshot
  times). Exact by construction — any content change, including a
  single flipped weight bit, changes the digest — and cheap (one
  streaming pass over arrays already resident). Memoised per view,
  which the series' own GroupView memoisation makes safe.
- **On-disk** (:func:`edge_file_fingerprint` /
  :meth:`~repro.storage.store.TemporalGraphStore` fingerprints): a
  digest over the edge file's *stored* per-section CRC32s (header CRC,
  vertex-index CRC, every segment's checkpoint + activity trailer).
  This is the paper-motivated "nearly free" store identity: the CRCs
  were paid for at write time, so fingerprinting a store reads ~12
  bytes per vertex segment instead of the segment itself. fsck, the CLI
  and integrity probes read it; a corrupted CRC section changes it.

The cache key is the group's content and nothing else: a series loaded
from a store and its in-memory twin hand the engine the same arrays, so
they share every cache entry. Damage to a store never reaches the
cache: the readers' CRC validation refuses a corrupted data or CRC
section of every group a load reads (typed
:class:`~repro.errors.IntegrityError`), and a group it does not read
contributes nothing to the series.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.storage.edge_file import EdgeFile
    from repro.temporal.series import GroupView

__all__ = [
    "combine_digests",
    "digest_bytes",
    "edge_file_fingerprint",
    "group_fingerprint",
]

#: Digest size (bytes) of every fingerprint; 128-bit BLAKE2b.
DIGEST_SIZE = 16


def digest_bytes(*chunks: bytes) -> str:
    """Hex BLAKE2b-128 over the concatenation of ``chunks``."""
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def combine_digests(parts: Iterable[str]) -> str:
    """One fingerprint from many (order-sensitive)."""
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    for part in parts:
        h.update(part.encode("ascii"))
        h.update(b"|")
    return h.hexdigest()


def _array_chunk(arr: Optional[np.ndarray]) -> bytes:
    """A self-delimiting byte encoding of one array (None-safe)."""
    if arr is None:
        return b"~none~"
    a = np.ascontiguousarray(arr)
    head = f"{a.dtype.str}:{a.shape}:".encode("ascii")
    return head + a.tobytes()


def group_fingerprint(group: "GroupView") -> str:
    """The content fingerprint of one LABS group.

    Digests exactly the inputs the engine consumes for this group:
    the group-local edge array (``out_src``/``out_dst``), re-based
    snapshot bitmaps, per-snapshot weights, vertex liveness, snapshot
    times, and the group's position ``[start, stop)`` in the series.
    Memoised on the view (views are immutable and memoised per series).
    """
    cached = getattr(group, "_content_fingerprint", None)
    if cached is not None:
        return str(cached)
    meta = (
        f"v{group.num_vertices}:g[{group.start},{group.stop}):"
        f"t{tuple(group.times)}:"
    ).encode("ascii")
    fp = digest_bytes(
        meta,
        _array_chunk(group.out_src),
        _array_chunk(group.out_dst),
        _array_chunk(group.out_bitmap),
        _array_chunk(group.out_weight),
        _array_chunk(group.vertex_exists),
    )
    group._content_fingerprint = fp  # type: ignore[attr-defined]
    return fp


def edge_file_fingerprint(edge_file: "EdgeFile") -> str:
    """The stored-CRC fingerprint of one edge file (see module docs).

    The digest of the header and index with their CRCs, then every
    vertex segment's two trailer CRC32s in vertex order — located through
    the vertex index and gathered from a read-only mapping in one fancy
    index, without touching segment data (a trailer cut short by EOF
    contributes the bytes that exist).
    """
    from repro.storage import format as fmt

    path = edge_file.path
    index = edge_file._index_columns
    live = index["offset"] != 0
    data = np.memmap(path, dtype=np.uint8, mode="r")
    size = data.shape[0]
    # Each term is clamped to EOF before the sum, so no index field wraps.
    data_len = index["n_cp"][live] * np.int64(fmt.CHECKPOINT_ENTRY_SIZE)
    data_len += index["n_act"][live] * np.int64(fmt.ACTIVITY_SIZE)
    start = np.minimum(index["offset"][live], size).astype(np.int64)
    start += np.minimum(data_len, size)
    at = (start[:, None] + np.arange(fmt.TRAILER_SIZE)).ravel()
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    # Header + its CRC, and the packed index + its CRC.
    h.update(data[: edge_file.header.segments_offset])
    h.update(data[at[at < size]])
    return h.hexdigest()
