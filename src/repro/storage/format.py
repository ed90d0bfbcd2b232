"""Binary record encodings for the on-disk format.

All multi-byte integers are little-endian. A **version 2** edge file is:

``[header][header crc][vertex index][index crc][segment 0]...``

- header: magic ``CHRN``, version u16, num_vertices u32, t1 i64, t2 i64
  (signed: ``t1`` is the instant *before* the group's first activity time,
  so a group starting at time 0 stores ``t1 = -1``), followed by a CRC32
  (u32) over the preceding header bytes;
- vertex index: ``num_vertices`` pairs of (segment offset u64, checkpoint
  entry count u32, activity count u32); offset 0 means "no segment";
  followed by a CRC32 over the packed index;
- segment for vertex v: checkpoint sector (``(dst u32, weight f64)`` per
  edge live at t1) followed by activity records, followed by a trailer of
  two CRC32s — one over the checkpoint sector, one over the activities.

An activity record is ``(kind u8, dst u32, time u64, tu u64, weight f64)``
— ``tu`` is the time of the next activity on the same edge within the
group, or ``TU_INFINITY`` when it is the last one (Section 4.2).

**Version 1** files (no checksums anywhere, same record encodings) remain
fully readable; every reader takes the header's version and adjusts
offsets and verification accordingly. Writers emit version 2 unless asked
for 1 (kept for compatibility tests).

Integrity contract: truncation and bit flips surface as typed
:class:`~repro.errors.StorageError` /
:class:`~repro.errors.IntegrityError` exceptions *naming the corrupt
section* — never as silently wrong data and never as a bare
``struct.error``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import IntegrityError, StorageError

MAGIC = b"CHRN"
#: Current write version: per-section CRC32 checksums.
VERSION = 2
#: Version 1: the historical checksum-free encoding (still readable).
VERSION_V1 = 1
SUPPORTED_VERSIONS = (VERSION_V1, VERSION)
TU_INFINITY = 0xFFFFFFFFFFFFFFFF

# t1/t2 are *signed* 64-bit: group planning derives t1 as "one instant
# before the first covered time", which is -1 for a group starting at
# time 0. (Same field sizes and offsets as the historical unsigned
# encoding; files containing only non-negative times are byte-identical.)
_HEADER = struct.Struct("<4sHIqq")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_INDEX_ENTRY = struct.Struct("<QII")
_CHECKPOINT_ENTRY = struct.Struct("<Id")
_ACTIVITY = struct.Struct("<BIQQd")
_CRC = struct.Struct("<I")

#: Packed NumPy views of the same records, for whole-section decodes
#: (one ``np.frombuffer`` instead of one ``unpack_from`` per record).
INDEX_DTYPE = np.dtype([("offset", "<u8"), ("n_cp", "<u4"), ("n_act", "<u4")])
CHECKPOINT_DTYPE = np.dtype([("dst", "<u4"), ("weight", "<f8")])
ACTIVITY_DTYPE = np.dtype(
    [
        ("kind", "u1"),
        ("dst", "<u4"),
        ("time", "<u8"),
        ("tu", "<u8"),
        ("weight", "<f8"),
    ]
)

#: Activity kind codes in edge files (edge activities only).
KIND_ADD = 0
KIND_DEL = 1
KIND_MOD = 2


def checksum(data: bytes) -> int:
    """The CRC32 the v2 format stores for each section."""
    return zlib.crc32(data) & 0xFFFFFFFF


def header_size(version: int = VERSION) -> int:
    """On-disk header bytes, including the v2 header CRC."""
    return _HEADER.size + (_CRC.size if version >= 2 else 0)


def segment_trailer_size(version: int = VERSION) -> int:
    """Per-segment trailer bytes (checkpoint CRC + activity CRC in v2)."""
    return 2 * _CRC.size if version >= 2 else 0


def _verify(
    section: str,
    data: bytes,
    stored: int,
    path: Optional[str] = None,
) -> None:
    actual = checksum(data)
    if actual != stored:
        raise IntegrityError(
            f"checksum mismatch in {section}",
            path=path,
            section=section,
            expected=stored,
            actual=actual,
        )


@dataclass(frozen=True)
class EdgeFileHeader:
    num_vertices: int
    t1: int
    t2: int
    version: int = VERSION

    @property
    def index_offset(self) -> int:
        return header_size(self.version)

    @property
    def segments_offset(self) -> int:
        index_bytes = self.num_vertices * _INDEX_ENTRY.size
        if self.version >= 2:
            index_bytes += _CRC.size
        return self.index_offset + index_bytes


def write_header(fh: BinaryIO, header: EdgeFileHeader) -> None:
    if header.version not in SUPPORTED_VERSIONS:
        raise StorageError(
            f"cannot write edge file version {header.version}; "
            f"supported versions: {SUPPORTED_VERSIONS}"
        )
    for name, value in (("t1", header.t1), ("t2", header.t2)):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise StorageError(
                f"edge file header {name}={value} outside the signed "
                "64-bit range of the on-disk format"
            )
    raw = _HEADER.pack(
        MAGIC, header.version, header.num_vertices, header.t1, header.t2
    )
    fh.write(raw)
    if header.version >= 2:
        fh.write(_CRC.pack(checksum(raw)))


def read_header(fh: BinaryIO, path: Optional[str] = None) -> EdgeFileHeader:
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise StorageError(
            f"truncated edge file header"
            f"{f' in {path}' if path else ''}: "
            f"{len(raw)} of {_HEADER.size} bytes"
        )
    magic, version, num_vertices, t1, t2 = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise StorageError(f"bad magic {magic!r}; not a Chronos edge file")
    if version not in SUPPORTED_VERSIONS:
        raise StorageError(f"unsupported edge file version {version}")
    if version >= 2:
        crc_raw = fh.read(_CRC.size)
        if len(crc_raw) != _CRC.size:
            raise StorageError(
                f"truncated edge file header checksum"
                f"{f' in {path}' if path else ''}"
            )
        _verify("header", raw, _CRC.unpack(crc_raw)[0], path)
    return EdgeFileHeader(num_vertices, t1, t2, version)


def write_index(
    fh: BinaryIO,
    entries: Union[np.ndarray, Sequence[Tuple[int, int, int]]],
    version: int = VERSION,
) -> None:
    """Write the vertex index: one ``(offset, n_cp, n_act)`` row per vertex
    (an :data:`INDEX_DTYPE` array, or tuples convertible to one)."""
    raw = np.asarray(entries, dtype=INDEX_DTYPE).tobytes()
    fh.write(raw)
    if version >= 2:
        fh.write(_CRC.pack(checksum(raw)))


def read_index(
    fh: BinaryIO,
    num_vertices: int,
    version: int = VERSION,
    path: Optional[str] = None,
) -> np.ndarray:
    """The vertex index as an :data:`INDEX_DTYPE` array, one row per vertex.

    Length and (v2) CRC are checked on the raw bytes first; the decode is
    then a single structured view, not one ``unpack_from`` per vertex.
    """
    expected = num_vertices * _INDEX_ENTRY.size
    raw = fh.read(expected)
    if len(raw) != expected:
        raise StorageError(
            f"truncated vertex index{f' in {path}' if path else ''}: "
            f"{len(raw)} of {expected} bytes"
        )
    if version >= 2:
        crc_raw = fh.read(_CRC.size)
        if len(crc_raw) != _CRC.size:
            raise StorageError(
                f"truncated vertex index checksum"
                f"{f' in {path}' if path else ''}"
            )
        _verify("vertex index", raw, _CRC.unpack(crc_raw)[0], path)
    return np.frombuffer(raw, dtype=INDEX_DTYPE)


def unpack_checkpoint_entries(raw: bytes) -> List[Tuple[int, float]]:
    if len(raw) % _CHECKPOINT_ENTRY.size:
        raise StorageError(
            f"checkpoint sector length {len(raw)} is not a multiple of "
            f"the {_CHECKPOINT_ENTRY.size}-byte entry size"
        )
    entries: List[Tuple[int, float]] = np.frombuffer(
        raw, dtype=CHECKPOINT_DTYPE
    ).tolist()
    return entries


def unpack_activities(raw: bytes) -> List[Tuple[int, int, int, int, float]]:
    if len(raw) % _ACTIVITY.size:
        raise StorageError(
            f"activity segment length {len(raw)} is not a multiple of "
            f"the {_ACTIVITY.size}-byte record size"
        )
    records: List[Tuple[int, int, int, int, float]] = np.frombuffer(
        raw, dtype=ACTIVITY_DTYPE
    ).tolist()
    return records


def verify_segment(
    vertex: int,
    cp_raw: bytes,
    act_raw: bytes,
    trailer: bytes,
    path: Optional[str] = None,
) -> None:
    """Check a v2 segment's sector data against its stored trailer."""
    if len(trailer) != 2 * _CRC.size:
        raise StorageError(
            f"truncated segment trailer of vertex {vertex}"
            f"{f' in {path}' if path else ''}"
        )
    cp_crc, act_crc = _CRC.unpack_from(trailer, 0)[0], _CRC.unpack_from(
        trailer, _CRC.size
    )[0]
    _verify(f"checkpoint sector of vertex {vertex}", cp_raw, cp_crc, path)
    _verify(f"activity segment of vertex {vertex}", act_raw, act_crc, path)


CHECKPOINT_ENTRY_SIZE = _CHECKPOINT_ENTRY.size
ACTIVITY_SIZE = _ACTIVITY.size
INDEX_ENTRY_SIZE = _INDEX_ENTRY.size
#: Size of the version-1 header (no checksum). Kept for existing callers;
#: prefer :func:`header_size`.
HEADER_SIZE = _HEADER.size
CRC_SIZE = _CRC.size
