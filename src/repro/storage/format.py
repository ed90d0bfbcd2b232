"""Binary record encodings for the on-disk edge file.

All multi-byte integers are little-endian. An edge file is:

``[header][header crc][vertex index][index crc][segment 0]...``

- header: magic ``CHRN``, version u16 (always :data:`VERSION`; any other
  value is refused), num_vertices u32, t1 i64, t2 i64 (signed: ``t1`` is
  the instant *before* the group's first activity time, so a group
  starting at time 0 stores ``t1 = -1``), followed by a CRC32 (u32) over
  the preceding header bytes;
- vertex index: ``num_vertices`` pairs of (segment offset u64, checkpoint
  entry count u32, activity count u32); offset 0 means "no segment";
  followed by a CRC32 over the packed index;
- segment for vertex v: checkpoint sector (``(dst u32, weight f64)`` per
  edge live at t1) followed by activity records, followed by a trailer of
  two CRC32s — one over the checkpoint sector, one over the activities.

An activity record is ``(kind u8, dst u32, time u64, tu u64, weight f64)``
— ``tu`` is the time of the next activity on the same edge within the
group, or ``TU_INFINITY`` when it is the last one (Section 4.2). The
record dtypes below are the one definition of the index, checkpoint and
activity records; their sizes are the dtypes' ``itemsize``.

Integrity contract: truncation and bit flips surface as typed
:class:`~repro.errors.StorageError` /
:class:`~repro.errors.IntegrityError` exceptions *naming the corrupt
section* — never as silently wrong data and never as a bare
``struct.error``.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Optional, Sequence, Tuple, Union

import numpy as np

from repro import native
from repro.errors import IntegrityError, StorageError

MAGIC = b"CHRN"
#: The format version: per-section CRC32 checksums.
VERSION = 2
TU_INFINITY = 0xFFFFFFFFFFFFFFFF

# t1/t2 are *signed* 64-bit: group planning derives t1 as "one instant
# before the first covered time", which is -1 for a group starting at
# time 0.
_HEADER = struct.Struct("<4sHIqq")
_CRC = struct.Struct("<I")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

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

CRC_SIZE = _CRC.size
#: On-disk header bytes, the header CRC included.
HEADER_SIZE = _HEADER.size + CRC_SIZE
INDEX_ENTRY_SIZE = INDEX_DTYPE.itemsize
CHECKPOINT_ENTRY_SIZE = CHECKPOINT_DTYPE.itemsize
ACTIVITY_SIZE = ACTIVITY_DTYPE.itemsize
#: Per-segment trailer bytes (checkpoint CRC + activity CRC): the native
#: section codec's constant, which writes and checks it.
TRAILER_SIZE = native.TRAILER_SIZE

#: Activity kind codes in edge files (edge activities only).
KIND_ADD = 0
KIND_DEL = 1
KIND_MOD = 2


def checksum(data: bytes) -> int:
    """The CRC32 the format stores for each section."""
    return zlib.crc32(data) & 0xFFFFFFFF


def _in(path: Optional[str]) -> str:
    return f" in {path}" if path else ""


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

    @property
    def segments_offset(self) -> int:
        return HEADER_SIZE + self.num_vertices * INDEX_ENTRY_SIZE + CRC_SIZE


def write_header(fh: BinaryIO, header: EdgeFileHeader) -> None:
    for name, value in (("t1", header.t1), ("t2", header.t2)):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise StorageError(
                f"edge file header {name}={value} outside the signed "
                "64-bit range of the on-disk format"
            )
    raw = _HEADER.pack(MAGIC, VERSION, header.num_vertices, header.t1, header.t2)
    fh.write(raw)
    fh.write(_CRC.pack(checksum(raw)))


def read_header(fh: BinaryIO, path: Optional[str] = None) -> EdgeFileHeader:
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise StorageError(
            f"truncated edge file header{_in(path)}: "
            f"{len(raw)} of {_HEADER.size} bytes"
        )
    magic, version, num_vertices, t1, t2 = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise StorageError(f"bad magic {magic!r}; not a Chronos edge file")
    if version != VERSION:
        raise StorageError(f"unsupported edge file version {version}")
    crc_raw = fh.read(CRC_SIZE)
    if len(crc_raw) != CRC_SIZE:
        raise StorageError(f"truncated edge file header checksum{_in(path)}")
    _verify("header", raw, _CRC.unpack(crc_raw)[0], path)
    return EdgeFileHeader(num_vertices, t1, t2)


def write_index(
    fh: BinaryIO, entries: Union[np.ndarray, Sequence[Tuple[int, int, int]]]
) -> None:
    """Write the vertex index: one ``(offset, n_cp, n_act)`` row per vertex
    (an :data:`INDEX_DTYPE` array, or tuples convertible to one)."""
    raw = np.asarray(entries, dtype=INDEX_DTYPE).tobytes()
    fh.write(raw)
    fh.write(_CRC.pack(checksum(raw)))


def read_index(
    fh: BinaryIO, num_vertices: int, path: Optional[str] = None
) -> np.ndarray:
    """The vertex index as an :data:`INDEX_DTYPE` array, one row per vertex.

    The read is clamped to the bytes left in the file, so a header's
    vertex count never sizes an allocation past it. Length and CRC are
    checked on the raw bytes first; the decode is then a single
    structured view.
    """
    expected = num_vertices * INDEX_ENTRY_SIZE
    start = fh.tell()
    left = fh.seek(0, os.SEEK_END) - start
    fh.seek(start)
    raw = fh.read(min(expected, left))
    if len(raw) != expected:
        raise StorageError(
            f"truncated vertex index{_in(path)}: {len(raw)} of {expected} bytes"
        )
    crc_raw = fh.read(CRC_SIZE)
    if len(crc_raw) != CRC_SIZE:
        raise StorageError(f"truncated vertex index checksum{_in(path)}")
    _verify("vertex index", raw, _CRC.unpack(crc_raw)[0], path)
    return np.frombuffer(raw, dtype=INDEX_DTYPE)


def verify_segment(
    vertex: int,
    cp_raw: bytes,
    act_raw: bytes,
    trailer: bytes,
    path: Optional[str] = None,
) -> None:
    """Check a segment's sector data against its stored trailer."""
    if len(trailer) != TRAILER_SIZE:
        raise StorageError(
            f"truncated segment trailer of vertex {vertex}{_in(path)}"
        )
    cp_crc, act_crc = struct.unpack("<II", trailer)
    _verify(f"checkpoint sector of vertex {vertex}", cp_raw, cp_crc, path)
    _verify(f"activity segment of vertex {vertex}", act_raw, act_crc, path)
