"""The write-ahead log: append-only, CRC-framed activity batches.

Layout (all integers little-endian)::

    [magic "CWAL"][version u16][reserved u16][header crc u32]
    [frame][frame]...

One frame is ``[payload length u32][payload crc32 u32][payload]`` where
the payload is ``[seq u64][record count u16]`` followed by ``count``
fixed-size activity records ``(kind u8, src u32, dst i64, time i64,
weight f64)`` — ``dst = -1`` and a NaN weight encode the vertex-activity
and no-weight cases: the bytes of a
:data:`~repro.temporal.columns.RECORD` array, the one record codec. A
batch is written with ``tobytes()`` and a frame read back by one
``np.frombuffer``, its records checked in bulk. The CRC covers the whole
payload, so a torn tail (partial frame, bit flip) is detected at the
exact frame boundary and :func:`scan_wal` reports the last valid offset
for truncation.

Sequence numbers are strictly increasing across the log's lifetime and
survive compaction: the store manifest records the highest sequence a
compaction absorbed, and recovery replays only frames *after* it —
that filter is what makes WAL replay idempotent.

Durability is a policy, not a constant (``fsync=``):

- ``"always"`` — ``fsync`` after every append: an acked batch survives
  power loss (slowest).
- ``"batch"`` (default) — ``fsync`` once per ``batch_records`` appended
  records and on ``sync()``/``close()``: bounded loss window under
  power failure, no loss under process crash.
- ``"os"`` — flush to the OS only, never ``fsync``: survives process
  crash (the page cache persists), not power loss (fastest).

Crash points ``wal.append`` (dies mid-``write`` — flushes a torn prefix
of the frame) and ``wal.fsync`` (dies after the write, before the
``fsync``) are injected through the active
:class:`~repro.resilience.faults.FaultPlan`.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import StorageError, TemporalGraphError
from repro.obs import runtime as obs
from repro.resilience import faults
from repro.temporal.activity import Activity, ActivityKind
from repro.temporal.columns import RECORD, activities_of, records_of

__all__ = [
    "FSYNC_POLICIES",
    "WAL_MAGIC",
    "WAL_NAME",
    "WAL_VERSION",
    "WalFrame",
    "WalScan",
    "WalWriter",
    "encode",
    "header_bytes",
    "pack_record",
    "recover_wal",
    "scan_wal",
]

WAL_MAGIC = b"CWAL"
WAL_VERSION = 1
#: Default WAL file name inside a streaming store directory.
WAL_NAME = "wal.chronos"
FSYNC_POLICIES = ("always", "batch", "os")

_HEADER = struct.Struct("<4sHH")
_CRC = struct.Struct("<I")
_FRAME_HEADER = struct.Struct("<II")  # payload length, payload crc32
_PAYLOAD_HEADER = struct.Struct("<QH")  # sequence, record count

HEADER_SIZE = _HEADER.size + _CRC.size
#: Records per frame are bounded by the u16 count field.
MAX_FRAME_RECORDS = 0xFFFF

PathLike = Union[str, "os.PathLike[str]"]
#: What the write path takes: records, or a caller's activities.
Batch = Union[np.ndarray, Sequence[Activity]]


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def header_bytes() -> bytes:
    raw = _HEADER.pack(WAL_MAGIC, WAL_VERSION, 0)
    return raw + _CRC.pack(_crc(raw))


def encode(batch: Batch) -> np.ndarray:
    """A batch as :data:`RECORD` s: an array is one already, activities
    are taken apart (:class:`StorageError` for an id or a time the
    record format cannot hold)."""
    if isinstance(batch, np.ndarray):
        return batch
    try:
        return records_of(batch)
    except TemporalGraphError as exc:
        raise StorageError(
            f"activity outside the WAL record format: {exc}"
        ) from exc


def _decodable(records: np.ndarray) -> bool:
    """Whether every record obeys the rules :class:`Activity` enforces."""
    kind, dst = records["kind"], records["dst"]
    weightless = np.isnan(records["weight"])
    return bool(
        np.all(
            (kind <= ActivityKind.MOD_EDGE)
            & (records["time"] >= 0)
            & np.where(
                kind >= ActivityKind.ADD_EDGE,
                (dst >= 0) & ~(weightless & (kind != ActivityKind.DEL_EDGE)),
                (dst == -1) & weightless,
            )
        )
    )


def pack_record(activity: Activity) -> bytes:
    """One activity as the fixed-size WAL record encoding."""
    return encode([activity]).tobytes()


def unpack_record(raw: bytes, offset: int) -> Activity:
    records = np.frombuffer(raw, RECORD, 1, offset)
    if not _decodable(records):
        raise StorageError("undecodable activity record")
    return activities_of(records)[0]


def pack_frame(seq: int, batch: Batch) -> bytes:
    """A complete CRC-framed batch, ready to append."""
    records = encode(batch)
    if not 0 < records.shape[0] <= MAX_FRAME_RECORDS:
        raise StorageError(
            f"WAL frame must carry 1..{MAX_FRAME_RECORDS} records, "
            f"got {records.shape[0]}"
        )
    payload = _PAYLOAD_HEADER.pack(seq, records.shape[0]) + records.tobytes()
    return _FRAME_HEADER.pack(len(payload), _crc(payload)) + payload


@dataclass(frozen=True, eq=False)
class WalFrame:
    """One decoded frame: its sequence number and record batch."""

    seq: int
    records: np.ndarray  # RECORD

    @property
    def activities(self) -> Tuple[Activity, ...]:
        return activities_of(self.records)


@dataclass
class WalScan:
    """What :func:`scan_wal` found: valid frames plus tail diagnosis."""

    frames: List[WalFrame]
    #: File offset just past the last valid frame (== file size when the
    #: log is clean); everything beyond it is a torn tail.
    valid_end: int
    #: Bytes past ``valid_end`` (0 when the log is clean).
    torn_bytes: int
    #: Human-readable reason the scan stopped early, when it did.
    torn_reason: Optional[str] = None

    @property
    def last_seq(self) -> int:
        return self.frames[-1].seq if self.frames else 0

    @property
    def num_records(self) -> int:
        return sum(f.records.shape[0] for f in self.frames)


def scan_wal(path: PathLike) -> WalScan:
    """Scan a WAL, stopping (not failing) at the first invalid frame.

    Everything up to the first length/CRC/decode violation is returned
    as valid frames; the remainder is diagnosed as a torn tail for
    :func:`recover_wal` to truncate. Only a damaged *header* raises —
    that is not a torn append but a file that was never a WAL (or lost
    its first sectors), which recovery must surface, not silently eat.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER_SIZE:
        raise StorageError(
            f"truncated WAL header in {path}: {len(raw)} of "
            f"{HEADER_SIZE} bytes"
        )
    magic, version, _reserved = _HEADER.unpack_from(raw, 0)
    if magic != WAL_MAGIC:
        raise StorageError(f"bad magic {magic!r}; {path} is not a Chronos WAL")
    if version != WAL_VERSION:
        raise StorageError(f"unsupported WAL version {version} in {path}")
    (stored_crc,) = _CRC.unpack_from(raw, _HEADER.size)
    if stored_crc != _crc(raw[: _HEADER.size]):
        raise StorageError(f"WAL header checksum mismatch in {path}")

    frames: List[WalFrame] = []
    offset = HEADER_SIZE
    torn_reason: Optional[str] = None
    last_seq = 0
    while offset < len(raw):
        if offset + _FRAME_HEADER.size > len(raw):
            torn_reason = "torn frame header"
            break
        length, payload_crc = _FRAME_HEADER.unpack_from(raw, offset)
        start = offset + _FRAME_HEADER.size
        if length < _PAYLOAD_HEADER.size or start + length > len(raw):
            torn_reason = "torn frame payload"
            break
        payload = raw[start : start + length]
        if _crc(payload) != payload_crc:
            torn_reason = "frame payload checksum mismatch"
            break
        seq, count = _PAYLOAD_HEADER.unpack_from(payload, 0)
        if len(payload) != _PAYLOAD_HEADER.size + count * RECORD.itemsize:
            torn_reason = "frame record count disagrees with payload length"
            break
        if seq <= last_seq:
            torn_reason = (
                f"sequence regression ({seq} after {last_seq})"
            )
            break
        records = np.frombuffer(payload, RECORD, count, _PAYLOAD_HEADER.size)
        if not _decodable(records):
            # An undecodable record behind a valid CRC means the frame
            # was written by a different/buggy producer: stop here too.
            torn_reason = "undecodable activity record"
            break
        frames.append(WalFrame(seq=seq, records=records))
        last_seq = seq
        offset = start + length
    valid_end = offset  # == len(raw) when the scan consumed every byte
    return WalScan(
        frames=frames,
        valid_end=valid_end,
        torn_bytes=len(raw) - valid_end,
        torn_reason=torn_reason,
    )


def recover_wal(path: PathLike) -> WalScan:
    """Scan and, if torn, truncate the log at the last valid frame.

    The truncation is fsync'd before returning, so a crash *during
    recovery* re-runs the identical (idempotent) truncation.
    """
    path = Path(path)
    if path.stat().st_size < HEADER_SIZE:
        # A death during WAL *creation* (mid-header write): no frame was
        # ever acked, so an empty, re-headered log is the correct state.
        with open(path, "wb") as fh:
            fh.write(header_bytes())
            fh.flush()
            os.fsync(fh.fileno())
        return WalScan(
            frames=[], valid_end=HEADER_SIZE, torn_bytes=0,
            torn_reason="torn WAL header (re-initialised)",
        )
    scan = scan_wal(path)
    if scan.torn_bytes:
        with open(path, "r+b") as fh:
            fh.truncate(scan.valid_end)
            fh.flush()
            os.fsync(fh.fileno())
        obs.add("wal.truncated_bytes", scan.torn_bytes)
    return scan


class WalWriter:
    """Appender over an open WAL file handle (one per streaming store).

    Not safe for concurrent use from multiple processes — the streaming
    store is a single-writer design, like the engine it feeds.
    """

    def __init__(
        self,
        path: PathLike,
        fsync: str = "batch",
        batch_records: int = 64,
        next_seq: int = 1,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        if batch_records <= 0:
            raise StorageError(
                f"batch_records must be positive, got {batch_records}"
            )
        self.path = Path(path)
        self.fsync_policy = fsync
        self.batch_records = batch_records
        self._next_seq = next_seq
        self._unsynced_records = 0
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fh: Optional[IO[bytes]] = open(self.path, "ab")
        if fresh:
            self._fh.write(header_bytes())
            self._fh.flush()
            os.fsync(self._fh.fileno())

    # ------------------------------------------------------------------ #

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def _handle(self) -> IO[bytes]:
        if self._fh is None:
            raise StorageError(f"WAL writer for {self.path} is closed")
        return self._fh

    def append(self, batch: Batch) -> int:
        """Durably append one batch; returns its sequence number.

        When the call returns, the batch is as durable as the fsync
        policy promises; when it raises, the tail either holds the whole
        frame or a torn prefix that recovery truncates — never a frame
        that decodes to a different batch.
        """
        fh = self._handle()
        seq = self._next_seq
        frame = pack_frame(seq, batch)
        plan = faults.active()
        if plan is not None and plan.take_crash("wal.append"):
            # Simulated death mid-write: the OS received a strict prefix
            # of the frame. Flush it so reopening sees the torn tail.
            fh.write(frame[: max(1, len(frame) // 2)])
            fh.flush()
            raise faults.InjectedCrash(
                "injected crash at wal.append", point="wal.append"
            )
        fh.write(frame)
        fh.flush()
        self._next_seq = seq + 1
        self._unsynced_records += len(batch)
        obs.add("wal.appends")
        obs.add("wal.records", len(batch))
        obs.add("wal.bytes_written", len(frame))
        faults.maybe_crash("wal.fsync")
        if self.fsync_policy == "always" or (
            self.fsync_policy == "batch"
            and self._unsynced_records >= self.batch_records
        ):
            self._fsync()
        return seq

    def _fsync(self) -> None:
        os.fsync(self._handle().fileno())
        self._unsynced_records = 0
        obs.add("wal.fsyncs")

    def sync(self) -> None:
        """Force pending records to stable storage (any policy)."""
        fh = self._handle()
        fh.flush()
        if self.fsync_policy != "os":
            self._fsync()

    def reset(self) -> None:
        """Drop every frame (post-compaction): truncate back to header.

        Sequence numbers are *not* reset — they keep increasing across
        the log's lifetime, which is what lets the manifest's absorbed
        sequence filter replay idempotently.
        """
        fh = self._handle()
        fh.flush()
        fh.close()
        with open(self.path, "r+b") as trunc:
            trunc.truncate(HEADER_SIZE)
            trunc.flush()
            os.fsync(trunc.fileno())
        self._fh = open(self.path, "ab")
        self._unsynced_records = 0

    def close(self) -> None:
        if self._fh is None:
            return
        self.sync()
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
