"""Time-locality edge files: writer and reader (paper Figure 4).

One format, :mod:`repro.storage.format`: every section carries a CRC32.
Every read path validates section lengths and checksums, so a truncated
or bit-flipped file raises a typed :class:`~repro.errors.StorageError` /
:class:`~repro.errors.IntegrityError` naming the corrupt section instead
of returning garbage records.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import native
from repro.errors import StorageError
from repro.obs import runtime as obs
from repro.storage import format as fmt
from repro.temporal.activity import ActivityKind
from repro.temporal.graph import TemporalGraph
from repro.types import Time, VertexId, Weight

_KIND_MAP = {
    ActivityKind.ADD_EDGE: fmt.KIND_ADD,
    ActivityKind.DEL_EDGE: fmt.KIND_DEL,
    ActivityKind.MOD_EDGE: fmt.KIND_MOD,
}
#: The :class:`ActivityKind` of each on-disk kind code, for columnar
#: consumers (``ACTIVITY_KIND_OF_CODE[scan.activities["kind"]]``), and
#: the inverse lookup the writer uses.
ACTIVITY_KIND_OF_CODE = np.array(
    sorted(_KIND_MAP, key=_KIND_MAP.__getitem__), dtype=np.uint8
)
_CODE_OF_ACTIVITY_KIND = np.zeros(len(ActivityKind), dtype=np.uint8)
_CODE_OF_ACTIVITY_KIND[ACTIVITY_KIND_OF_CODE] = np.arange(
    len(_KIND_MAP), dtype=np.uint8
)


def write_edge_file(
    path: Path,
    graph: TemporalGraph,
    t1: Time,
    t2: Time,
) -> None:
    """Write the snapshot group ``[t1, t2]`` of ``graph`` as an edge file.

    Each vertex segment contains a checkpoint of its out-edges at ``t1``
    followed by its edge activities in ``(t1, t2]``; every activity carries
    the ``tu`` link to the next activity on the same edge. The checkpoint
    holds the edges' own state: an edge whose endpoint is deleted at
    ``t1`` is kept (it shows again if the vertex is re-added), vertex
    liveness being the reader's to apply. Every section is followed by
    its CRC32.

    Both sectors are cut from the log's columns
    (:meth:`TemporalGraph.columns`, shared by every group of a store) in
    one pass each and emitted through the format's record dtypes; one
    native call (:func:`repro.native.pack_sections`) then lays out every
    segment with its CRC32 trailer.
    """
    if t1 > t2:
        raise StorageError(f"invalid group range [{t1}, {t2}]")
    V = graph.num_vertices
    header = fmt.EdgeFileHeader(V, t1, t2)
    columns = graph.columns()
    events = columns.events

    # Checkpoint: per edge, the record valid at t1 (time <= t1 <
    # next_time) when it leaves the edge live, in (src, dst) order.
    at_t1 = (events.time <= t1) & (columns.next_time > t1) & columns.live
    cp = columns.edge_order[at_t1[columns.edge_order]]
    checkpoint = np.empty(cp.shape[0], dtype=fmt.CHECKPOINT_DTYPE)
    checkpoint["dst"] = events.dst[cp]
    checkpoint["weight"] = events.weight[cp]

    # Activities: the (t1, t2] slice of the log, stably ordered by source.
    lo, hi = np.searchsorted(events.time, [t1, t2], side="right")
    act = lo + np.argsort(events.src[lo:hi], kind="stable")
    next_time = columns.next_time[act]
    activities = np.empty(act.shape[0], dtype=fmt.ACTIVITY_DTYPE)
    activities["kind"] = _CODE_OF_ACTIVITY_KIND[events.kind[act]]
    activities["dst"] = events.dst[act]
    activities["time"] = events.time[act]
    activities["tu"] = next_time
    activities["tu"][next_time > t2] = fmt.TU_INFINITY
    activities["weight"] = events.weight[act]

    cp_counts = np.bincount(events.src[cp], minlength=V)
    act_counts = np.bincount(events.src[lo:hi], minlength=V)
    vertices = np.flatnonzero(cp_counts + act_counts)
    cp_bytes = cp_counts[vertices] * fmt.CHECKPOINT_ENTRY_SIZE
    act_bytes = act_counts[vertices] * fmt.ACTIVITY_SIZE
    segment_bytes = cp_bytes + act_bytes + fmt.TRAILER_SIZE
    index = np.zeros(V, dtype=fmt.INDEX_DTYPE)
    index["offset"][vertices] = (
        header.segments_offset + np.cumsum(segment_bytes) - segment_bytes
    )
    index["n_cp"] = cp_counts
    index["n_act"] = act_counts

    segments = native.pack_sections(
        checkpoint.view(np.uint8),
        activities.view(np.uint8),
        cp_bytes.astype(np.int64),
        act_bytes.astype(np.int64),
    )

    # Writer primitive: durable callers (store.create, WAL compaction)
    # hand it a tmp sibling via atomic_write_via and publish after
    # (chronolint CHF003 proves it at every caller).
    with open(path, "wb") as fh:
        fmt.write_header(fh, header)
        fmt.write_index(fh, index)
        fh.write(memoryview(segments))

    # Deterministic storage-fault injection: an installed FaultPlan may
    # flip one byte of the file just written. One None-check when idle.
    from repro.resilience import faults

    plan = faults.active()
    if plan is not None:
        plan.maybe_corrupt(path)


@dataclass(frozen=True)
class EdgeFileScan:
    """Every vertex segment of an edge file as columns, all sections
    length- and CRC-checked (the result of :meth:`EdgeFile.scan`).

    ``checkpoint`` / ``activities`` hold the records of all segments back
    to back, in vertex order, as :data:`~repro.storage.format
    .CHECKPOINT_DTYPE` / :data:`~repro.storage.format.ACTIVITY_DTYPE`
    arrays; ``cp_counts`` / ``act_counts`` say how many belong to each of
    ``vertices`` (the vertices that have a segment).
    """

    vertices: np.ndarray
    cp_counts: np.ndarray
    act_counts: np.ndarray
    checkpoint: np.ndarray
    activities: np.ndarray


class EdgeFile:
    """Reader over a time-locality edge file.

    Two access patterns, one set of checks. :meth:`segment` seeks to one
    vertex through the index (:meth:`_read_segment`); :meth:`scan` reads
    the whole file once and returns every segment as columns, and is what
    :meth:`all_segments`, :meth:`verify` and the series loader are built
    on. ``scan`` checks every section's length and CRC itself and, on any
    anomaly, re-enters :meth:`_read_segment` for the offending vertex, so
    a truncated or bit-flipped section raises the identical typed
    :class:`~repro.errors.StorageError` /
    :class:`~repro.errors.IntegrityError`, byte for byte, on either path.

    With ``mmap=True`` the file is mapped read-only via ``np.memmap`` once
    at open and both patterns read slices of the mapping — no per-access
    ``open``/``seek`` and no eager copy of the file into RAM, which is
    what lets stores larger than memory stream through the engine.
    """

    def __init__(self, path: Path, mmap: bool = False) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            self.header = fmt.read_header(fh, str(self.path))
            index = fmt.read_index(fh, self.header.num_vertices, str(self.path))
        #: ``(offset, n_cp, n_act)`` per vertex, an ``INDEX_DTYPE`` array.
        self._index_columns = index
        self.mmap = bool(mmap)
        self._mm: Optional[np.memmap] = None
        if self.mmap:
            self._mm = np.memmap(self.path, dtype=np.uint8, mode="r")
        obs.add(
            "storage.edge_files_mmap"
            if self.mmap
            else "storage.edge_files_eager"
        )

    @property
    def t1(self) -> Time:
        return self.header.t1

    @property
    def t2(self) -> Time:
        return self.header.t2

    @property
    def num_vertices(self) -> int:
        return self.header.num_vertices

    @staticmethod
    def _file_read(fh: BinaryIO) -> Callable[[int, int], bytes]:
        """``read(offset, size)`` over an open file; clamped at EOF before
        reading, so an index's length never sizes an allocation."""
        end = os.fstat(fh.fileno()).st_size

        def read(offset: int, size: int) -> bytes:
            if offset >= end:
                return b""
            fh.seek(offset)
            return fh.read(min(size, end - offset))

        return read

    @staticmethod
    def _buffer_read(data: np.ndarray) -> Callable[[int, int], bytes]:
        """``read(offset, size)`` over file bytes already in memory (or
        mapped); clamps at EOF like :meth:`_file_read` so the shared
        truncation checks fire identically."""

        def read(offset: int, size: int) -> bytes:
            return data[offset : offset + size].tobytes()

        return read

    def _read_segment(
        self, read: Callable[[int, int], bytes], v: int,
        offset: int, n_cp: int, n_act: int,
    ) -> Tuple[
        List[Tuple[int, float]], List[Tuple[int, int, int, int, float]]
    ]:
        """Read + validate one vertex segment via ``read(offset, size)``.

        Section lengths, then the CRC trailer through
        :func:`repro.storage.format.verify_segment`. Every corruption
        error of this class is raised from here — :meth:`scan` re-enters
        it for the segment its bulk checks reject.
        """
        cp_expected = n_cp * fmt.CHECKPOINT_ENTRY_SIZE
        act_expected = n_act * fmt.ACTIVITY_SIZE
        cp_raw = read(offset, cp_expected)
        if len(cp_raw) != cp_expected:
            raise StorageError(
                f"truncated checkpoint sector of vertex {v} in {self.path}: "
                f"{len(cp_raw)} of {cp_expected} bytes"
            )
        act_raw = read(offset + cp_expected, act_expected)
        if len(act_raw) != act_expected:
            raise StorageError(
                f"truncated activity segment of vertex {v} in {self.path}: "
                f"{len(act_raw)} of {act_expected} bytes"
            )
        trailer = read(offset + cp_expected + act_expected, fmt.TRAILER_SIZE)
        fmt.verify_segment(v, cp_raw, act_raw, trailer, str(self.path))
        obs.add("storage.crc_verified")
        obs.add("storage.segments_read")
        obs.add(
            "storage.bytes_read", cp_expected + act_expected + fmt.TRAILER_SIZE
        )
        return (
            np.frombuffer(cp_raw, fmt.CHECKPOINT_DTYPE).tolist(),
            np.frombuffer(act_raw, fmt.ACTIVITY_DTYPE).tolist(),
        )

    def segment(
        self, v: VertexId
    ) -> Tuple[List[Tuple[int, float]], List[Tuple[int, int, int, int, float]]]:
        """``(checkpoint entries, activity records)`` for vertex ``v``.

        The vertex index makes this a single seek — no sequential scan.
        """
        if not 0 <= v < self.num_vertices:
            raise StorageError(f"vertex {v} out of range")
        offset, n_cp, n_act = self._index_columns[v].item()
        if offset == 0:
            return [], []
        if self._mm is not None:
            return self._read_segment(
                self._buffer_read(self._mm), v, offset, n_cp, n_act
            )
        with open(self.path, "rb") as fh:
            return self._read_segment(
                self._file_read(fh), v, offset, n_cp, n_act
            )

    # ------------------------------------------------------------------ #
    # whole-file columnar read

    def _file_bytes(self) -> np.ndarray:
        """The file as a ``uint8`` array: the mapping, or one ``read()``."""
        if self._mm is not None:
            return self._mm
        with open(self.path, "rb") as fh:
            return np.frombuffer(fh.read(), dtype=np.uint8)

    def _verified_sections(
        self, data: np.ndarray, gather: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Check every segment of ``data``; returns the vertices that have
        one and, with ``gather``, all their checkpoint and all their
        activity sections, each back to back in vertex order as ``uint8``
        arrays (empty without).

        NumPy checks every segment's length against the file at once, and
        that together they fit in it; one native call
        (:func:`repro.native.scan_sections`) then checks the CRC32s of the
        segments that fit and copies their sections. The first segment, in
        vertex order, that is short or mismatches is handed to
        :meth:`_read_segment` to raise the error.
        """
        index = self._index_columns
        vertices = np.flatnonzero(index["offset"] != 0)
        offset = index["offset"][vertices]
        cp_bytes = index["n_cp"][vertices].astype(np.int64) * np.int64(
            fmt.CHECKPOINT_ENTRY_SIZE
        )
        act_bytes = index["n_act"][vertices].astype(np.int64) * np.int64(
            fmt.ACTIVITY_SIZE
        )
        size = np.uint64(data.shape[0])
        needed = (cp_bytes + act_bytes + fmt.TRAILER_SIZE).astype(np.uint64)
        fits = (offset <= size) & (needed <= size - np.minimum(offset, size))
        # Segments before the first short one are still CRC-checked first:
        # an earlier mismatch is reported ahead of a later truncation.
        intact = int(fits.argmin()) if not fits.all() else fits.shape[0]
        # Disjoint segments fit in the file together; overlapping ones must
        # not size the gather (or the work) past it.
        claimed = needed[:intact].sum(dtype=np.float64)
        if claimed > data.shape[0]:
            raise StorageError(
                f"the segments of {self.path} overlap: they span "
                f"{int(claimed)} bytes of a {data.shape[0]}-byte file"
            )
        suspect, checkpoint, activities = native.scan_sections(
            data,
            offset[:intact].astype(np.int64),
            cp_bytes[:intact],
            act_bytes[:intact],
            gather=gather,
        )
        if suspect < fits.shape[0]:
            v = int(vertices[suspect])
            self._read_segment(
                self._buffer_read(data), v, *self._index_columns[v].item()
            )
            raise StorageError(
                f"segment of vertex {v} in {self.path} changed while "
                "it was being read"
            )
        obs.add("storage.crc_verified", intact)
        obs.add("storage.segments_read", intact)
        obs.add("storage.bytes_read", int(needed.sum()))
        return vertices, checkpoint, activities

    def scan(self) -> EdgeFileScan:
        """Read every vertex segment in one pass, as columns.

        The access pattern of the paper's Section 4.3 loader — one
        sequential read that saturates the disk — with the records
        decoded by structured views of the gathered sections instead of
        one ``struct`` call each. Every section is validated exactly as
        :meth:`segment` would (see :meth:`_verified_sections`), and the
        ``storage.*`` counters advance by the same totals as reading each
        segment on its own.
        """
        vertices, cp_raw, act_raw = self._verified_sections(
            self._file_bytes(), gather=True
        )
        checkpoint = cp_raw.view(fmt.CHECKPOINT_DTYPE)
        activities = act_raw.view(fmt.ACTIVITY_DTYPE)
        # The CRCs prove the bytes are the ones written, not that they are
        # in range: a crafted file with valid CRCs must not reach the
        # kernel's indexing with a wild vertex, kind or time.
        for section, records in (
            ("checkpoint sector", checkpoint),
            ("activity segment", activities),
        ):
            if records.shape[0] and records["dst"].max() >= self.num_vertices:
                raise StorageError(
                    f"{section} in {self.path} names vertex "
                    f"{int(records['dst'].max())}, outside the file's "
                    f"{self.num_vertices} vertices"
                )
        if activities.shape[0]:
            if activities["kind"].max() > fmt.KIND_MOD:
                raise StorageError(
                    f"unknown activity kind {int(activities['kind'].max())} "
                    f"in {self.path}"
                )
            latest = int(activities["time"].max())
            if latest > np.iinfo(np.int64).max:
                raise StorageError(
                    f"activity time {latest} in {self.path} exceeds the "
                    "signed 64-bit time range"
                )
        index = self._index_columns
        return EdgeFileScan(
            vertices=vertices,
            cp_counts=index["n_cp"][vertices].astype(np.int64),
            act_counts=index["n_act"][vertices].astype(np.int64),
            checkpoint=checkpoint,
            activities=activities,
        )

    def all_segments(self) -> Iterator[Tuple[
        int, List[Tuple[int, float]], List[Tuple[int, int, int, int, float]]
    ]]:
        """Every vertex segment, as record tuples, from one :meth:`scan`.

        Yields ``(vertex, checkpoint entries, activity records)`` for
        vertices that have a segment.
        """
        scan = self.scan()
        checkpoint = scan.checkpoint.tolist()
        activities = scan.activities.tolist()
        cp_hi = np.cumsum(scan.cp_counts).tolist()
        act_hi = np.cumsum(scan.act_counts).tolist()
        cp_lo = act_lo = 0
        for v, cp_end, act_end in zip(scan.vertices.tolist(), cp_hi, act_hi):
            yield v, checkpoint[cp_lo:cp_end], activities[act_lo:act_end]
            cp_lo, act_lo = cp_end, act_end

    def verify(self) -> int:
        """Fully scan the file, validating every section; returns the
        number of vertex segments checked.

        Raises the same typed errors the lazy read paths would, so a
        store can be integrity-checked up front instead of failing
        mid-computation.
        """
        vertices, _, _ = self._verified_sections(
            self._file_bytes(), gather=False
        )
        return int(vertices.shape[0])

    def edge_state_at(self, v: VertexId, u: VertexId, t: Time) -> Optional[Weight]:
        """Weight of edge ``(v, u)`` at time ``t``, or None when absent.

        Uses the ``tu`` link structure: scan ``v``'s activities in time
        order and stop at the first activity on ``(v, u)`` whose validity
        interval ``[time, tu)`` contains ``t`` (Section 4.2).
        """
        if not self.t1 <= t <= self.t2:
            raise StorageError(
                f"time {t} outside snapshot group [{self.t1}, {self.t2}]"
            )
        checkpoint, activities = self.segment(v)
        state: Optional[Weight] = None
        for dst, w in checkpoint:
            if dst == u:
                state = w
                break
        for kind, dst, time, tu, weight in activities:
            if dst != u:
                continue
            if time > t:
                break  # activities are time-sorted; nothing later applies
            if t < tu:
                # tu > t: no further activity on this edge at or before t,
                # so this is the activity whose interval covers t.
                state = None if kind == fmt.KIND_DEL else weight
                break
            # Otherwise a later activity on this edge (at tu <= t) will
            # supersede this one — the tu link tells us to keep scanning.
        return state

    def out_edges_at(self, v: VertexId, t: Time) -> Dict[VertexId, Weight]:
        """All live out-edges of ``v`` at time ``t`` (checkpoint + replay)."""
        if not self.t1 <= t <= self.t2:
            raise StorageError(
                f"time {t} outside snapshot group [{self.t1}, {self.t2}]"
            )
        checkpoint, activities = self.segment(v)
        state: Dict[VertexId, Weight] = {dst: w for dst, w in checkpoint}
        for kind, dst, time, _tu, weight in activities:
            if time > t:
                break
            if kind == fmt.KIND_DEL:
                state.pop(dst, None)
            elif kind == fmt.KIND_ADD:
                state[dst] = weight
            elif kind == fmt.KIND_MOD and dst in state:
                state[dst] = weight
        return state

    def size_bytes(self) -> int:
        return self.path.stat().st_size

    def fingerprint(self) -> str:
        """Stored-CRC content fingerprint of this file (cache identity).

        See :func:`repro.cache.fingerprint.edge_file_fingerprint`: this
        digests the header, index, and per-segment CRC32s that were
        already paid for at write time — ~12 bytes per segment, no
        segment-data reads.
        """
        from repro.cache.fingerprint import edge_file_fingerprint

        return edge_file_fingerprint(self)
