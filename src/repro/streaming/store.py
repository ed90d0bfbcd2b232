"""The streaming store: mutable head over the immutable snapshot store.

A :class:`StreamingStore` directory holds at most three kinds of state:

- an (optional) immutable **base**: a snapshot-group store — edge
  files plus ``manifest.json`` — produced by the last compaction;
- the **WAL** (``wal.chronos``): every activity appended since that
  compaction, CRC-framed (:mod:`repro.streaming.wal`);
- transient scratch (``.compact-tmp/``, ``*.tmp-*`` siblings) that only
  exists inside a compaction and is deleted on every open.

The in-memory **head** holds the full logical activity log (base +
replayed WAL + live appends): a non-strict
:class:`~repro.temporal.builder.TemporalGraphBuilder` continuing the base
log, fed whole record arrays and never an ``Activity``. Opening a store
*is* recovery — there is no separate repair tool to remember:

1. delete unpublished temp siblings and stale scratch;
2. load the manifest (if any) and delete edge files it does not
   reference (the debris of a death between file publication and the
   manifest swap);
3. read the base activity log back from the groups' activity segments
   with the bulk, CRC-checked scan ``load_series`` runs (exact: a
   full-history store checkpoints nothing at its first group boundary,
   so the segments carry every edge activity verbatim) and keep it as it
   was written — the canonical log of the head that was compacted;
4. scan the WAL, truncate a torn tail at the last valid CRC frame, and
   replay the surviving records in one batch — *skipping* frames at or
   below the manifest's absorbed sequence, which makes replay idempotent
   when a crash landed between the manifest swap and the WAL reset;
5. resume appending at the next sequence number.

Analytics freshness: ``series(times)`` exposes the head to the engine.
Group fingerprints of such a series are content-only, so after an
append batch the unchanged prefix groups still *hit* the result cache
and only the groups whose content moved recompute — seeded from their
predecessor under ``EngineConfig(reuse="incremental")``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cache.fingerprint import digest_bytes
from repro.errors import StorageError, TemporalGraphError
from repro.obs import runtime as obs
from repro.storage.atomic import remove_stale_tmp
from repro.storage.loader import _group_events
from repro.storage.store import MANIFEST_NAME, StoreConfig, TemporalGraphStore
from repro.streaming import wal as walmod
from repro.streaming.compact import compact_to, gc_unreferenced
from repro.temporal.activity import Activity, ActivityKind
from repro.temporal.builder import TemporalGraphBuilder
from repro.temporal.columns import log_columns, make_records, records_of
from repro.temporal.graph import TemporalGraph
from repro.temporal.series import SnapshotSeriesView
from repro.types import Time

__all__ = ["RecoveryReport", "StreamingStore"]

PathLike = Union[str, "os.PathLike[str]"]


@dataclass
class RecoveryReport:
    """What one open (== one recovery) found and repaired."""

    #: Whether a base manifest existed.
    had_base: bool = False
    #: Snapshot groups in the base store.
    base_groups: int = 0
    #: Edge activities reconstructed from the base store.
    base_records: int = 0
    #: WAL frames replayed into the head (sequence above the manifest's).
    replayed_frames: int = 0
    #: Activities those frames carried.
    replayed_records: int = 0
    #: Frames skipped as already absorbed by a compaction.
    skipped_frames: int = 0
    #: Bytes truncated off a torn WAL tail (0 for a clean log).
    truncated_bytes: int = 0
    #: Why the tail was torn, when it was.
    torn_reason: Optional[str] = None
    #: Unreferenced / unpublished files deleted during cleanup.
    removed_files: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "had_base": self.had_base,
            "base_groups": self.base_groups,
            "base_records": self.base_records,
            "replayed_frames": self.replayed_frames,
            "replayed_records": self.replayed_records,
            "skipped_frames": self.skipped_frames,
            "truncated_bytes": self.truncated_bytes,
            "torn_reason": self.torn_reason,
            "removed_files": list(self.removed_files),
        }


class StreamingStore:
    """Single-writer, crash-safe ingestion endpoint for one store dir."""

    def __init__(
        self,
        path: "PathLike",
        fsync: str = "batch",
        batch_records: int = 64,
        redundancy_ratio: float = 0.5,
        max_groups: Optional[int] = None,
        store_config: Optional[StoreConfig] = None,
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.redundancy_ratio = redundancy_ratio
        self.max_groups = max_groups
        self.store_config = store_config
        self.recovery = RecoveryReport()
        with obs.span("phase", "recover", {"store": str(self.path)}):
            self._open_and_recover(fsync, batch_records)

    # ------------------------------------------------------------------ #
    # open == recover

    def _open_and_recover(self, fsync: str, batch_records: int) -> None:
        report = self.recovery
        report.removed_files.extend(remove_stale_tmp(self.path))

        self._manifest = self._read_manifest()
        report.had_base = self._manifest is not None
        report.removed_files.extend(
            gc_unreferenced(self.path, self._manifest)
        )

        self._head = TemporalGraphBuilder(strict=False)
        #: Vertex-id-space floor carried from the base manifest, so the
        #: logical graph never shrinks across compaction round-trips.
        self._num_vertices_floor = 0
        if self._manifest is not None:
            self._load_base(report)

        streaming_meta = (self._manifest or {}).get("streaming", {})
        self._generation = int(streaming_meta.get("generation", 0))
        self._wal_seq = int(streaming_meta.get("wal_seq", 0))

        wal_path = self.path / walmod.WAL_NAME
        last_seq = self._wal_seq
        if wal_path.exists():
            scan = walmod.recover_wal(wal_path)
            report.truncated_bytes = scan.torn_bytes
            report.torn_reason = scan.torn_reason
            replayed = [f.records for f in scan.frames if f.seq > self._wal_seq]
            report.replayed_frames = len(replayed)
            report.skipped_frames = len(scan.frames) - len(replayed)
            obs.add("recover.skipped_frames", report.skipped_frames)
            if replayed:
                records = np.concatenate(replayed)
                report.replayed_records = records.shape[0]
                self._head.extend(records)
            last_seq = max(last_seq, scan.last_seq)
            obs.add("recover.replayed_records", report.replayed_records)
        self._last_seq = last_seq
        self._wal = walmod.WalWriter(
            wal_path,
            fsync=fsync,
            batch_records=batch_records,
            next_seq=last_seq + 1,
        )
        #: The graph of the head's first ``_graph_records`` records.
        self._graph_cache: Optional[TemporalGraph] = None
        self._graph_records = 0
        obs.add("recover.opens")

    def _read_manifest(self) -> Optional[Dict[str, Any]]:
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.exists():
            return None
        try:
            with open(manifest_path) as fh:
                loaded: Dict[str, Any] = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(
                f"corrupt store manifest at {manifest_path}: {exc}"
            ) from exc
        if "num_vertices" not in loaded or "groups" not in loaded:
            raise StorageError(
                f"store manifest at {manifest_path} is missing required "
                "fields"
            )
        return loaded

    def _load_base(self, report: RecoveryReport) -> None:
        """Read the base activity log back from the snapshot store.

        Exact for full-history stores: the first group starts one
        instant before the first activity, so its checkpoint sector is
        empty and the activity segments carry the entire edge log. The
        head continues that log as it was written (it is canonical: the
        log of the head that was compacted), not a re-validated copy.
        """
        store = TemporalGraphStore(self.path, self.store_config)
        report.base_groups = store.num_groups
        # The manifest's explicit vertex records, decoded by the store.
        parts = [
            records_of([a for g in store.groups for a in g.vertex_activities])
        ]
        for gi, group in enumerate(store.groups):
            events = _group_events(group, stop=0)
            # Checkpoint entries read as records at t1; activities are later.
            logged = events.time > group.t1
            if gi == 0 and not logged.all():
                raise StorageError(
                    f"store at {self.path} checkpoints edges at its "
                    "first group boundary; streaming requires a "
                    "full-history store (compaction always writes one)"
                )
            kind = events.kind[logged]
            weight = events.weight[logged]
            weight[kind == ActivityKind.DEL_EDGE] = np.nan  # stored as 1.0
            parts.append(
                make_records(
                    kind,
                    events.src[logged],
                    events.dst[logged],
                    events.time[logged],
                    weight,
                )
            )
        base = log_columns(np.concatenate(parts))
        self._head = TemporalGraphBuilder(strict=False, after=base)
        report.base_records = len(self._head)
        self._num_vertices_floor = int(store.num_vertices)

    # ------------------------------------------------------------------ #
    # the write path

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently acked WAL frame."""
        return self._last_seq

    @property
    def generation(self) -> int:
        """How many compactions have committed for this directory."""
        return self._generation

    @property
    def num_activities(self) -> int:
        return len(self._head)

    @property
    def last_time(self) -> Time:
        return self._head.last_time

    def append(self, activities: Sequence[Activity]) -> int:
        """Durably append one batch of activities; returns its sequence.

        The batch is pre-validated *before* any byte reaches the WAL —
        ids and times must fit the record format
        (:class:`~repro.errors.StorageError`), times must not decrease
        within the batch nor start before the head's last time — so a
        rejected batch changes nothing anywhere.
        Once the WAL write returns, the batch is durable under the
        configured fsync policy and applied to the in-memory head.
        """
        records = walmod.encode(list(activities))
        if not records.shape[0]:
            return self._last_seq
        times = np.concatenate(([self._head.last_time], records["time"]))
        late = np.flatnonzero(times[1:] < times[:-1])
        if late.shape[0]:
            raise TemporalGraphError(
                f"activity at time {times[late[0] + 1]} appended after "
                f"time {times[late[0]]}; batches must be time-ordered"
            )
        seq = self._wal.append(records)
        # Past this point the batch is durable; the head must follow.
        # strict=False + the time pre-check above make this infallible
        # (redundant adds/deletes degrade to mod/no-op).
        self._head.extend(records)
        self._last_seq = seq
        return seq

    def sync(self) -> None:
        """Force every acked append to stable storage (any policy)."""
        self._wal.sync()

    # ------------------------------------------------------------------ #
    # reads

    def graph(self) -> TemporalGraph:
        """The full logical temporal graph (base + head).

        The first call after an open builds the whole log; every later
        one extends the last graph's log with the records appended since
        (:func:`~repro.temporal.columns.log_columns` with ``after``), so
        a read after an append sorts about what the append brought.
        """
        logged = len(self._head)
        if logged == 0:
            raise StorageError(
                f"streaming store at {self.path} is empty; append "
                "activities before reading"
            )
        graph = self._graph_cache
        if graph is None or self._graph_records < logged:
            columns = log_columns(
                self._head.records(self._graph_records),
                after=None if graph is None else graph.columns(),
            )
            graph = TemporalGraph.from_columns(columns)
            if self._num_vertices_floor > graph.num_vertices:
                graph = TemporalGraph.from_columns(
                    columns, self._num_vertices_floor
                )
            self._graph_cache, self._graph_records = graph, logged
        return graph

    def series(self, times: Sequence[Time]) -> SnapshotSeriesView:
        """A snapshot series over the current head, for the engine.

        Its group fingerprints are content-only (exact — they digest
        every array the engine consumes), so across append batches the
        unchanged prefix groups keep their cache identity and
        ``EngineConfig(reuse="incremental")`` refreshes only the groups
        whose content actually moved.
        """
        return self.graph().series(times)

    def fingerprint(self) -> str:
        """Logical content fingerprint: the canonical activity log.

        Equal iff the stores would hand the engine identical inputs —
        the recovery acceptance identity ("recovering twice yields the
        same store fingerprint"). Independent of *where* activities
        live (base vs WAL), so it is stable across compaction too.
        """
        graph = self.graph()
        return digest_bytes(
            f"v{graph.num_vertices}:".encode("ascii"),
            graph.columns().records.tobytes(),
        )

    # ------------------------------------------------------------------ #
    # compaction

    def compact(self) -> Dict[str, Any]:
        """Fold the head into a fresh base store, atomically.

        On return the manifest references the new generation, the WAL is
        empty, and a crash at *any* interior instant (see
        :mod:`repro.streaming.compact`) recovers to either the old or
        the new store — never a mixture.
        """
        graph = self.graph()
        generation = self._generation + 1
        self._wal.sync()
        manifest = compact_to(
            self.path,
            graph,
            generation,
            absorbed_seq=self._last_seq,
            redundancy_ratio=self.redundancy_ratio,
            max_groups=self.max_groups,
        )
        # The manifest swap committed: absorbed frames are now redundant
        # (replay would skip them via wal_seq) — drop them.
        self._manifest = manifest
        self._generation = generation
        self._wal_seq = self._last_seq
        self._wal.reset()
        return manifest

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        self._wal.close()

    def __enter__(self) -> "StreamingStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
