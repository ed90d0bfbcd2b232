"""The temporal graph store: a directory of snapshot groups + manifest."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import StorageError
from repro.obs import runtime as obs
from repro.storage import format as fmt
from repro.storage.atomic import atomic_write_json, atomic_write_via
from repro.storage.edge_file import EdgeFile, write_edge_file
from repro.storage.snapshot_group import SnapshotGroup
from repro.temporal.activity import Activity, ActivityKind
from repro.temporal.bitmap import MAX_SNAPSHOTS
from repro.temporal.graph import TemporalGraph
from repro.temporal.reconstruct import (
    first_of_edge,
    first_touch_times,
    vertex_liveness,
)
from repro.types import Time

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class StoreConfig:
    """How a :class:`TemporalGraphStore` is opened.

    ``mmap`` is the explicit out-of-core switch: ``True`` maps every
    group's edge file read-only via ``np.memmap`` (segment reads become
    page-cache-backed slices, no eager copy into RAM), ``False`` keeps
    the classic per-access file reads, and ``None`` — the default —
    defers the decision to ``memory_budget_bytes``: a store whose summed
    edge-file bytes exceed the budget opens memory-mapped, a smaller one
    opens eagerly. Both modes share one read/validation path, so values,
    counters, and integrity errors are identical either way.
    """

    mmap: Optional[bool] = None
    memory_budget_bytes: Optional[int] = None

    def resolve_mmap(self, total_bytes: int) -> bool:
        if self.mmap is not None:
            return self.mmap
        if self.memory_budget_bytes is not None:
            return total_bytes > self.memory_budget_bytes
        return False


def check_vertex_count(edge_file: EdgeFile, num_vertices: Any) -> None:
    """Refuse an edge file whose header disagrees with the manifest's
    ``num_vertices``, which sizes every array a series load allocates."""
    if edge_file.num_vertices != num_vertices:
        raise StorageError(
            f"edge file {edge_file.path} holds {edge_file.num_vertices} "
            f"vertices; the store manifest says {num_vertices}"
        )


def group_entries(
    graph: TemporalGraph,
    edge_files: Sequence[str],
    boundaries: Sequence[Sequence[Time]],
) -> List[Dict[str, Any]]:
    """The manifest's ``groups`` list for ``boundaries`` of ``graph``.

    Per group: its edge file, ``[t1, t2]``, the vertices live at ``t1``
    (the vertex half of the checkpoint) and the explicit vertex records
    in ``(t1, t2]``. Liveness at every group start comes from the series
    kernel's :func:`vertex_liveness`, one call per ``MAX_SNAPSHOTS``
    starts; the records are a ``searchsorted`` slice of the log's columns.
    """
    columns = graph.columns()
    V = graph.num_vertices
    bounds = np.asarray(boundaries, dtype=np.int64)
    first_touch = first_touch_times(V, [columns.events])
    live: List[List[int]] = []
    for begin in range(0, bounds.shape[0], MAX_SNAPSHOTS):
        starts = bounds[begin : begin + MAX_SNAPSHOTS, 0]
        bitmap = vertex_liveness(
            V,
            starts,
            columns.vertex,
            columns.vertex_time,
            columns.vertex_add,
            first_touch,
        )
        for bit in range(starts.shape[0]):
            at_start = (bitmap >> np.uint64(bit)) & np.uint64(1)
            live.append(np.flatnonzero(at_start).tolist())
    kinds = np.where(
        columns.vertex_add, ActivityKind.ADD_VERTEX, ActivityKind.DEL_VERTEX
    )
    records = [
        {"time": time, "kind": kind, "vertex": vertex}
        for time, kind, vertex in zip(
            columns.vertex_time.tolist(), kinds.tolist(), columns.vertex.tolist()
        )
    ]
    cuts = np.searchsorted(columns.vertex_time, bounds, side="right").tolist()
    return [
        {
            "edge_file": name,
            "t1": t1,
            "t2": t2,
            "live_vertices_at_start": live_at_start,
            "vertex_activities": records[lo:hi],
        }
        for name, (t1, t2), live_at_start, (lo, hi) in zip(
            edge_files, boundaries, live, cuts
        )
    ]


class TemporalGraphStore:
    """A series of snapshot groups of successive time ranges (Section 4.1).

    ``create`` splits a temporal graph into groups under a **redundancy
    ratio** ``r``: a group is closed (and the next one opens with a fresh
    checkpoint) once its accumulated activity bytes exceed
    ``checkpoint_bytes * (1 - r) / r`` — so checkpoints (the redundant
    data) never exceed fraction ``r`` of the stored bytes. ``r -> 1``
    degenerates to checkpoint-per-update; ``r -> 0`` to a single log.
    """

    def __init__(
        self, path: Path, config: Optional[StoreConfig] = None
    ) -> None:
        self.path = Path(path)
        self.config = config or StoreConfig()
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.exists():
            raise StorageError(f"no manifest at {manifest_path}")
        try:
            with open(manifest_path) as fh:
                self._manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StorageError(
                f"corrupt store manifest at {manifest_path}: {exc}"
            ) from exc
        try:
            self.num_vertices: int = self._manifest["num_vertices"]
            entries: List[Dict[str, Any]] = self._manifest["groups"]
        except (KeyError, TypeError) as exc:
            raise StorageError(
                f"store manifest at {manifest_path} is missing required "
                f"fields: {exc}"
            ) from exc
        # Resolve out-of-core mode from file sizes *before* opening any
        # group, so a store past the memory budget is never loaded eagerly.
        total_bytes = 0
        for entry in entries:
            edge_path = self.path / entry["edge_file"]
            if not edge_path.exists():
                raise StorageError(
                    f"store manifest at {manifest_path} lists the edge file "
                    f"{edge_path}, which does not exist"
                )
            total_bytes += edge_path.stat().st_size
        self.mmap: bool = self.config.resolve_mmap(total_bytes)
        obs.gauge("storage.store_bytes", float(total_bytes))
        obs.gauge("storage.store_mmap", 1.0 if self.mmap else 0.0)
        self._groups: List[SnapshotGroup] = []
        with obs.span(
            "phase",
            "load",
            {
                "op": "open_store",
                "groups": len(entries),
                "mmap": self.mmap,
            },
        ):
            for entry in entries:
                vertex_acts = [
                    Activity(
                        time=a["time"],
                        kind=ActivityKind(a["kind"]),
                        src=a["vertex"],
                    )
                    for a in entry["vertex_activities"]
                ]
                group = SnapshotGroup.open(
                    self.path / entry["edge_file"],
                    set(entry["live_vertices_at_start"]),
                    vertex_acts,
                    mmap=self.mmap,
                )
                check_vertex_count(group.edge_file, self.num_vertices)
                self._groups.append(group)

    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        path: Path,
        graph: TemporalGraph,
        redundancy_ratio: float = 0.5,
        max_groups: Optional[int] = None,
    ) -> "TemporalGraphStore":
        """Persist ``graph`` as snapshot groups under ``path``."""
        if not 0.0 < redundancy_ratio <= 1.0:
            raise StorageError(
                f"redundancy ratio must be in (0, 1], got {redundancy_ratio}"
            )
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        t0, t_end = graph.time_range

        boundaries = cls._plan_groups(graph, redundancy_ratio, max_groups)
        names = [f"edges_{gi:04d}.chronos" for gi in range(len(boundaries))]
        for edge_name, (g1, g2) in zip(names, boundaries):
            # Publish each group atomically: a crash mid-create leaves at
            # worst a stale tmp sibling, never a torn edge file a later
            # open would misread as truncation/corruption.
            atomic_write_via(
                path / edge_name,
                lambda tmp, g1=g1, g2=g2: write_edge_file(tmp, graph, g1, g2),
                tag="create",
            )
        manifest = {
            "num_vertices": graph.num_vertices,
            "time_range": [t0, t_end],
            "redundancy_ratio": redundancy_ratio,
            "groups": group_entries(graph, names, boundaries),
        }
        # The manifest is the commit point of the whole store; it must
        # never be observable half-written.
        atomic_write_json(path / MANIFEST_NAME, manifest, tag="create")
        return cls(path)

    @staticmethod
    def _plan_groups(
        graph: TemporalGraph,
        redundancy_ratio: float,
        max_groups: Optional[int],
    ) -> List[List[Time]]:
        """Choose group boundaries under the redundancy-ratio rule.

        A group's budget is fixed by the number of edges live at its
        first edge record (its checkpoint size); it closes at the first
        record that takes its activity bytes past the budget and is later
        than its start. Both are read off the log's columns, one step per
        group.
        """
        t0, t_end = graph.time_range
        columns = graph.columns()
        events = columns.events
        # Live edges before each record: prefix sum of the transitions of
        # the per-record live flag along each edge's chain.
        order = columns.edge_order
        live = columns.live[order]
        continues = ~first_of_edge(events.src[order], events.dst[order])
        step = live.astype(np.int64)
        step[1:] -= live[:-1] & continues[1:]
        transition = np.empty_like(step)
        transition[order] = step
        live_before = np.cumsum(transition) - transition

        boundaries: List[List[Time]] = []
        group_start = t0 - 1  # group checkpoints taken at t1 (exclusive deltas)
        first = 0  # the group's first edge record
        while first < events.time.shape[0]:
            cp_bytes = max(int(live_before[first]), 1) * fmt.CHECKPOINT_ENTRY_SIZE
            budget = cp_bytes * (1.0 - redundancy_ratio) / redundancy_ratio
            # Fewest records whose activity bytes exceed the budget.
            records = int(budget // fmt.ACTIVITY_SIZE) + 1
            later = int(np.searchsorted(events.time, group_start, side="right"))
            close = max(first + records - 1, later)
            if close >= events.time.shape[0]:
                break
            boundaries.append([group_start, int(events.time[close])])
            group_start = boundaries[-1][1]
            first = close + 1
        if group_start < t_end or not boundaries:
            boundaries.append([group_start, t_end])
        if max_groups is not None and len(boundaries) > max_groups:
            # Merge the smallest adjacent ranges until under the cap.
            while len(boundaries) > max_groups:
                merged = boundaries.pop(1)
                boundaries[0][1] = merged[1]
        return boundaries

    # ------------------------------------------------------------------ #

    @property
    def groups(self) -> List[SnapshotGroup]:
        return list(self._groups)

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    def group_index(self, t: Time) -> int:
        """Index of the snapshot group that owns time ``t``.

        The first group whose ``[t1, t2]`` contains ``t``; the last group
        for times past its end (the graph no longer changes there); ``-1``
        for times before the first group, which precede all history.
        """
        if not self._groups:
            raise StorageError(f"store at {self.path} has no snapshot groups")
        for i, group in enumerate(self._groups):
            if group.contains(t):
                return i
        if t > self._groups[-1].t2:
            return len(self._groups) - 1
        if t < self._groups[0].t1:
            return -1
        raise StorageError(f"no snapshot group covers time {t}")

    def group_for(self, t: Time) -> SnapshotGroup:
        """The snapshot group whose time range contains ``t``."""
        index = self.group_index(t)
        if index < 0:
            raise StorageError(f"no snapshot group covers time {t}")
        return self._groups[index]

    def total_bytes(self) -> int:
        return sum(g.edge_file.size_bytes() for g in self._groups)

    def group_fingerprints(self) -> List[str]:
        """Per-group stored-CRC fingerprints (see ``EdgeFile.fingerprint``)."""
        return [g.edge_file.fingerprint() for g in self._groups]

    def fingerprint(self) -> str:
        """Store-level content fingerprint: manifest + every group's digest.

        The store's identity for fsck, the CLI and integrity probes
        (result-cache keys digest group content instead). Derived from the
        edge files' stored per-section CRC32s, so computing it reads only
        headers, indexes, and segment trailers — never segment data.
        """
        from repro.cache.fingerprint import combine_digests, digest_bytes

        manifest = digest_bytes(
            json.dumps(self._manifest, sort_keys=True).encode("utf-8")
        )
        return combine_digests([manifest, *self.group_fingerprints()])

    def verify(self) -> int:
        """Integrity-check every group's edge file; returns segments checked.

        Propagates the readers' typed errors
        (:class:`~repro.errors.IntegrityError` /
        :class:`~repro.errors.StorageError` naming the corrupt section), so
        a damaged store is caught before a multi-hour run consumes it.
        """
        return sum(g.edge_file.verify() for g in self._groups)
