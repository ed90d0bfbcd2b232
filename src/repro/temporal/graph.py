"""The temporal graph: an immutable, time-ordered activity log with queries.

Semantics (documented here once, relied on everywhere else):

- An edge ``(u, v)`` is *live* at time ``t`` when the latest ``addE``/``delE``
  record for that pair at or before ``t`` is an ``addE``, **and** both
  endpoints are live at ``t``.
- A vertex is live at ``t`` when the latest explicit ``addV``/``delV`` record
  at or before ``t`` is an ``addV``; vertices with no explicit record at or
  before ``t`` are *implicitly* live from the time of their first incident
  edge activity (this matches real-world mention/hyperlink graphs, which
  rarely carry explicit vertex records).
- ``modE`` changes the weight of a live edge without affecting liveness.
- The weight of a live edge at ``t`` is the payload of the latest
  ``addE``/``modE`` at or before ``t``.
- Activities sharing a timestamp apply in kind order (vertex adds, vertex
  deletes, edge adds, edge deletes, edge mods — the
  :class:`~repro.temporal.activity.Activity` ordering), ties broken by
  endpoint ids; every consumer of the log (series reconstruction, the
  on-disk store, point queries) replays this one canonical order.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TemporalGraphError
from repro.temporal.activity import Activity, ActivityKind
from repro.temporal.columns import LogColumns, log_columns
from repro.types import EdgeKey, Time, VertexId, Weight


class TemporalGraph:
    """An immutable temporal graph backed by a sorted activity log."""

    def __init__(
        self,
        activities: Iterable[Activity],
        num_vertices: Optional[int] = None,
    ) -> None:
        self._activities: Tuple[Activity, ...] = tuple(sorted(activities))
        self._columns: Optional[LogColumns] = None
        max_vid = -1
        for a in self._activities:
            max_vid = max(max_vid, a.src, a.dst)
        inferred = max_vid + 1
        if num_vertices is None:
            num_vertices = inferred
        elif num_vertices < inferred:
            raise TemporalGraphError(
                f"num_vertices={num_vertices} but activities reference "
                f"vertex {max_vid}"
            )
        self._num_vertices = num_vertices
        self._edge_events: Dict[EdgeKey, List[Activity]] = {}
        self._vertex_events: Dict[VertexId, List[Activity]] = {}
        self._first_touch: Dict[VertexId, Time] = {}
        for a in self._activities:
            if a.is_edge_activity:
                self._edge_events.setdefault((a.src, a.dst), []).append(a)
                for v in (a.src, a.dst):
                    self._first_touch.setdefault(v, a.time)
            else:
                self._vertex_events.setdefault(a.src, []).append(a)
                self._first_touch.setdefault(a.src, a.time)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Size of the (dense) vertex id space."""
        return self._num_vertices

    @property
    def activities(self) -> Sequence[Activity]:
        """The full, time-sorted activity log."""
        return self._activities

    def columns(self) -> LogColumns:
        """The log as NumPy columns, converted on first use and kept.

        The one conversion every columnar consumer shares — series
        reconstruction and the store writer (see
        :mod:`repro.temporal.columns`).
        """
        if self._columns is None:
            self._columns = log_columns(self._activities, self._num_vertices)
        return self._columns

    @property
    def num_activities(self) -> int:
        return len(self._activities)

    @property
    def num_edge_keys(self) -> int:
        """Number of distinct ``(src, dst)`` pairs ever touched by the log."""
        return len(self._edge_events)

    def edge_keys(self) -> Iterable[EdgeKey]:
        """All distinct ``(src, dst)`` pairs, in no particular order."""
        return self._edge_events.keys()

    @property
    def time_range(self) -> Tuple[Time, Time]:
        """``(first, last)`` activity timestamps. Raises on an empty log."""
        if not self._activities:
            raise TemporalGraphError("empty temporal graph has no time range")
        return self._activities[0].time, self._activities[-1].time

    # ------------------------------------------------------------------ #
    # Point-in-time state queries
    # ------------------------------------------------------------------ #

    def vertex_live_at(self, v: VertexId, t: Time) -> bool:
        """Apply the vertex-liveness rule documented in the module docstring."""
        events = self._vertex_events.get(v)
        if events:
            idx = bisect.bisect_right([e.time for e in events], t) - 1
            if idx >= 0:
                return events[idx].kind == ActivityKind.ADD_VERTEX
        first = self._first_touch.get(v)
        return first is not None and first <= t

    def edge_record_state_at(
        self, u: VertexId, v: VertexId, t: Time
    ) -> Optional[Weight]:
        """The edge's own state at ``t``, endpoint liveness *not* applied.

        The weight left by the latest ``addE``/``modE`` at or before ``t``
        when the latest ``addE``/``delE`` is an ``addE``, else ``None``.
        This is what a store checkpoint records: an edge whose endpoint is
        deleted at ``t`` must survive the checkpoint, because it shows
        again once the vertex is re-added.
        """
        events = self._edge_events.get((u, v))
        if not events:
            return None
        live = False
        weight: Weight = 1.0
        for a in events:
            if a.time > t:
                break
            if a.kind == ActivityKind.ADD_EDGE:
                live = True
                weight = a.weight if a.weight is not None else 1.0
            elif a.kind == ActivityKind.DEL_EDGE:
                live = False
            elif a.kind == ActivityKind.MOD_EDGE:
                weight = a.weight if a.weight is not None else weight
        return weight if live else None

    def edge_state_at(
        self, u: VertexId, v: VertexId, t: Time
    ) -> Optional[Weight]:
        """Return the edge weight at ``t``, or ``None`` if the edge is absent.

        This is the log-replay ground truth for the on-disk ``tu``-link scan
        (Section 4.2) and for snapshot reconstruction.
        """
        weight = self.edge_record_state_at(u, v, t)
        if weight is None:
            return None
        if not (self.vertex_live_at(u, t) and self.vertex_live_at(v, t)):
            return None
        return weight

    def edge_live_at(self, u: VertexId, v: VertexId, t: Time) -> bool:
        """True when edge ``(u, v)`` is live at time ``t``."""
        return self.edge_state_at(u, v, t) is not None

    def activities_between(self, t1: Time, t2: Time) -> List[Activity]:
        """All activities with ``t1 < time <= t2``, in time order."""
        lo, hi = np.searchsorted(self.columns().time, [t1, t2], side="right")
        return list(self._activities[lo:hi])

    def edge_events_for(self, u: VertexId, v: VertexId) -> Sequence[Activity]:
        """Time-sorted activities for one edge pair (may be empty)."""
        return tuple(self._edge_events.get((u, v), ()))

    def out_edge_events(self) -> Dict[VertexId, List[Activity]]:
        """Edge activities grouped by source vertex, each list time-sorted.

        This is the grouping the on-disk time-locality layout stores
        (Section 4.2: one segment per vertex).
        """
        grouped: Dict[VertexId, List[Activity]] = {}
        for a in self._activities:
            if a.is_edge_activity:
                grouped.setdefault(a.src, []).append(a)
        return grouped

    # ------------------------------------------------------------------ #
    # Snapshot extraction (delegated)
    # ------------------------------------------------------------------ #

    def snapshot_at(self, t: Time) -> "Snapshot":
        """Reconstruct the static graph at time ``t`` as a CSR snapshot."""
        from repro.temporal.snapshot import Snapshot

        return Snapshot.from_temporal_graph(self, t)

    def series(self, times: Sequence[Time]) -> "SnapshotSeriesView":
        """Reconstruct a series of snapshots into the shared-edge-array view."""
        from repro.temporal.series import build_series

        return build_series(self, times)

    def evenly_spaced_times(
        self, n: int, start_fraction: float = 0.5
    ) -> List[Time]:
        """Pick ``n`` snapshot times the way the paper's evaluation does.

        Section 6.1: "we equally divide the second half of the entire time
        range by N ... The first snapshot is chosen in the middle of the
        entire time range". ``start_fraction`` generalises "the middle".
        """
        if n <= 0:
            raise TemporalGraphError(f"need at least one snapshot, got {n}")
        t0, t1 = self.time_range
        start = t0 + (t1 - t0) * start_fraction
        if n == 1:
            return [int(t1)]
        step = (t1 - start) / (n - 1)
        return [int(round(start + i * step)) for i in range(n)]
