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

import weakref
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import TemporalGraphError
from repro.temporal.activity import Activity, ActivityKind
from repro.temporal.columns import (
    LogColumns,
    activities_of,
    log_columns,
    records_of,
)
from repro.temporal.reconstruct import first_of_edge, first_touch_times
from repro.types import EdgeKey, Time, VertexId, Weight

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.temporal.series import SnapshotSeriesView
    from repro.temporal.snapshot import Snapshot


class Lineage(NamedTuple):
    """What a graph whose log extends another graph's log keeps of it.

    ``series`` is the most recent series built from the older log, held
    weakly; ``t_new`` is the earliest time the extension added records
    at. By the semantics above the two logs agree on every state before
    ``t_new``, so :func:`~repro.temporal.series.build_series` can adopt
    the older series' group views that end before it.
    """

    series: "weakref.ReferenceType[SnapshotSeriesView]"
    t_new: Time


class TemporalGraph:
    """An immutable temporal graph: one :class:`LogColumns` and a vertex count.

    ``TemporalGraph(activities)`` is the API-edge constructor and converts
    the records once; producers that already hold columns use
    :meth:`from_columns`.

    Besides its log a graph remembers, weakly, the most recent series
    built from it (``latest_series``, set by
    :func:`~repro.temporal.series.build_series`) and, when its log
    extends another graph's (:meth:`extends`), that graph's
    :class:`Lineage`. Neither changes any state the graph answers for.
    """

    def __init__(
        self,
        activities: Iterable[Activity],
        num_vertices: Optional[int] = None,
    ) -> None:
        self._adopt(log_columns(records_of(list(activities))), num_vertices)

    @classmethod
    def from_columns(
        cls, columns: LogColumns, num_vertices: Optional[int] = None
    ) -> "TemporalGraph":
        """The graph whose log is ``columns`` (kept, not copied)."""
        graph = cls.__new__(cls)
        graph._adopt(columns, num_vertices)
        return graph

    def _adopt(self, columns: LogColumns, num_vertices: Optional[int]) -> None:
        self._columns = columns
        records = columns.records
        max_vid = -1
        if records.shape[0]:
            max_vid = max(int(records["src"].max()), int(records["dst"].max()))
        if num_vertices is None:
            num_vertices = max_vid + 1
        elif num_vertices <= max_vid:
            raise TemporalGraphError(
                f"num_vertices={num_vertices} but activities reference "
                f"vertex {max_vid}"
            )
        self._num_vertices = num_vertices
        self.lineage: Optional[Lineage] = None
        self.latest_series: Optional[
            "weakref.ReferenceType[SnapshotSeriesView]"
        ] = None

    def extends(self, parent: "TemporalGraph", t_new: Time) -> None:
        """Record that this log is ``parent``'s plus records from ``t_new`` on.

        The lineage holds ``parent``'s most recent series; when none was
        built from ``parent`` it keeps ``parent``'s own lineage, with the
        earlier of the two times.
        """
        if parent.latest_series is not None:
            self.lineage = Lineage(parent.latest_series, t_new)
        elif parent.lineage is not None:
            self.lineage = Lineage(
                parent.lineage.series, min(parent.lineage.t_new, t_new)
            )

    def __getstate__(self) -> dict:
        # Weak references do not pickle: a copy starts with no series.
        state = dict(self.__dict__)
        state["lineage"] = state["latest_series"] = None
        return state

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Size of the (dense) vertex id space."""
        return self._num_vertices

    @cached_property
    def activities(self) -> Sequence[Activity]:
        """The full, time-sorted activity log, materialised on first use."""
        return activities_of(self._columns.records)

    def columns(self) -> LogColumns:
        """The log itself: the arrays every columnar consumer shares.

        Series reconstruction and the store writer read these (see
        :mod:`repro.temporal.columns`).
        """
        return self._columns

    @property
    def num_activities(self) -> int:
        return int(self._columns.time.shape[0])

    @cached_property
    def _edge_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` of the edge records in ``edge_order``: the sorted
        key the point queries search."""
        events, order = self._columns.events, self._columns.edge_order
        return events.src[order], events.dst[order]

    def _edge_rows(self, u: VertexId, v: VertexId) -> np.ndarray:
        """Rows of ``columns().events`` on edge ``(u, v)``, in replay order."""
        src, dst = self._edge_index
        lo, hi = np.searchsorted(src, [u, u + 1])
        first, last = lo + np.searchsorted(dst[lo:hi], [v, v + 1])
        return self._columns.edge_order[first:last]

    @property
    def num_edge_keys(self) -> int:
        """Number of distinct ``(src, dst)`` pairs ever touched by the log."""
        return int(first_of_edge(*self._edge_index).sum())

    def edge_keys(self) -> Iterable[EdgeKey]:
        """All distinct ``(src, dst)`` pairs, in no particular order."""
        src, dst = self._edge_index
        first = first_of_edge(src, dst)
        return list(zip(src[first].tolist(), dst[first].tolist()))

    @property
    def time_range(self) -> Tuple[Time, Time]:
        """``(first, last)`` activity timestamps. Raises on an empty log."""
        time = self._columns.time
        if not time.shape[0]:
            raise TemporalGraphError("empty temporal graph has no time range")
        return int(time[0]), int(time[-1])

    # ------------------------------------------------------------------ #
    # Point-in-time state queries
    # ------------------------------------------------------------------ #

    @cached_property
    def first_touch(self) -> np.ndarray:
        """``(V,)`` time of each vertex's first incident edge record."""
        return first_touch_times(self._num_vertices, [self._columns.events])

    def vertex_live_at(self, v: VertexId, t: Time) -> bool:
        """Apply the vertex-liveness rule documented in the module docstring."""
        columns = self._columns
        rows = np.flatnonzero(columns.vertex == v)
        before = int(np.searchsorted(columns.vertex_time[rows], t, side="right"))
        if before:
            return bool(columns.vertex_add[rows[before - 1]])
        return 0 <= v < self._num_vertices and bool(self.first_touch[v] <= t)

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
        events = self._columns.events
        rows = self._edge_rows(u, v)
        live = False
        weight: Weight = 1.0
        for time, kind, payload in zip(
            events.time[rows].tolist(),
            events.kind[rows].tolist(),
            events.weight[rows].tolist(),
        ):
            if time > t:
                break
            if kind == ActivityKind.ADD_EDGE:
                live = True
                weight = payload
            elif kind == ActivityKind.DEL_EDGE:
                live = False
            elif kind == ActivityKind.MOD_EDGE:
                weight = payload
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
        lo, hi = np.searchsorted(self._columns.time, [t1, t2], side="right")
        return list(self.activities[lo:hi])

    def edge_events_for(self, u: VertexId, v: VertexId) -> Sequence[Activity]:
        """Time-sorted activities for one edge pair (may be empty)."""
        kind = self._columns.records["kind"]
        on_edge = np.flatnonzero(kind >= ActivityKind.ADD_EDGE)
        positions = on_edge[self._edge_rows(u, v)]
        return tuple(self.activities[i] for i in positions.tolist())

    def out_edge_events(self) -> Dict[VertexId, List[Activity]]:
        """Edge activities grouped by source vertex, each list time-sorted.

        This is the grouping the on-disk time-locality layout stores
        (Section 4.2: one segment per vertex).
        """
        grouped: Dict[VertexId, List[Activity]] = {}
        for a in self.activities:
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
