"""Validated construction of temporal graphs.

:class:`TemporalGraphBuilder` is the convenient way to assemble an activity
log by hand or from a generator. It checks per-edge consistency as records
are appended (no deleting an edge that is not live, no double-add) and emits
an immutable :class:`~repro.temporal.graph.TemporalGraph`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.errors import TemporalGraphError
from repro.temporal.activity import (
    Activity,
    ActivityKind,
    add_edge,
    add_vertex,
    del_edge,
    del_vertex,
    mod_edge,
)
from repro.temporal.columns import RECORD, LogColumns, log_columns, make_records
from repro.temporal.graph import TemporalGraph
from repro.types import EdgeKey, Time, VertexId, Weight

_ADD_VERTEX = int(ActivityKind.ADD_VERTEX)
_ADD_EDGE = int(ActivityKind.ADD_EDGE)
_DEL_EDGE = int(ActivityKind.DEL_EDGE)
_MOD_EDGE = int(ActivityKind.MOD_EDGE)


class TemporalGraphBuilder:
    """Incrementally build a :class:`TemporalGraph` from activities.

    Activities must be appended in non-decreasing time order (the natural
    order in which a log is produced). ``strict=False`` relaxes the per-edge
    consistency checks, turning redundant adds/deletes into no-op records —
    useful when ingesting noisy real-world event streams such as repeated
    mentions in a Twitter-like graph. ``after`` continues an existing log,
    which is taken as it is.
    """

    def __init__(
        self, strict: bool = True, after: Optional[LogColumns] = None
    ) -> None:
        #: The log so far, one list per :data:`RECORD` field.
        self._columns: List[list] = [[] for _ in RECORD.names]
        self._edge_live: Dict[EdgeKey, bool] = {}
        self._vertex_live: Dict[VertexId, bool] = {}
        self._last_time: Time = 0
        self._strict = strict
        if after is not None and after.time.shape[0]:
            self._columns = [after.records[name].tolist() for name in RECORD.names]
            # In replay order, so each key ends on its latest record.
            events = after.events
            edges = zip(events.src.tolist(), events.dst.tolist())
            self._edge_live = dict(zip(edges, after.live.tolist()))
            self._vertex_live = dict(
                zip(after.vertex.tolist(), after.vertex_add.tolist())
            )
            self._last_time = int(after.time[-1])

    def __len__(self) -> int:
        return len(self._columns[0])

    @property
    def last_time(self) -> Time:
        """The latest appended timestamp (0 on an empty log).

        The streaming head uses this to pre-validate an append batch's
        times before any record reaches the WAL, so a rejected batch
        leaves both the log and the in-memory head untouched.
        """
        return self._last_time

    def add_vertex(self, v: VertexId, t: Time) -> "TemporalGraphBuilder":
        """Record an explicit vertex addition at time ``t``."""
        return self.append(add_vertex(v, t))

    def del_vertex(self, v: VertexId, t: Time) -> "TemporalGraphBuilder":
        """Record a vertex deletion at time ``t``.

        Edges incident to a deleted vertex are considered absent from
        snapshots while the vertex is dead (endpoint-liveness rule), so no
        cascading edge deletes are emitted.
        """
        return self.append(del_vertex(v, t))

    def add_edge(
        self, u: VertexId, v: VertexId, t: Time, weight: Weight = 1.0
    ) -> "TemporalGraphBuilder":
        """Record an edge addition ``(u, v)`` at time ``t``.

        In non-strict mode, re-adding a live edge is recorded as a weight
        modification instead (the mention-graph interpretation).
        """
        return self.append(add_edge(u, v, t, weight))

    def del_edge(self, u: VertexId, v: VertexId, t: Time) -> "TemporalGraphBuilder":
        """Record an edge deletion ``(u, v)`` at time ``t``."""
        return self.append(del_edge(u, v, t))

    def mod_edge(
        self, u: VertexId, v: VertexId, t: Time, weight: Weight
    ) -> "TemporalGraphBuilder":
        """Record a weight modification of a live edge ``(u, v)``."""
        return self.append(mod_edge(u, v, t, weight))

    def append(self, activity: Activity) -> "TemporalGraphBuilder":
        """Append one record, applying the per-vertex / per-edge checks.

        The record is logged as it is, except that a ``delE`` loses its
        weight, and in non-strict mode re-adding a live edge is logged as
        a ``modE`` and a delete or modification of a dead edge is dropped.
        """
        weight = activity.weight
        self._log(
            int(activity.kind),
            activity.src,
            activity.dst,
            activity.time,
            math.nan if weight is None else weight,
        )
        return self

    def extend(self, records: np.ndarray) -> None:
        """:meth:`append` every row of a :data:`RECORD` array, in order."""
        for row in records.tolist():
            self._log(*row)

    def _log(
        self, kind: int, src: VertexId, dst: VertexId, t: Time, weight: Weight
    ) -> None:
        if t < self._last_time:
            raise TemporalGraphError(
                f"activity at time {t} appended after time {self._last_time}; "
                "activities must be appended in non-decreasing time order"
            )
        self._last_time = t
        if kind < _ADD_EDGE:
            adding = kind == _ADD_VERTEX
            if self._strict and self._vertex_live.get(src, False) == adding:
                state = "already live" if adding else "not live"
                raise TemporalGraphError(f"vertex {src} {state} at time {t}")
            self._vertex_live[src] = adding
        else:
            key = (src, dst)
            live = self._edge_live.get(key, False)
            if kind == _ADD_EDGE:
                if live:
                    if self._strict:
                        raise TemporalGraphError(
                            f"edge {key} already live at time {t}"
                        )
                    kind = _MOD_EDGE
                self._edge_live[key] = True
            elif not live:
                if self._strict:
                    raise TemporalGraphError(f"edge {key} not live at time {t}")
                return
            elif kind == _DEL_EDGE:
                self._edge_live[key] = False
                # A delete's weight has no meaning, and the store does not
                # keep one: log none, so every path reads the same record.
                weight = math.nan
        kinds, srcs, dsts, times, weights = self._columns
        kinds.append(kind)
        srcs.append(src)
        dsts.append(dst)
        times.append(t)
        weights.append(weight)

    def records(self, start: int = 0) -> np.ndarray:
        """The logged records from the ``start``-th on, as one :data:`RECORD`
        array in the order they were logged."""
        return make_records(*(column[start:] for column in self._columns))

    def build(self, num_vertices: Optional[int] = None) -> TemporalGraph:
        """Freeze the log into an immutable :class:`TemporalGraph`."""
        return TemporalGraph.from_columns(log_columns(self.records()), num_vertices)
