"""Validated construction of temporal graphs.

:class:`TemporalGraphBuilder` is the convenient way to assemble an activity
log by hand or from a generator. It checks per-edge consistency as records
are appended (no deleting an edge that is not live, no double-add) and emits
an immutable :class:`~repro.temporal.graph.TemporalGraph`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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
from repro.temporal.graph import TemporalGraph
from repro.types import EdgeKey, Time, VertexId, Weight


class TemporalGraphBuilder:
    """Incrementally build a :class:`TemporalGraph` from activities.

    Activities must be appended in non-decreasing time order (the natural
    order in which a log is produced). ``strict=False`` relaxes the per-edge
    consistency checks, turning redundant adds/deletes into no-op records —
    useful when ingesting noisy real-world event streams such as repeated
    mentions in a Twitter-like graph.
    """

    def __init__(self, strict: bool = True) -> None:
        self._activities: List[Activity] = []
        self._edge_live: Dict[EdgeKey, bool] = {}
        self._vertex_live: Dict[VertexId, bool] = {}
        self._last_time: Time = 0
        self._strict = strict

    def __len__(self) -> int:
        return len(self._activities)

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
        if not self._strict and self._edge_live.get((u, v), False):
            # Build the modE directly rather than an addE for append()
            # to rewrite: mention-style streams are mostly re-adds.
            return self.append(mod_edge(u, v, t, weight))
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

        The caller's (frozen) record is kept as it is, except that in
        non-strict mode re-adding a live edge is recorded as a ``modE``
        and a delete or modification of a dead edge is dropped.
        """
        t = activity.time
        if t < self._last_time:
            raise TemporalGraphError(
                f"activity at time {t} appended after time {self._last_time}; "
                "activities must be appended in non-decreasing time order"
            )
        self._last_time = t
        kind = activity.kind
        if kind == ActivityKind.ADD_VERTEX or kind == ActivityKind.DEL_VERTEX:
            v = activity.src
            adding = kind == ActivityKind.ADD_VERTEX
            if self._strict and self._vertex_live.get(v, False) == adding:
                state = "already live" if adding else "not live"
                raise TemporalGraphError(f"vertex {v} {state} at time {t}")
            self._vertex_live[v] = adding
        else:
            key = (activity.src, activity.dst)
            live = self._edge_live.get(key, False)
            if kind == ActivityKind.ADD_EDGE:
                if live:
                    if self._strict:
                        raise TemporalGraphError(
                            f"edge {key} already live at time {t}"
                        )
                    weight = activity.weight
                    activity = mod_edge(
                        *key, t, 1.0 if weight is None else weight
                    )
                self._edge_live[key] = True
            elif not live:
                if self._strict:
                    raise TemporalGraphError(f"edge {key} not live at time {t}")
                return self
            elif kind == ActivityKind.DEL_EDGE:
                self._edge_live[key] = False
        self._activities.append(activity)
        return self

    def build(self, num_vertices: Optional[int] = None) -> TemporalGraph:
        """Freeze the log into an immutable :class:`TemporalGraph`."""
        return TemporalGraph(self._activities, num_vertices=num_vertices)
