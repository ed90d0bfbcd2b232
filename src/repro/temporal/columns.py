"""The activity log as columns: the one log→columns conversion.

A :class:`~repro.temporal.graph.TemporalGraph` is immutable, so its log is
turned into NumPy columns at most once (:meth:`TemporalGraph.columns`
memoises the result) and every columnar consumer reads the same arrays:

- :func:`~repro.temporal.series.build_series` hands ``events`` and the
  explicit vertex records to the reconstruction kernel;
- the store writer (:func:`~repro.storage.edge_file.write_edge_file`,
  group planning and the manifest entries in :mod:`repro.storage.store`)
  slices them once per snapshot group.

Besides the records themselves the view carries what a per-group consumer
would otherwise recompute from the whole log for every group: the stable
``(src, dst)`` order of the edge records and, per edge record, whether the
edge is live after it and when the next record on the same edge happens.
With those, "the edge's state at ``t``" is no replay: it is the one record
of the edge with ``time <= t < next_time``, and the edge is present iff
that record's ``live`` flag is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.temporal.activity import Activity, ActivityKind
from repro.temporal.reconstruct import (
    EdgeEvents,
    chain_state,
    edge_order,
    first_of_edge,
)

__all__ = ["LogColumns", "log_columns"]


@dataclass(frozen=True)
class LogColumns:
    """One activity log, as columns in replay order.

    ``time`` covers every record of the log. ``events`` holds the edge
    records and ``vertex`` / ``vertex_time`` / ``vertex_add`` the explicit
    vertex records (``vertex_add`` true for ``addV``), each in replay
    order, so their time columns are non-decreasing and a time range is a
    ``np.searchsorted`` slice. ``edge_order``, ``live`` and ``next_time``
    are aligned with ``events``: the stable permutation sorting the edge
    records by ``(src, dst)``, "the edge is live after this record", and
    the time of the next record on the same edge
    (:data:`~repro.temporal.reconstruct.NEVER` for the last one).
    """

    time: np.ndarray  # int64, all records
    events: EdgeEvents
    vertex: np.ndarray  # int64
    vertex_time: np.ndarray  # int64
    vertex_add: np.ndarray  # bool
    edge_order: np.ndarray  # int64
    live: np.ndarray  # bool
    next_time: np.ndarray  # int64


def log_columns(
    activities: Sequence[Activity], num_vertices: int
) -> LogColumns:
    """Convert a replay-ordered activity log over ``num_vertices`` ids."""
    edge_acts = [a for a in activities if a.dst >= 0]
    vertex_acts = [a for a in activities if a.dst < 0]
    events = EdgeEvents(
        src=np.array([a.src for a in edge_acts], dtype=np.int64),
        dst=np.array([a.dst for a in edge_acts], dtype=np.int64),
        time=np.array([a.time for a in edge_acts], dtype=np.int64),
        kind=np.array([a.kind for a in edge_acts], dtype=np.uint8),
        weight=np.array(
            [1.0 if a.weight is None else a.weight for a in edge_acts],
            dtype=np.float64,
        ),
    )
    order = edge_order(events.src, events.dst, num_vertices)
    until, live_after = chain_state(
        first_of_edge(events.src[order], events.dst[order]),
        events.time[order],
        events.kind[order],
    )
    live = np.empty_like(live_after)
    live[order] = live_after
    next_time = np.empty_like(until)
    next_time[order] = until
    return LogColumns(
        time=np.array([a.time for a in activities], dtype=np.int64),
        events=events,
        vertex=np.array([a.src for a in vertex_acts], dtype=np.int64),
        vertex_time=np.array([a.time for a in vertex_acts], dtype=np.int64),
        vertex_add=np.array(
            [a.kind == ActivityKind.ADD_VERTEX for a in vertex_acts],
            dtype=np.bool_,
        ),
        edge_order=order,
        live=live,
        next_time=next_time,
    )
