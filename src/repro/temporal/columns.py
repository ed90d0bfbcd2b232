"""The activity log as columns: the one stored form of a log.

A :class:`~repro.temporal.graph.TemporalGraph` *is* a :class:`LogColumns`
plus a vertex count. The builder, the streaming head, the store loader and
the WAL all hold records as :data:`RECORD` arrays, :func:`log_columns`
turns one into the view every consumer reads:

- :func:`~repro.temporal.series.build_series` hands ``events`` and the
  explicit vertex records to the reconstruction kernel;
- the store writer (:func:`~repro.storage.edge_file.write_edge_file`,
  group planning and the manifest entries in :mod:`repro.storage.store`)
  slices them once per snapshot group.

:class:`~repro.temporal.activity.Activity` objects exist only at the API
edge: :func:`records_of` takes a caller's records apart once and
:func:`activities_of` builds them back for whoever asks to see them.

Besides the records themselves the view carries what a per-group consumer
would otherwise recompute from the whole log for every group: the stable
``(src, dst)`` order of the edge records and, per edge record, whether the
edge is live after it and when the next record on the same edge happens.
With those, "the edge's state at ``t``" is no replay: it is the one record
of the edge with ``time <= t < next_time``, and the edge is present iff
that record's ``live`` flag is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TemporalGraphError
from repro.temporal.activity import Activity, ActivityKind
from repro.temporal.reconstruct import (
    NEVER,
    EdgeEvents,
    chain_state,
    edge_order,
    first_of_edge,
)

__all__ = [
    "RECORD",
    "LogColumns",
    "activities_of",
    "log_columns",
    "make_records",
    "records_of",
]

#: One activity record. Packed, so an array's bytes are ``struct "<BIqqd"``
#: per record — the WAL's record encoding and what a store fingerprint
#: digests. ``dst = -1`` marks a vertex record, a NaN weight "no weight".
RECORD = np.dtype(
    [
        ("kind", "u1"),
        ("src", "<u4"),
        ("dst", "<i8"),
        ("time", "<i8"),
        ("weight", "<f8"),
    ]
)

_KINDS = tuple(ActivityKind)


@dataclass(frozen=True)
class LogColumns:
    """One activity log, as columns in replay order.

    ``records`` (:data:`RECORD`) and ``time`` cover every record of the
    log, in the canonical ``(time, kind, src, dst, weight)`` order.
    ``events`` holds the edge records (weight ``1.0`` where a record
    carries none) and ``vertex`` / ``vertex_time`` / ``vertex_add`` the
    explicit vertex records (``vertex_add`` true for ``addV``), each in
    replay order, so their time columns are non-decreasing and a time
    range is a ``np.searchsorted`` slice. ``edge_order``, ``live`` and
    ``next_time`` are aligned with ``events``: the stable permutation
    sorting the edge records by ``(src, dst)``, "the edge is live after
    this record", and the time of the next record on the same edge
    (:data:`~repro.temporal.reconstruct.NEVER` for the last one).
    """

    records: np.ndarray  # RECORD, all records
    time: np.ndarray  # int64, all records
    events: EdgeEvents
    vertex: np.ndarray  # int64
    vertex_time: np.ndarray  # int64
    vertex_add: np.ndarray  # bool
    edge_order: np.ndarray  # int64
    live: np.ndarray  # bool
    next_time: np.ndarray  # int64


def make_records(
    kind: Any, src: Any, dst: Any, time: Any, weight: Any
) -> np.ndarray:
    """One :data:`RECORD` array from its five columns (arrays or lists).

    An id or a time the record format cannot hold is a
    :class:`TemporalGraphError`.
    """
    try:
        src, dst, time = (np.asarray(c, dtype=np.int64) for c in (src, dst, time))
    except OverflowError as exc:
        raise TemporalGraphError(f"id or time beyond 64 bits: {exc}") from exc
    if src.shape[0] and src.max() > 0xFFFFFFFF:
        raise TemporalGraphError(
            f"vertex id {src.max()} does not fit the record's 32-bit source"
        )
    records = np.empty(src.shape[0], dtype=RECORD)
    records["kind"] = kind
    records["src"] = src
    records["dst"] = dst
    records["time"] = time
    records["weight"] = weight
    return records


def records_of(activities: Sequence[Activity]) -> np.ndarray:
    """Take a caller's records apart, in the order given (the API edge)."""
    return make_records(
        [a.kind for a in activities],
        [a.src for a in activities],
        [a.dst for a in activities],
        [a.time for a in activities],
        [math.nan if a.weight is None else a.weight for a in activities],
    )


def activities_of(records: np.ndarray) -> Tuple[Activity, ...]:
    """The records as :class:`Activity` objects (validated as they are built)."""
    return tuple(
        Activity(t, _KINDS[k], s, d, None if w != w else w)
        for k, s, d, t, w in records.tolist()
    )


def log_columns(
    records: np.ndarray, after: Optional[LogColumns] = None
) -> LogColumns:
    """The log holding ``after``'s records and ``records``, given in any order.

    Sorting is stable, so records equal in every field keep the order
    they were given in — the order ``sorted()`` leaves equal
    :class:`Activity` objects in. Without ``after`` this is the log of
    ``records`` alone. With it, the log before the earliest of
    ``records`` is ``after``'s as it stands: only ``after``'s records
    from that time on and ``records`` are put in canonical order (one
    linear check when they already are), and the chain facts of the
    edges none of them touch are ``after``'s, so extending a log costs
    about what was appended plus linear passes. ``records`` is handed
    over: the log may hold it as its own array.
    """
    if after is None:
        after = _EMPTY
    start = records["time"].min(initial=NEVER)
    k = int(np.searchsorted(after.time, start, side="left"))
    tail = _join(after.records[k:], records)
    if not _in_canonical_order(tail):
        tail = tail[np.lexsort([tail[key] for key in _CANONICAL[::-1]])]
    kind = tail["kind"]
    src = tail["src"].astype(np.int64)
    on_edge = kind >= ActivityKind.ADD_EDGE
    weight = tail["weight"][on_edge]
    appended = EdgeEvents(
        src=src[on_edge],
        dst=tail["dst"][on_edge],
        time=tail["time"][on_edge],
        kind=kind[on_edge],
        weight=np.where(np.isnan(weight), 1.0, weight),
    )
    # The edge and vertex records of ``after`` before ``start``.
    old = after.events
    kept = int(np.searchsorted(old.time, start, side="left"))
    kept_vertex = int(np.searchsorted(after.vertex_time, start, side="left"))

    def join(name: str) -> np.ndarray:
        return _join(getattr(old, name)[:kept], getattr(appended, name))

    events = EdgeEvents(
        join("src"), join("dst"), join("time"), join("kind"), join("weight")
    )

    id_bound = int(max(events.src.max(initial=-1), events.dst.max(initial=-1)))
    by_edge = edge_order(events.src, events.dst, id_bound + 1)
    # Chain facts change only on the edges that hold a record from
    # ``start`` on (every edge, without ``after``); the rest keep
    # ``after``'s.
    rows, new_chain = _touched_chains(events, by_edge, kept)
    until, live_after = chain_state(new_chain, events.time[rows], events.kind[rows])
    from_start = events.time.shape[0] - kept
    live = _join(after.live[:kept], np.empty(from_start, np.bool_))
    live[rows] = live_after
    next_time = _join(after.next_time[:kept], np.empty(from_start, np.int64))
    next_time[rows] = until
    return LogColumns(
        records=_join(after.records[:k], tail),
        time=_join(after.time[:k], np.ascontiguousarray(tail["time"])),
        events=events,
        vertex=_join(after.vertex[:kept_vertex], src[~on_edge]),
        vertex_time=_join(after.vertex_time[:kept_vertex], tail["time"][~on_edge]),
        vertex_add=_join(
            after.vertex_add[:kept_vertex], kind[~on_edge] == ActivityKind.ADD_VERTEX
        ),
        edge_order=by_edge,
        live=live,
        next_time=next_time,
    )


def _touched_chains(
    events: EdgeEvents, by_edge: np.ndarray, kept: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The edge records of every edge with a record at row ``kept`` or
    later, in ``by_edge`` order, and the mask of each edge's first."""
    new_edge = first_of_edge(events.src[by_edge], events.dst[by_edge])
    edge = np.cumsum(new_edge) - 1
    touched = np.zeros(int(new_edge.sum()), dtype=np.bool_)
    touched[edge[by_edge >= kept]] = True
    redo = np.flatnonzero(touched[edge])
    return by_edge[redo], new_edge[redo]


def _in_canonical_order(records: np.ndarray) -> bool:
    """Whether a stable canonical sort would leave ``records`` as they are:
    each record is at most its successor in ``(time, kind, src, dst,
    weight)``, with ``np.lexsort``'s NaN weights last."""
    first, second = records[:-1], records[1:]
    before = np.zeros(first.shape[0], dtype=np.bool_)
    tied = np.ones(first.shape[0], dtype=np.bool_)
    for key in _CANONICAL[:-1]:
        a, b = first[key], second[key]
        before |= tied & (a < b)
        tied &= a == b
    a, b = first["weight"], second["weight"]
    return bool(np.all(before | (tied & ((a <= b) | np.isnan(b)))))


def _join(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """``head`` then ``tail``, copied only when there is a ``head``."""
    return np.concatenate((head, tail)) if head.shape[0] else tail


_CANONICAL = ("time", "kind", "src", "dst", "weight")
_INT = np.zeros(0, dtype=np.int64)
#: The log of no records: what ``log_columns`` extends without ``after``.
_EMPTY = LogColumns(
    records=np.zeros(0, dtype=RECORD),
    time=_INT,
    events=EdgeEvents(
        src=_INT,
        dst=_INT,
        time=_INT,
        kind=np.zeros(0, dtype=np.uint8),
        weight=np.zeros(0, dtype=np.float64),
    ),
    vertex=_INT,
    vertex_time=_INT,
    vertex_add=np.zeros(0, dtype=np.bool_),
    edge_order=_INT,
    live=np.zeros(0, dtype=np.bool_),
    next_time=_INT,
)
