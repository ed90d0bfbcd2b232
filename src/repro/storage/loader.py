"""Reconstruct an in-memory snapshot series from the on-disk store.

One sequential scan per snapshot group (Section 4.3), then one call into
the reconstruction kernel (:mod:`repro.temporal.reconstruct`) — the same
kernel :func:`repro.temporal.series.build_series` runs on an in-memory
log, which is why the two agree array for array (tested as a round-trip
property against a per-record replay oracle).

The formulation is the paper's: every record covers the interval
``[time, tu)``, ``tu`` being the time of the next record on the same
edge (Section 4.2). A group contributes one record stream — its
checkpoint entries, read as ``addE`` records at the group's ``t1``,
followed by its activities — scanned whole by
:meth:`~repro.storage.edge_file.EdgeFile.scan` with every section's
length and CRC32 checked. The kernel derives each record's ``tu`` (its
``next_time``) by a stable sort on the edge key, maps ``[time, tu)`` to a
range of snapshot bits with ``np.searchsorted``, and ORs the ranges per
edge. Only the groups that own a requested snapshot are read; a
group's records describe no snapshot past its ``t2``. Intermediate
memory is ``O(records read + E)``; the ``(E, S)`` weight matrix exists
only when some live cell's weight is not ``1.0``.

Vertex liveness is the one rule of :mod:`repro.temporal.graph`, applied
to the whole store rather than group by group: the latest explicit
``addV``/``delV`` record at or before ``t`` decides — the records of
*all* groups up to ``t`` are in the manifest — and only a vertex with no
such record is implicitly live from its first incident edge record. (A
vertex deleted in an earlier group therefore stays deleted when later
edge activity names it.) First touches before a group come from its
``live_vertices_at_start``.

Times before the first group's ``t1`` precede all history and yield the
empty snapshot ``build_series`` yields; times past the last group's
``t2``, where the graph no longer changes, are clamped to it.

The loader is agnostic to how the store was opened: against a
memory-mapped store (``StoreConfig(mmap=True)`` or a memory budget the
store exceeds) the scan reads slices of the mapping instead of one
``read()`` per file, with identical results and identical integrity
errors — that is what lets a store larger than RAM feed the engine end
to end.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.errors import StorageError
from repro.obs import runtime as obs
from repro.storage.edge_file import ACTIVITY_KIND_OF_CODE
from repro.storage.snapshot_group import SnapshotGroup
from repro.storage.store import TemporalGraphStore
from repro.temporal.activity import ActivityKind
from repro.temporal.reconstruct import (
    NEVER,
    EdgeEvents,
    check_times,
    first_touch_times,
    reconstruct_edges,
    vertex_liveness,
)
from repro.temporal.series import SnapshotSeriesView
from repro.types import Time


def load_series(
    store: TemporalGraphStore, times: Sequence[Time]
) -> SnapshotSeriesView:
    """Load the snapshots at ``times`` from ``store`` into a series view."""
    with obs.span(
        "phase", "load", {"op": "load_series", "snapshots": len(times)}
    ):
        return _load_series(store, times)


def _group_events(group: SnapshotGroup, stop: int) -> EdgeEvents:
    """One group's record stream: checkpoint at ``t1``, then activities."""
    scan = group.edge_file.scan()
    n_cp = scan.checkpoint.shape[0]
    acts = scan.activities
    return EdgeEvents(
        src=np.concatenate(
            [
                np.repeat(scan.vertices, scan.cp_counts),
                np.repeat(scan.vertices, scan.act_counts),
            ]
        ),
        dst=np.concatenate(
            [scan.checkpoint["dst"], acts["dst"]], dtype=np.int64
        ),
        time=np.concatenate(
            [
                np.full(n_cp, group.t1, dtype=np.int64),
                acts["time"].astype(np.int64),
            ]
        ),
        kind=np.concatenate(
            [
                np.full(n_cp, ActivityKind.ADD_EDGE, dtype=np.uint8),
                ACTIVITY_KIND_OF_CODE[acts["kind"]],
            ]
        ),
        weight=np.concatenate([scan.checkpoint["weight"], acts["weight"]]),
        stop=stop,
    )


def _vertex_ids(
    store: TemporalGraphStore, vertices: Iterable[int]
) -> np.ndarray:
    """Vertex ids from the manifest as an index array, range-checked."""
    ids = np.fromiter(vertices, dtype=np.int64)
    if ids.shape[0] and not 0 <= ids.min() <= ids.max() < store.num_vertices:
        raise StorageError(
            f"store manifest at {store.path} names a vertex outside its "
            f"{store.num_vertices} vertices"
        )
    return ids


def _load_series(
    store: TemporalGraphStore, times: Sequence[Time]
) -> SnapshotSeriesView:
    times = check_times(times, invalid=StorageError)
    V = store.num_vertices
    groups = store.groups
    if not groups:
        raise StorageError(f"store at {store.path} has no snapshot groups")
    # Past the last group's end the graph no longer changes.
    clamped = np.minimum(
        np.asarray(times, dtype=np.int64), np.int64(groups[-1].t2)
    )
    owners = {store.group_index(int(t)) for t in clamped}
    owners.discard(-1)  # before all history: the empty snapshot

    # Explicit vertex records of the whole store, in replay order.
    records = [a for group in groups for a in group.vertex_activities]
    rec_vertex = _vertex_ids(store, [a.src for a in records])
    rec_time = np.array([a.time for a in records], dtype=np.int64)
    rec_add = np.array(
        [a.kind == ActivityKind.ADD_VERTEX for a in records], dtype=np.bool_
    )

    streams: List[EdgeEvents] = []
    first_touch = np.full(V, NEVER, dtype=np.int64)
    for gi in sorted(owners):
        group = groups[gi]
        stop = int(np.searchsorted(clamped, group.t2, side="right"))
        streams.append(_group_events(group, stop))
        # Vertices live at t1 with no explicit record by then were first
        # touched at or before t1; t1 itself serves every snapshot this
        # group owns.
        started = _vertex_ids(store, group.live_vertices_at_start)
        explicit = np.zeros(V, dtype=np.bool_)
        explicit[rec_vertex[rec_time <= group.t1]] = True
        implicit = started[~explicit[started]]
        first_touch[implicit] = np.minimum(first_touch[implicit], group.t1)
    first_touch = np.minimum(first_touch, first_touch_times(V, streams))

    vertex_bitmap = vertex_liveness(
        V, clamped, rec_vertex, rec_time, rec_add, first_touch
    )
    out_src, out_dst, out_bitmap, out_weight = reconstruct_edges(
        clamped, streams, vertex_bitmap
    )
    return SnapshotSeriesView(
        V, times, out_src, out_dst, out_bitmap, out_weight, vertex_bitmap
    )
