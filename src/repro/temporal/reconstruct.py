"""Columnar snapshot reconstruction: the one kernel behind every series.

Both ways of obtaining a :class:`~repro.temporal.series.SnapshotSeriesView`
— :func:`~repro.temporal.series.build_series` from an in-memory activity
log and :func:`~repro.storage.loader.load_series` from the on-disk store —
hand their records to this module as NumPy columns and get the shared
edge array back. There is no replay loop: reconstruction is phrased over
**validity intervals**.

Every record on an edge is valid on ``[time, next_time)``, where
``next_time`` is the time of the next record on the same edge (the
paper's ``tu`` link, Section 4.2) or "forever" for the last one. The
snapshots a record covers are therefore a contiguous *bit range*: from
its first snapshot (``np.searchsorted`` against the snapshot times) to
the next record's first snapshot, or past the last one; an edge's
snapshot bitmap is the OR of the ranges of its live records (``addE``,
or ``modE`` while the edge is live), ANDed with both endpoints' vertex
bitmaps. Records sharing a timestamp get empty intervals except for the
last of them, which is exactly "later records win" of the canonical
replay order.

Vertex liveness follows the single rule of :mod:`repro.temporal.graph`:
the latest explicit ``addV``/``delV`` record at or before ``t`` decides;
with no such record the vertex is implicitly live from its first incident
edge record. As intervals: one implicit range ``[first_touch,
first_explicit_record)`` plus ``[time, next_record_time)`` for every
``addV``.

Cost is ``O(R + V)`` for ``R`` records over ``V`` vertices (one native
counting sort by edge key, :func:`edge_order`), independent of the number
of snapshots; intermediate memory is ``O(R + E)``. The only ``O(E * S)``
object is the ``(E, S)`` weight matrix of the result, and it is allocated
only when some live cell's weight is not ``1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Type

import numpy as np

from repro import native
from repro.errors import ChronosError, SnapshotError
from repro.temporal.activity import ActivityKind
from repro.temporal.bitmap import MAX_SNAPSHOTS
from repro.types import Time

__all__ = [
    "EdgeEvents",
    "NEVER",
    "chain_state",
    "check_times",
    "edge_order",
    "first_of_edge",
    "first_touch_times",
    "reconstruct_edges",
    "vertex_liveness",
]

#: "No such time": later than every snapshot time.
NEVER = np.iinfo(np.int64).max

_ADD = np.uint8(ActivityKind.ADD_EDGE)
_MOD = np.uint8(ActivityKind.MOD_EDGE)

#: Cells expanded at once when filling the weight matrix; bounds the
#: fill's scratch memory independently of ``E * S``.
_FILL_CELLS = 1 << 20


@dataclass(frozen=True)
class EdgeEvents:
    """Edge records of one replay stream, as columns in replay order.

    ``kind`` holds :class:`~repro.temporal.activity.ActivityKind` values
    (edge kinds only). A store's snapshot group is one stream: its
    checkpoint entries are ``addE`` records at the group's ``t1`` followed
    by its activities. Streams never share edge state — a record's
    interval ends at the latest with its own stream — and ``stop`` caps
    the snapshots a stream describes: those at index ``>= stop`` lie past
    the time range the stream knows about (``None``: no cap).
    """

    src: np.ndarray  # int64
    dst: np.ndarray  # int64
    time: np.ndarray  # int64
    kind: np.ndarray  # uint8
    weight: np.ndarray  # float64
    stop: Optional[int] = None


def check_times(
    times: Sequence[Time], invalid: Type[ChronosError] = SnapshotError
) -> Tuple[Time, ...]:
    """Validate the snapshot times of a series request.

    Shared by :func:`~repro.temporal.series.build_series` and
    :func:`~repro.storage.loader.load_series`. An empty or non-increasing
    list raises ``invalid`` (each entry point's historical error type);
    more than :data:`MAX_SNAPSHOTS` times is a :class:`SnapshotError`
    from both.
    """
    checked = tuple(times)
    if not checked:
        raise invalid("need at least one snapshot time")
    if len(checked) > MAX_SNAPSHOTS:
        raise SnapshotError(
            f"a series view supports at most {MAX_SNAPSHOTS} snapshots, "
            f"got {len(checked)}; process longer series in groups"
        )
    if any(a >= b for a, b in zip(checked, checked[1:])):
        raise invalid(
            f"snapshot times must be strictly increasing: {list(checked)}"
        )
    return checked


#: ``_LOW_BITS[n]``: the ``uint64`` bitmap with the ``n`` lowest bits set.
_LOW_BITS = np.array(
    [(1 << n) - 1 for n in range(MAX_SNAPSHOTS + 1)], dtype=np.uint64
)


def _bit_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bitmaps with bits ``lo..hi-1`` set (empty where ``hi <= lo``),
    ``0 <= lo, hi <= 64``."""
    return _LOW_BITS[hi] & ~_LOW_BITS[lo]


def _column(
    streams: Sequence[EdgeEvents], name: str, dtype: type
) -> np.ndarray:
    """One column of all ``streams`` back to back (empty for none)."""
    parts = [getattr(events, name) for events in streams]
    if not parts:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(parts).astype(dtype, copy=False)


def edge_order(src: np.ndarray, dst: np.ndarray, bound: int) -> np.ndarray:
    """The stable permutation sorting records by ``(src, dst)``.

    ``np.lexsort((dst, src))``, as one native counting sort in ``O(R +
    V)`` (:func:`repro.native.pair_order`): a linear check when the keys
    are already in order. A key outside ``[0, bound)`` is a
    :class:`SnapshotError`.
    """
    return native.pair_order(src, dst, bound)


def first_of_edge(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Mask of the first record of each edge, columns in :func:`edge_order`."""
    starts = np.ones(src.shape[0], dtype=np.bool_)
    starts[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    return starts


def chain_state(
    new_chain: np.ndarray, time: np.ndarray, kind: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(until, live)`` of records already grouped into per-edge chains.

    The columns are in :func:`edge_order`, ``new_chain`` marking the
    first record of each chain (an edge within one stream). ``until`` is
    the ``time`` of the next record of the chain — the paper's ``tu``
    link — or :data:`NEVER` for the last one (``time`` may be any
    per-record value, such as a record's first snapshot); ``live`` says
    whether the edge is live after the record: the chain's latest
    non-``modE`` record at or before it is an ``addE`` (``modE`` of a
    dead edge is a no-op).
    """
    n = time.shape[0]
    index = np.arange(n, dtype=np.int64)
    chain_start = np.where(new_chain, index, 0)
    np.maximum.accumulate(chain_start, out=chain_start)
    anchor = np.where(kind != _MOD, index, -1)
    np.maximum.accumulate(anchor, out=anchor)
    live = (anchor >= chain_start) & (kind[anchor] == _ADD)
    del index, chain_start, anchor  # the scratch is freed before ``until``
    until = np.full(n, NEVER, dtype=np.int64)
    until[:-1] = np.where(new_chain[1:], NEVER, time[1:])
    return until, live


def first_touch_times(
    num_vertices: int, streams: Sequence[EdgeEvents]
) -> np.ndarray:
    """``(V,)`` time of each vertex's first incident edge record.

    :data:`NEVER` for vertices no record touches.
    """
    first = np.full(num_vertices, NEVER, dtype=np.int64)
    for events in streams:
        np.minimum.at(first, events.src, events.time)
        np.minimum.at(first, events.dst, events.time)
    return first


def vertex_liveness(
    num_vertices: int,
    times: np.ndarray,
    rec_vertex: np.ndarray,
    rec_time: np.ndarray,
    rec_add: np.ndarray,
    first_touch: np.ndarray,
) -> np.ndarray:
    """The ``(V,)`` vertex bitmap of a series.

    ``rec_*`` are the explicit vertex records in replay order (``rec_add``
    true for ``addV``, false for ``delV``); ``first_touch`` is
    :func:`first_touch_times` (or any per-vertex time from which the
    vertex is implicitly live).
    """
    order = edge_order(rec_vertex, np.zeros_like(rec_vertex), num_vertices)
    vertex = rec_vertex[order]
    time = rec_time[order]
    n = vertex.shape[0]
    starts = np.ones(n, dtype=np.bool_)
    starts[1:] = vertex[1:] != vertex[:-1]
    until = np.full(n, NEVER, dtype=np.int64)
    until[:-1] = np.where(starts[1:], NEVER, time[1:])

    # Implicit liveness ends where the first explicit record takes over.
    first_record = np.full(num_vertices, NEVER, dtype=np.int64)
    first_record[vertex[starts]] = time[starts]
    bitmap = _bit_ranges(
        np.searchsorted(times, first_touch, side="left"),
        np.searchsorted(times, first_record, side="left"),
    )
    explicit = _bit_ranges(
        np.searchsorted(times, time, side="left"),
        np.searchsorted(times, until, side="left"),
    )
    explicit[~rec_add[order]] = np.uint64(0)
    np.bitwise_or.at(bitmap, vertex, explicit)
    return bitmap


def reconstruct_edges(
    times: np.ndarray,
    streams: Sequence[EdgeEvents],
    vertex_bitmap: np.ndarray,
    order: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The shared edge array of a series: ``(src, dst, bitmap, weight)``.

    ``times`` are the (non-decreasing) snapshot times as ``int64``;
    ``streams`` the edge records, streams in time order. Rows come out
    sorted by ``(src, dst)``, restricted to edges live in at least one
    snapshot; ``weight`` is ``None`` unless some live cell's weight is
    not ``1.0``. ``order`` is the records' :func:`edge_order` when the
    caller already holds it (a log's ``edge_order``), else it is sorted
    here.
    """
    num_snapshots = int(times.shape[0])
    src = _column(streams, "src", np.int64)
    dst = _column(streams, "dst", np.int64)
    time = _column(streams, "time", np.int64)
    kind = _column(streams, "kind", np.uint8)
    weight = _column(streams, "weight", np.float64)
    lengths = [e.src.shape[0] for e in streams]
    stream = np.repeat(np.arange(len(streams), dtype=np.int64), lengths)
    stop = np.repeat(
        np.array(
            [
                num_snapshots if e.stop is None else e.stop
                for e in streams
            ],
            dtype=np.int64,
        ),
        lengths,
    )

    # Each record's first snapshot, searched while the times of a stream
    # are still in replay order.
    lo = np.searchsorted(times, time, side="left")
    # Stable sort by edge key: within an edge, records keep replay order.
    if order is None:
        order = edge_order(src, dst, vertex_bitmap.shape[0])
    src, dst, kind, heavy, stream, stop, lo = (
        column[order]
        for column in (src, dst, kind, weight != 1.0, stream, stop, lo)
    )
    new_edge = first_of_edge(src, dst)
    new_chain = new_edge.copy()
    new_chain[1:] |= stream[1:] != stream[:-1]

    # Validity interval [time, next record of the chain), in snapshots:
    # up to the next record's first snapshot, else to the stream's stop
    # or "forever" (no snapshot lies past it).
    hi, live = chain_state(new_chain, lo, kind)
    np.minimum(hi, stop, out=hi)
    np.minimum(hi, np.searchsorted(times, NEVER, side="left"), out=hi)

    cover = _bit_ranges(lo, hi)
    cover &= vertex_bitmap[src] & vertex_bitmap[dst]
    cover[~live] = np.uint64(0)

    edge_starts = np.flatnonzero(new_edge)
    bitmap = np.bitwise_or.reduceat(cover, edge_starts)
    keep = bitmap != np.uint64(0)
    out_src = src[edge_starts][keep]
    out_dst = dst[edge_starts][keep]
    out_bitmap = bitmap[keep]

    weighted = np.flatnonzero((cover != np.uint64(0)) & heavy)
    if weighted.shape[0] == 0:
        return out_src, out_dst, out_bitmap, None
    # Row of each record's edge among the kept rows.
    row_of_edge = np.cumsum(keep) - 1
    rows = row_of_edge[np.cumsum(new_edge) - 1]
    out_weight = np.ones(
        (out_src.shape[0], num_snapshots), dtype=np.float64
    )
    _fill_cells(
        out_weight, rows[weighted], cover[weighted], weight[order[weighted]]
    )
    return out_src, out_dst, out_bitmap, out_weight


def _fill_cells(
    out: np.ndarray, rows: np.ndarray, cover: np.ndarray, values: np.ndarray
) -> None:
    """``out[rows[i], s] = values[i]`` for every bit ``s`` of ``cover[i]``.

    Expands bitmaps to cells a bounded chunk of records at a time, so the
    scratch arrays never approach the size of ``out``.
    """
    num_snapshots = out.shape[1]
    shifts = np.arange(num_snapshots, dtype=np.uint64)
    step = max(1, _FILL_CELLS // num_snapshots)
    for begin in range(0, rows.shape[0], step):
        chunk = slice(begin, begin + step)
        bits = (cover[chunk, None] >> shifts) & np.uint64(1)
        record, snapshot = np.nonzero(bits)
        out[rows[chunk][record], snapshot] = values[chunk][record]
