"""Snapshot series: N reconstructed snapshots sharing one edge array.

This is the in-memory temporal-graph representation of Section 3.2: all
distinct edges of the series live once in a CSR-like *edge array*, grouped by
source vertex; each edge carries a :mod:`snapshot bitmap
<repro.temporal.bitmap>` marking the snapshots that contain it, and
(optionally) per-snapshot weights. The snapshot bitmap "saves the memory
footprint and provides an efficient way to check whether or not a snapshot
contains an edge".

:class:`GroupView` restricts a series to a contiguous range of snapshots —
the unit the LABS scheduler batches (Section 3.3). A group of size 1 is
exactly the compact single-snapshot edge array the snapshot-by-snapshot
baseline enumerates, so baseline and LABS share one code path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.errors import SnapshotError
from repro.temporal.bitmap import mask_below
from repro.temporal.graph import TemporalGraph
from repro.temporal.reconstruct import (
    check_times,
    edge_order,
    reconstruct_edges,
    vertex_liveness,
)
from repro.temporal.snapshot import Snapshot
from repro.types import Time, VertexId


class SnapshotSeriesView:
    """N reconstructed snapshots over a shared, bitmap-compressed edge array.

    Attributes
    ----------
    times:
        The snapshot time points, strictly increasing, ``len(times) <= 64``.
    out_src, out_dst, out_bitmap:
        The edge array grouped by source vertex (CSR order); ``out_index``
        is the ``(V+1,)`` CSR index. ``out_bitmap[e]`` has bit ``s`` set when
        edge ``e`` exists in snapshot ``s``.
    in_index, in_src, in_dst, in_bitmap:
        The same edges grouped by destination (for pull-mode gathering).
    out_weight:
        Optional ``(E, S)`` per-snapshot weights (1.0 where unweighted).
    vertex_bitmap:
        ``(V,)`` bitmap of the snapshots each vertex is live in.
    out_degrees:
        ``(V, S)`` per-snapshot out-degrees (used by PageRank/SpMV).
    """

    def __init__(
        self,
        num_vertices: int,
        times: Sequence[Time],
        out_src: np.ndarray,
        out_dst: np.ndarray,
        out_bitmap: np.ndarray,
        out_weight: Optional[np.ndarray],
        vertex_bitmap: np.ndarray,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.times: Tuple[Time, ...] = tuple(times)
        S = len(self.times)
        # Both producers hand rows over already in (src, dst) order, where
        # the stable sort is a linear run check.
        order = edge_order(out_src, out_dst, num_vertices)
        self.out_src = out_src[order].astype(np.int64)
        self.out_dst = out_dst[order].astype(np.int64)
        self.out_bitmap = out_bitmap[order].astype(np.uint64)
        self.out_weight = (
            None if out_weight is None else out_weight[order].astype(np.float64)
        )
        counts = np.bincount(self.out_src, minlength=num_vertices)
        self.out_index = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

        in_order = edge_order(self.out_dst, self.out_src, num_vertices)
        self.in_src = self.out_src[in_order]
        self.in_dst = self.out_dst[in_order]
        self.in_bitmap = self.out_bitmap[in_order]
        self.in_weight = (
            None if self.out_weight is None else self.out_weight[in_order]
        )
        in_counts = np.bincount(self.out_dst, minlength=num_vertices)
        self.in_index = np.concatenate(([0], np.cumsum(in_counts))).astype(np.int64)

        self.vertex_bitmap = vertex_bitmap.astype(np.uint64)
        # One native pass over the edges, each set bit counted into its
        # (source, snapshot) cell: no per-snapshot scan, no (E, S) temporary.
        self.out_degrees = native.out_degrees(
            self.out_bitmap, self.out_src, num_vertices, S
        )
        # Memoised GroupViews, keyed (start, stop). Views are immutable, and
        # reusing them saves re-filtering the edge arrays for every run over
        # the same series; the scatter walks a view's arrays as they are,
        # so nothing else is cached per group.
        self._group_cache: Dict[Tuple[int, int], "GroupView"] = {}

    def __getstate__(self) -> dict:
        # The group cache holds derived views, rebuilt lazily, so pickles
        # drop it.
        state = dict(self.__dict__)
        state["_group_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------ #

    @property
    def num_snapshots(self) -> int:
        return len(self.times)

    @property
    def num_edges(self) -> int:
        """Number of distinct edges in the union across snapshots."""
        return int(self.out_dst.shape[0])

    @property
    def has_weights(self) -> bool:
        return self.out_weight is not None

    def exists(self, v: VertexId, s: int) -> bool:
        """True when vertex ``v`` is live in snapshot ``s``."""
        return bool((int(self.vertex_bitmap[v]) >> s) & 1)

    def vertex_exists_matrix(self) -> np.ndarray:
        """Liveness of every vertex in every snapshot as ``(V, S)`` bools."""
        shifts = np.arange(self.num_snapshots, dtype=np.uint64)
        return ((self.vertex_bitmap[:, None] >> shifts[None, :]) & np.uint64(1)).astype(
            bool
        )

    def edges_in_snapshot(self, s: int) -> int:
        """Number of live edges in snapshot ``s``."""
        if not 0 <= s < self.num_snapshots:
            raise SnapshotError(f"snapshot index {s} out of range")
        live = (self.out_bitmap >> np.uint64(s)) & np.uint64(1)
        return int(live.sum())

    def snapshot(self, s: int) -> Snapshot:
        """Materialise snapshot ``s`` as a compact static CSR graph."""
        if not 0 <= s < self.num_snapshots:
            raise SnapshotError(f"snapshot index {s} out of range")
        live = ((self.out_bitmap >> np.uint64(s)) & np.uint64(1)).astype(bool)
        src = self.out_src[live]
        dst = self.out_dst[live]
        weight = None if self.out_weight is None else self.out_weight[live, s]
        mask = self.vertex_exists_matrix()[:, s]
        return Snapshot(
            self.num_vertices, src, dst, weight, mask, time=self.times[s]
        )

    def group(self, start: int, stop: int) -> "GroupView":
        """Restrict to snapshots ``[start, stop)`` for one LABS batch."""
        view = self._group_cache.get((start, stop))
        if view is None:
            view = GroupView(self, start, stop)
            self._group_cache[(start, stop)] = view
        return view

    def groups(self, batch_size: int) -> List["GroupView"]:
        """Split the series into LABS groups of at most ``batch_size``."""
        if batch_size <= 0:
            raise SnapshotError(f"batch size must be positive, got {batch_size}")
        return [
            self.group(s, min(s + batch_size, self.num_snapshots))
            for s in range(0, self.num_snapshots, batch_size)
        ]


class GroupView:
    """A contiguous snapshot range of a series, with group-local bitmaps.

    The edge array is filtered to edges live in at least one snapshot of the
    group and the bitmaps are re-based so bit 0 is the first snapshot of the
    group. Group size 1 therefore yields exactly the per-snapshot compact
    CSR that a static engine (the paper's baseline) would use.
    """

    def __init__(self, series: SnapshotSeriesView, start: int, stop: int) -> None:
        if not (0 <= start < stop <= series.num_snapshots):
            raise SnapshotError(
                f"invalid group range [{start}, {stop}) for "
                f"{series.num_snapshots} snapshots"
            )
        self.series = series
        self.start = start
        self.stop = stop
        S_g = stop - start
        group_mask = np.uint64(mask_below(S_g) << start)
        sel = (series.out_bitmap & group_mask) != 0
        self.out_src = series.out_src[sel]
        self.out_dst = series.out_dst[sel]
        self.out_bitmap = (series.out_bitmap[sel] >> np.uint64(start)) & np.uint64(
            mask_below(S_g)
        )
        self.out_weight = (
            None
            if series.out_weight is None
            else series.out_weight[sel][:, start:stop]
        )
        counts = np.bincount(self.out_src, minlength=series.num_vertices)
        self.out_index = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

        sel_in = (series.in_bitmap & group_mask) != 0
        self.in_src = series.in_src[sel_in]
        self.in_dst = series.in_dst[sel_in]
        self.in_bitmap = (series.in_bitmap[sel_in] >> np.uint64(start)) & np.uint64(
            mask_below(S_g)
        )
        self.in_weight = (
            None
            if series.in_weight is None
            else series.in_weight[sel_in][:, start:stop]
        )
        in_counts = np.bincount(self.in_dst, minlength=series.num_vertices)
        self.in_index = np.concatenate(([0], np.cumsum(in_counts))).astype(np.int64)

        self.out_degrees = series.out_degrees[:, start:stop]
        shifts = np.arange(start, stop, dtype=np.uint64)
        self.vertex_exists = (
            (series.vertex_bitmap[:, None] >> shifts[None, :]) & np.uint64(1)
        ).astype(bool)
        self.times = series.times[start:stop]

    @property
    def num_vertices(self) -> int:
        return self.series.num_vertices

    @property
    def num_snapshots(self) -> int:
        return self.stop - self.start

    @property
    def num_edges(self) -> int:
        """Edges live in at least one snapshot of the group."""
        return int(self.out_dst.shape[0])


def build_series(graph: TemporalGraph, times: Sequence[Time]) -> SnapshotSeriesView:
    """Reconstruct the states of ``graph`` at the given ``times``.

    The log's columns (:meth:`TemporalGraph.columns`, converted once per
    graph) are handed to the reconstruction kernel
    (:mod:`repro.temporal.reconstruct`): every edge record is valid on
    ``[time, next record on that edge)``, which ``np.searchsorted`` maps
    to a range of snapshot bits — the in-memory
    counterpart of the on-disk ``tu``-linked sequential scan
    (Section 4.3), and the same kernel
    :func:`~repro.storage.loader.load_series` runs, so the two agree
    array for array. Cost does not grow with the number of snapshots and
    intermediate memory is ``O(activities + E)``; the ``(E, S)`` weight
    matrix is allocated only when some live (edge, snapshot) cell has a
    weight other than ``1.0``. Vertex liveness is the single rule of
    :mod:`repro.temporal.graph` (latest explicit record wins, else first
    touch).
    """
    times = check_times(times)
    snapshot_times = np.asarray(times, dtype=np.int64)
    V = graph.num_vertices
    columns = graph.columns()
    events = columns.events
    vertex_bitmap = vertex_liveness(
        V,
        snapshot_times,
        columns.vertex,
        columns.vertex_time,
        columns.vertex_add,
        graph.first_touch,
    )
    out_src, out_dst, out_bitmap, out_weight = reconstruct_edges(
        snapshot_times, [events], vertex_bitmap
    )
    return SnapshotSeriesView(
        V, times, out_src, out_dst, out_bitmap, out_weight, vertex_bitmap
    )
