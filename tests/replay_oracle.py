"""Per-record replay oracles for series reconstruction.

These are the two Python replay loops that ``build_series`` and
``load_series`` ran before the columnar kernel
(:mod:`repro.temporal.reconstruct`) replaced them, kept here as the
reference the kernel is tested against. They cost O(snapshots x live
edges) and are written for obviousness, not speed.

Two deliberate differences from the code as it was deleted:

- ``replay_build_series`` allocates the weight matrix when some *live
  cell* has a weight other than 1.0 (the loader's rule, and the only one
  a loader can implement: it never sees records before a checkpoint).
  The old ``build_series`` also allocated an all-ones matrix when a
  non-unit ``addE`` was processed whose edge never showed in a snapshot.
- ``replay_load_series`` is verbatim, *including* its vertex-liveness
  bug: every vertex touched by an edge activity in a group is re-added,
  so an explicitly deleted vertex is resurrected by later edge activity.
  It is a valid reference only for logs without ``delV`` records.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.storage import format as fmt
from repro.temporal.activity import ActivityKind
from repro.temporal.series import SnapshotSeriesView

SERIES_ARRAYS = (
    "out_src", "out_dst", "out_bitmap", "out_index",
    "in_src", "in_dst", "in_bitmap", "in_index",
    "vertex_bitmap", "out_degrees",
)


def assert_same_series(actual: SnapshotSeriesView, expected: SnapshotSeriesView) -> None:
    """Every array of the view, ``times`` and weight None-ness are equal."""
    assert actual.num_vertices == expected.num_vertices
    assert actual.times == expected.times
    for name in SERIES_ARRAYS:
        a, b = getattr(actual, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert (actual.out_weight is None) == (expected.out_weight is None)
    if expected.out_weight is not None:
        np.testing.assert_array_equal(actual.out_weight, expected.out_weight)
        np.testing.assert_array_equal(actual.in_weight, expected.in_weight)


def _assemble(V, times, rows_src, rows_dst, bitmaps, weight_cells, vertex_bitmap):
    E, S = len(rows_src), len(times)
    out_weight = None
    if any(w != 1.0 for _row, _s, w in weight_cells):
        out_weight = np.ones((E, S), dtype=np.float64)
        for row, s, w in weight_cells:
            out_weight[row, s] = w
    return SnapshotSeriesView(
        V,
        times,
        np.asarray(rows_src, dtype=np.int64),
        np.asarray(rows_dst, dtype=np.int64),
        np.asarray(bitmaps, dtype=np.uint64),
        out_weight,
        vertex_bitmap,
    )


def replay_build_series(graph, times: Sequence[int]) -> SnapshotSeriesView:
    """One forward sweep over the activity log, folding live edges into
    the shared edge array at every snapshot time."""
    times = list(times)
    V = graph.num_vertices
    activities = graph.activities

    first_touch: Dict[int, int] = {}
    for a in activities:
        first_touch.setdefault(a.src, a.time)
        if a.dst >= 0:
            first_touch.setdefault(a.dst, a.time)

    live_edges: Dict[Tuple[int, int], float] = {}
    explicit_vertex: Dict[int, bool] = {}
    edge_row: Dict[Tuple[int, int], int] = {}
    rows_src: List[int] = []
    rows_dst: List[int] = []
    bitmaps: List[int] = []
    weight_cells: List[Tuple[int, int, float]] = []
    vertex_bitmap = np.zeros(V, dtype=np.uint64)

    idx = 0
    n_act = len(activities)
    for s, t in enumerate(times):
        while idx < n_act and activities[idx].time <= t:
            a = activities[idx]
            idx += 1
            if a.kind == ActivityKind.ADD_EDGE:
                live_edges[(a.src, a.dst)] = a.weight if a.weight is not None else 1.0
            elif a.kind == ActivityKind.DEL_EDGE:
                live_edges.pop((a.src, a.dst), None)
            elif a.kind == ActivityKind.MOD_EDGE:
                if (a.src, a.dst) in live_edges:
                    live_edges[(a.src, a.dst)] = (
                        a.weight if a.weight is not None else 1.0
                    )
            elif a.kind == ActivityKind.ADD_VERTEX:
                explicit_vertex[a.src] = True
            elif a.kind == ActivityKind.DEL_VERTEX:
                explicit_vertex[a.src] = False

        def vertex_live(v: int) -> bool:
            state = explicit_vertex.get(v)
            if state is not None:
                return state
            touched = first_touch.get(v)
            return touched is not None and touched <= t

        sbit = np.uint64(1 << s)
        for v in range(V):
            if vertex_live(v):
                vertex_bitmap[v] |= sbit
        for (u, v), w in live_edges.items():
            if not (vertex_live(u) and vertex_live(v)):
                continue
            row = edge_row.get((u, v))
            if row is None:
                row = len(rows_src)
                edge_row[(u, v)] = row
                rows_src.append(u)
                rows_dst.append(v)
                bitmaps.append(0)
            bitmaps[row] |= 1 << s
            weight_cells.append((row, s, w))

    return _assemble(
        V, times, rows_src, rows_dst, bitmaps, weight_cells, vertex_bitmap
    )


def _explicit_live_vertices_at(group, t: int) -> Set[int]:
    """The old ``SnapshotGroup.live_vertices_at``: checkpointed live set
    plus the group's explicit vertex records replayed up to ``t``."""
    live = set(group.live_vertices_at_start)
    explicit: Dict[int, bool] = {}
    for a in group.vertex_activities:
        if a.time > t:
            break
        explicit[a.src] = a.kind == ActivityKind.ADD_VERTEX
    for v, state in explicit.items():
        if state:
            live.add(v)
        else:
            live.discard(v)
    return live


def replay_load_series(store, times: Sequence[int]) -> SnapshotSeriesView:
    """One sequential scan per snapshot group: each vertex segment's
    checkpoint is replayed forward through its activities."""
    times = list(times)
    V = store.num_vertices
    last_t2 = store.groups[-1].t2

    edge_row: Dict[Tuple[int, int], int] = {}
    rows_src: List[int] = []
    rows_dst: List[int] = []
    bitmaps: List[int] = []
    weight_cells: List[Tuple[int, int, float]] = []
    vertex_bitmap = np.zeros(V, dtype=np.uint64)

    by_group: Dict[int, List[Tuple[int, int]]] = {}
    for s, t in enumerate(times):
        t_eff = min(t, last_t2)
        gi = next(i for i, g in enumerate(store.groups) if g.contains(t_eff))
        by_group.setdefault(gi, []).append((s, t_eff))

    for gi, snap_list in sorted(by_group.items()):
        group = store.groups[gi]
        snap_list.sort(key=lambda st: st[1])
        group_times = [t for _, t in snap_list]
        live_sets = [_explicit_live_vertices_at(group, t) for t in group_times]
        touches: List[Tuple[int, int]] = []

        per_time_edges: List[Dict[Tuple[int, int], float]] = [
            {} for _ in group_times
        ]
        for v, checkpoint, activities in group.edge_file.all_segments():
            state: Dict[int, float] = {dst: w for dst, w in checkpoint}
            ai = 0
            n_act = len(activities)
            for ti, t in enumerate(group_times):
                while ai < n_act and activities[ai][2] <= t:
                    kind, dst, a_time, _tu, weight = activities[ai]
                    ai += 1
                    touches.append((a_time, v))
                    touches.append((a_time, dst))
                    if kind == fmt.KIND_DEL:
                        state.pop(dst, None)
                    elif kind == fmt.KIND_ADD:
                        state[dst] = weight
                    elif dst in state:
                        state[dst] = weight
                for dst, w in state.items():
                    per_time_edges[ti][(v, dst)] = w
            while ai < n_act:
                _, dst, a_time, _tu, _w = activities[ai]
                touches.append((a_time, v))
                touches.append((a_time, dst))
                ai += 1

        for ti, t in enumerate(group_times):
            for a_time, v in touches:
                if a_time <= t:
                    live_sets[ti].add(v)

        for (s, _t), live, edges in zip(snap_list, live_sets, per_time_edges):
            sbit = np.uint64(1 << s)
            for v in live:
                if v < V:
                    vertex_bitmap[v] |= sbit
            for (u, v), w in edges.items():
                if u not in live or v not in live:
                    continue
                row = edge_row.get((u, v))
                if row is None:
                    row = len(rows_src)
                    edge_row[(u, v)] = row
                    rows_src.append(u)
                    rows_dst.append(v)
                    bitmaps.append(0)
                bitmaps[row] |= 1 << s
                weight_cells.append((row, s, w))

    return _assemble(
        V, times, rows_src, rows_dst, bitmaps, weight_cells, vertex_bitmap
    )
