"""The vectorised scatter: cached, destination-sorted gather plans.

This is the one production scatter path. A :class:`GatherPlan` unpacks a
group's edge bitmaps exactly once per
:class:`~repro.temporal.series.GroupView`: the live ``(edge, snapshot)``
pairs are flattened into a COO stream, pre-sorted by flat destination index
in the accumulator's *physical* layout order, and segment boundaries are
stored so each iteration's fold becomes one segmented reduction —
``np.bincount`` for additive gathers, ``<ufunc>.reduceat`` for min/max and
the logical ufuncs — plus one duplicate-free flat assignment into the
accumulator. Because the stream is sorted in physical order, all per-entry
reads and writes go through flat ``np.take``-style indexing of the state
arrays' backing storage rather than 2-D fancy indexing through a
(possibly transposed) view.

Bitwise identity with a sequential per-edge fold — the simulated engine of
:mod:`repro.engine.traced`, and ``ufunc.at`` in the fold's own property
test — is preserved deliberately:

- the stable destination sort keeps each destination cell's contributions in
  edge-ascending order, the order a per-edge loop applies them in (both for
  push/pull's edge-major order and for stream mode's bucket order, because
  bucket id is monotone in destination vertex);
- additive folds use ``np.bincount``, whose C loop accumulates sequentially
  in stream order — unlike ``np.add.reduceat``, which pairwise-sums and so
  drifts in the last ulp;
- min/max/logical folds are order-exact, so ``reduceat`` is safe;
- REGATHER programs reset the accumulator to the gather identity before
  every scatter, so combining the segment totals into the accumulator
  afterwards reproduces the sequential result exactly.

Monotone frontier filtering composes with the plan through a cached
per-source CSR over the flattened stream: when the frontier is small, the
candidate stream positions are gathered from the active sources' CSR slices
(and re-sorted, restoring destination order) instead of masking the whole
stream.

Push, pull and stream are three *accountings* of this one scatter
(:func:`vectorized_scatter`): the mode picks the plan direction and which
logical counters the fold's update count feeds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

import numpy as np

from repro.engine.config import Mode
from repro.errors import EngineError
from repro.layout.vertex_array import LayoutKind, flat_destination_index
from repro.obs import runtime as obs

if TYPE_CHECKING:
    from repro.engine.common import ExecContext
    from repro.temporal.series import GroupView

#: When the monotone frontier's candidate stream entries are fewer than
#: ``stream_length / _CSR_SELECT_FACTOR``, selection goes through the
#: per-source CSR slices instead of masking the full stream.
_CSR_SELECT_FACTOR = 4

#: Gather ufuncs with an order-exact segmented reduction. ``np.add`` is
#: handled separately via ``np.bincount`` (see module docstring).
_REDUCEAT_UFUNCS = frozenset(
    {np.minimum, np.maximum, np.logical_and, np.logical_or}
)


def _narrow_index(arr: np.ndarray, max_value: int) -> np.ndarray:
    """Downcast flat indices so the stable argsort radix passes fewer bytes."""
    if max_value < (1 << 16):
        return arr.astype(np.uint16)
    if max_value < (1 << 32):
        return arr.astype(np.uint32)
    return arr.astype(np.int64)


class SegmentedStreamFold:
    """Fold machinery over a destination-sorted flat stream.

    Shared by the full-group :class:`GatherPlan` and the per-worker
    :class:`repro.parallel.plan_shard.PlanShard`: both expose a sorted
    ``flat`` destination stream, and both fold with the same segmented
    reductions, so serial and sharded execution apply bitwise-identical
    per-cell operations in identical order.
    """

    flat: np.ndarray  # sorted flat destination index per stream entry
    _full_segments: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]

    def _segments(
        self, flat_sel: np.ndarray, full: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(seg_starts, seg_ids, cells)`` for a sorted selection."""
        if full and self._full_segments is not None:
            return self._full_segments
        starts_mask = np.empty(flat_sel.shape[0], dtype=bool)
        starts_mask[0] = True
        np.not_equal(flat_sel[1:], flat_sel[:-1], out=starts_mask[1:])
        seg_starts = np.flatnonzero(starts_mask)
        seg_ids = np.cumsum(starts_mask) - 1
        cells = flat_sel[seg_starts].astype(np.intp)
        segments = (seg_starts, seg_ids, cells)
        if full:
            self._full_segments = segments
        return segments

    def fold(
        self,
        acc_flat: np.ndarray,
        ufunc: np.ufunc,
        msg: np.ndarray,
        sel: Optional[np.ndarray],
    ) -> int:
        """Fold ``msg`` into the flat accumulator at the selected destinations.

        Returns the number of accumulator element updates (= selected stream
        entries). ``sel is None`` means the whole stream.
        """
        full = sel is None
        flat_sel = self.flat if full else self.flat[sel]
        n = int(flat_sel.shape[0])
        if n == 0:
            return 0
        if ufunc is np.add:
            seg_starts, seg_ids, cells = self._segments(flat_sel, full)
            folded = np.bincount(seg_ids, weights=msg, minlength=seg_starts.shape[0])
            acc_flat[cells] = np.add(acc_flat[cells], folded)
        elif ufunc in _REDUCEAT_UFUNCS:
            seg_starts, _, cells = self._segments(flat_sel, full)
            folded = ufunc.reduceat(msg, seg_starts)
            acc_flat[cells] = ufunc(acc_flat[cells], folded)
        else:
            raise EngineError(
                f"no segmented reduction for gather ufunc {ufunc.__name__!r}"
            )
        return n


class GatherPlan(SegmentedStreamFold):
    """A destination-sorted COO view of one group edge array's live pairs.

    Built once per (group, edge direction, accumulator layout) and reused by
    every iteration of every run over that group. All stored arrays are
    immutable; per-iteration state (frontiers, snapshot masks) enters through
    the ``select_*`` methods.
    """

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        bitmap: np.ndarray,
        num_vertices: int,
        num_snapshots: int,
        weights: Optional[np.ndarray] = None,
        layout: LayoutKind = LayoutKind.TIME_LOCALITY,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.num_snapshots = int(num_snapshots)
        self.layout = layout
        ncells = self.num_vertices * self.num_snapshots

        # Unpack every edge's snapshot bitmap exactly once.
        shifts = np.arange(num_snapshots, dtype=np.uint64)
        bits = ((bitmap[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)
        edge_ids, snap_ids = np.nonzero(bits)  # edge-major, snapshots ascending
        flat = _narrow_index(
            flat_destination_index(
                layout, dst[edge_ids], snap_ids, num_vertices, num_snapshots
            ),
            ncells,
        )
        # Stable sort: within one destination cell the stream stays in
        # edge-ascending order — the order a per-edge loop folds it in.
        order = np.argsort(flat, kind="stable")
        self.edge_ids = edge_ids[order]
        self.snap_ids = snap_ids[order]
        self.src_ids = src[self.edge_ids]
        self.dst_ids = dst[self.edge_ids]
        #: Flat destination index (physical accumulator order), sorted.
        self.flat = flat[order]
        #: Flat *source* index in the same physical order (for value reads).
        #: Kept at the platform index width: these arrays are consumed as
        #: fancy indices every iteration, and a narrow dtype would force a
        #: stream-sized cast per gather.
        self.src_flat = flat_destination_index(
            layout, self.src_ids, self.snap_ids, num_vertices, num_snapshots
        ).astype(np.intp)
        #: Flat source index in C (V, S_g) order, for the boolean masks
        #: (active/dirty), which are always C-contiguous ``(V, S_g)``.
        self.src_flat_c = (
            self.src_ids * np.int64(num_snapshots) + self.snap_ids
        ).astype(np.intp)
        self.weight_stream = (
            None if weights is None else weights[self.edge_ids, self.snap_ids]
        )
        self.length = int(self.flat.shape[0])
        #: Stream entries per snapshot (pull mode's dirty-check count).
        self.snap_entry_counts = np.bincount(
            self.snap_ids, minlength=num_snapshots
        ).astype(np.int64)

        self._full_segments: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._src_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._degree_key: Optional[int] = None
        self._degree_stream: Optional[np.ndarray] = None
        self._cell_degree_key: Optional[int] = None
        self._cell_degrees: Optional[np.ndarray] = None
        #: Parent-issued shared-memory publication token, lazily assigned
        #: by the process executor the first time this plan is shipped; a
        #: rebuilt plan gets a fresh token, so worker-side plan caches can
        #: never serve stale arrays.
        self.shm_token: Optional[str] = None

    # ------------------------------------------------------------------ #
    # cached derived structures

    def degree_stream(self, degrees: np.ndarray) -> np.ndarray:
        """Per-entry source out-degree, memoised on the degrees array."""
        if self._degree_key != id(degrees):
            self._degree_stream = degrees[self.src_ids, self.snap_ids]
            self._degree_key = id(degrees)
        return self._degree_stream

    def cell_degrees(self, degrees: np.ndarray) -> np.ndarray:
        """Out-degrees flattened in physical layout order, memoised.

        Lets weight-free scatters evaluate once per ``(vertex, snapshot)``
        cell instead of once per stream entry (see ``planned_scatter``).
        """
        if self._cell_degree_key != id(degrees):
            phys = (
                degrees
                if self.layout is LayoutKind.TIME_LOCALITY
                else degrees.T
            )
            self._cell_degrees = np.ascontiguousarray(phys).reshape(-1)
            self._cell_degree_key = id(degrees)
        return self._cell_degrees

    def _source_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ptr, positions)``: stream positions grouped by source vertex."""
        if self._src_csr is None:
            positions = np.argsort(
                _narrow_index(self.src_ids, self.num_vertices), kind="stable"
            )
            counts = np.bincount(self.src_ids, minlength=self.num_vertices)
            ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
            self._src_csr = (ptr, positions)
        return self._src_csr

    # ------------------------------------------------------------------ #
    # per-iteration selection

    def select_stationary(self, snap_active: np.ndarray) -> Optional[np.ndarray]:
        """Stream positions live under ``snap_active``; None = whole stream."""
        if snap_active.all():
            return None
        return np.flatnonzero(snap_active[self.snap_ids])

    def select_monotone(
        self, active: np.ndarray, snap_active: np.ndarray
    ) -> np.ndarray:
        """Stream positions whose (source, snapshot) is in the frontier.

        Equals ``flatnonzero(snap_active[s] & active[src, s])`` over the
        stream; small frontiers are resolved through the per-source CSR
        slices instead of a full-stream mask.
        """
        frontier = np.flatnonzero((active & snap_active[None, :]).any(axis=1))
        if frontier.size == 0 or self.length == 0:
            return np.empty(0, dtype=np.int64)
        active_flat = np.ravel(active)  # C-order (V, S_g), view
        ptr, positions = self._source_csr()
        counts = ptr[frontier + 1] - ptr[frontier]
        total = int(counts.sum())
        if total * _CSR_SELECT_FACTOR >= self.length:
            keep = snap_active[self.snap_ids]
            keep &= active_flat[self.src_flat_c]
            return np.flatnonzero(keep)
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Ragged gather of the frontier sources' stream slices.
        ends = np.cumsum(counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
        cand = positions[np.repeat(ptr[frontier], counts) + within]
        keep = snap_active[self.snap_ids[cand]]
        keep &= active_flat[self.src_flat_c[cand]]
        cand = cand[keep]
        cand.sort()  # restore destination order for the segmented fold
        return cand

# ---------------------------------------------------------------------- #
# plan cache and the engine entry point


def plan_for(group: "GroupView", direction: str, layout: LayoutKind) -> GatherPlan:
    """The (cached) gather plan for one direction of a group's edge array.

    Plans depend only on the group's immutable topology, so they are cached
    on the :class:`~repro.temporal.series.GroupView` itself and shared by
    every run/iteration over that group.
    """
    cache: Optional[Dict] = getattr(group, "plan_cache", None)
    if cache is None:
        cache = {}
        group.plan_cache = cache
    key = (direction, layout)
    plan = cache.get(key)
    obs.add("plan.cache_hits" if plan is not None else "plan.cache_builds")
    if plan is None:
        if direction == "in":
            plan = GatherPlan(
                group.in_src,
                group.in_dst,
                group.in_bitmap,
                group.num_vertices,
                group.num_snapshots,
                weights=group.in_weight,
                layout=layout,
            )
        else:
            plan = GatherPlan(
                group.out_src,
                group.out_dst,
                group.out_bitmap,
                group.num_vertices,
                group.num_snapshots,
                weights=group.out_weight,
                layout=layout,
            )
        cache[key] = plan
    return plan


def stream_scatter(
    plan: Any,
    program: Any,
    values_flat: np.ndarray,
    acc_flat: np.ndarray,
    active: np.ndarray,
    snap_active: np.ndarray,
    *,
    monotone: bool,
    needs_degrees: bool,
    degree_cells: Optional[np.ndarray] = None,
) -> int:
    """One planned scatter over a destination-sorted stream (or a slice).

    ``plan`` is anything with the gather-plan stream surface —
    :class:`GatherPlan` for the serial executor, a
    :class:`repro.parallel.plan_shard.PlanShard` inside a worker process.
    Selects the live (edge, snapshot) stream entries, computes their
    messages elementwise, and folds them with the segmented kernel
    matching the program's gather ufunc; returns accumulator updates.
    ``degree_cells`` is the source out-degree array flattened in physical
    layout order (required when ``needs_degrees``) — per-entry degrees are
    gathered from it at ``plan.src_flat``, which equals the per-entry
    ``degrees[src, snap]`` lookup bit for bit.
    """
    if monotone:
        sel: Optional[np.ndarray] = plan.select_monotone(active, snap_active)
        if sel.size == 0:
            return 0
    else:
        sel = plan.select_stationary(snap_active)
        if sel is not None and sel.size == 0:
            return 0
    weights = None
    if program.needs_weights and plan.weight_stream is not None:
        weights = plan.weight_stream if sel is None else plan.weight_stream[sel]
    ncells = plan.num_vertices * plan.num_snapshots
    if weights is None and (sel is None or sel.size >= ncells):
        # Weight-free messages depend only on the (source, snapshot) cell:
        # evaluate the elementwise scatter once per cell over the flat
        # values array and gather the results — identical inputs through
        # identical IEEE operations, so every message bit is unchanged,
        # but the arithmetic shrinks from stream-sized to V*S_g-sized.
        deg = degree_cells if needs_degrees else None
        with np.errstate(invalid="ignore"):
            cell_msg = program.scatter(values_flat, None, deg)
        msg = cell_msg[plan.src_flat if sel is None else plan.src_flat[sel]]
    else:
        src_flat = plan.src_flat if sel is None else plan.src_flat[sel]
        vals = values_flat[src_flat]
        deg = None
        if needs_degrees:
            assert degree_cells is not None  # contract: see docstring
            deg = degree_cells[src_flat]
        with np.errstate(invalid="ignore"):
            msg = program.scatter(vals, weights, deg)
    return plan.fold(acc_flat, program.gather.ufunc, msg, sel)


def planned_scatter(ctx: Any, direction: str) -> int:
    """Run one planned scatter for ``ctx``; returns accumulator updates.

    Under ``executor="process"`` the scatter is delegated to the
    shared-memory worker pool (each worker folds its exclusive destination
    shard); otherwise it runs in-process via :func:`stream_scatter`.
    """
    if ctx.shm is not None:
        return ctx.shm.scatter(direction)
    state = ctx.state
    program = ctx.program
    plan = state.gather_plan(direction)
    needs_degrees = program.needs_degrees
    return stream_scatter(
        plan,
        program,
        state.values_flat,
        state.acc_flat,
        state.active,
        state.snap_active,
        monotone=ctx.monotone,
        needs_degrees=needs_degrees,
        degree_cells=(
            plan.cell_degrees(ctx.group.out_degrees) if needs_degrees else None
        ),
    )


def vectorized_scatter(ctx: "ExecContext") -> None:
    """One untraced scatter phase: the mode's accounting of one planned scatter.

    Push enumerates the out-edges of its frontier (every out-edge for
    REGATHER programs) and, for MONOTONE programs, scans its own O(|V|)
    dirty bits; pull enumerates the full in-edge array and checks one
    dirty bit per live in-neighbour — its O(|E|) overhead, read off the
    plan's per-snapshot stream histogram; stream (X-Stream) enumerates the
    full out-edge array and writes one update entry per fold. The plan's
    destination sort refines stream mode's shuffle order (bucket id is
    monotone in destination vertex), so per-destination fold order — and
    therefore every result bit — is the same in all three.
    """
    group = ctx.group
    state = ctx.state
    counters = ctx.counters
    mode = ctx.config.mode
    if mode is Mode.PUSH:
        edge_counts = np.diff(group.out_index)
        if ctx.monotone:
            counters.dirty_checks += group.num_vertices * group.num_snapshots
            active_now = state.active & state.snap_active[None, :]
            active_any = active_now.any(axis=1)
            n_sel = int(edge_counts[active_any].sum())
            if n_sel == 0:
                return
            # One enumeration covers every edge of every active vertex.
            counters.edge_array_accesses += n_sel
            counters.vertex_value_reads += int(
                active_now[active_any & (edge_counts > 0)].sum()
            )
        else:
            counters.edge_array_accesses += group.num_edges
            counters.vertex_value_reads += int((edge_counts > 0).sum()) * int(
                state.snap_active.sum()
            )
        counters.acc_updates += planned_scatter(ctx, "out")
        return
    counters.edge_array_accesses += group.num_edges
    if mode is Mode.PULL:
        plan = state.gather_plan("in")
        counters.dirty_checks += int(
            plan.snap_entry_counts[state.snap_active].sum()
        )
        updates = planned_scatter(ctx, "in")
    else:
        updates = planned_scatter(ctx, "out")
        counters.update_entries += updates
    counters.acc_updates += updates
    counters.vertex_value_reads += updates
