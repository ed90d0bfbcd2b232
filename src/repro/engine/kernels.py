"""The vectorised scatter: one cached, edge-major gather plan per group.

This is the one production scatter path. A :class:`GatherPlan` unpacks a
group's edge bitmaps exactly once per
:class:`~repro.temporal.series.GroupView`: the live ``(edge, snapshot)``
pairs of the group's **in-edge array** are flattened, in enumeration
order, into a COO stream of flat indices in the accumulator's *physical*
layout order. The in-edge array is already in ``(dst, src)`` order — the
stable destination sort of the out-edge array — so the stream is
``(dst, src, snapshot)``-ordered with no sort at all, one plan serves
push, pull and stream, and each iteration's fold is one call of the native
gather-fold (:func:`fold_stream`, :func:`repro.native.fold`): a C
loop applying ``acc_flat[dst_flat[p]] = op(acc_flat[dst_flat[p]], m)`` per
selected entry ``p``. Weight-free programs pass one message per
``(vertex, snapshot)`` cell and the loop gathers ``m = msg[src_flat[p]]``
itself, so no stream-length message array is built; weighted programs pass
one message per selected entry.

Bitwise identity with the per-edge simulated engine
(:mod:`repro.engine.traced`) holds by construction: the fold applies its
entries one by one in stream order, each with NumPy's scalar combine
rule (``tests/test_kernel_plans.py`` checks it against ``ufunc.at``), and
every destination cell's
contributions sit in the stream in source-ascending order — the order a
per-edge loop reaches them in, whether it walks the out-edge array (push),
the in-edge array (pull) or stream mode's shuffle buckets (bucket id is
monotone in destination vertex). Consecutive entries target *different*
cells, so the fold has no store-to-load chain on one accumulator element —
which a destination-cell-sorted stream has, and why that order was slower.

Monotone frontiers compose with the plan through a cached per-source CSR
over the stream: a small frontier gathers its candidate positions from the
active sources' CSR slices — ascending sources over a ``(dst, src)``
stream, so every cell's contributions stay in stream order — instead of
masking the whole stream. Push, pull and stream are three *accountings*
of this one scatter (:func:`vectorized_scatter`).

Selection and fold run over a stream range ``[lo, hi)``. Serial execution
is the one range ``[0, length)``; the thread executor
(:mod:`repro.parallel.shm`) cuts the stream at destination-vertex
boundaries into one range per thread, so each range owns its cells and
the same code folds them on every executor.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro import native
from repro.engine.config import Mode
from repro.layout.vertex_array import LayoutKind, flat_destination_index
from repro.obs import runtime as obs
from repro.parallel.plan_shard import check_ownership
from repro.temporal.bitmap import popcounts

if TYPE_CHECKING:
    from repro.algorithms.program import VertexProgram
    from repro.engine.common import ExecContext
    from repro.temporal.series import GroupView

#: When the monotone frontier's candidate stream entries are fewer than
#: ``stream_length / _CSR_SELECT_FACTOR``, selection goes through the
#: per-source CSR slices instead of masking the full stream.
_CSR_SELECT_FACTOR = 4

#: The native combine kind of each gather ufunc.
_NATIVE_KINDS = {
    np.add: "add",
    np.minimum: "min",
    np.maximum: "max",
    np.logical_or: "max",
    np.logical_and: "min",
}

#: Logical gathers fold as max / min over truth-valued messages: float
#: accumulators encode False / True as 0.0 / 1.0, on which these equal
#: ``logical_or`` / ``logical_and`` byte for byte, so two C loops serve
#: four gather kinds.
_TRUTH_FOLDS = (np.logical_or, np.logical_and)


def fold_stream(
    acc_flat: np.ndarray,
    ufunc: np.ufunc,
    dst_flat: np.ndarray,
    msg: np.ndarray,
    sel: Optional[np.ndarray] = None,
    src: Optional[np.ndarray] = None,
) -> int:
    """``acc_flat[dst_flat[p]] = ufunc(acc_flat[dst_flat[p]], m)``, in order.

    ``p`` runs over ``sel`` (None = every entry); ``m`` is
    ``msg[src[p]]`` when ``src`` is given (one message per cell), else
    ``msg[i]`` for the ``i``-th folded entry. The engine's one accumulator
    write (chronolint CHR002): a sequential per-entry native fold, so
    per-cell application order is the stream's order. Returns the number
    of entries folded.
    """
    if ufunc in _TRUTH_FOLDS:
        msg = msg != 0
    return native.fold(
        _NATIVE_KINDS[ufunc],
        acc_flat,
        dst_flat,
        np.ascontiguousarray(msg, dtype=np.float64),
        sel,
        src,
    )


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + counts[i])``."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )


class GatherPlan:
    """The edge-major COO stream of one group's live (in-edge, snapshot) pairs.

    Built once per (group, accumulator layout) from the group's in-edge
    array — ``(dst, src)``-ordered, which the constructor relies on — and
    reused by every mode and iteration of every run over that group.
    Per-iteration state (frontiers, snapshot masks) enters through the
    ``select_*`` methods.
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
        degrees: Optional[np.ndarray] = None,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.num_snapshots = int(num_snapshots)
        self.layout = layout

        # Unpack every edge's snapshot bitmap exactly once; the mask walks
        # it edge-major, snapshots ascending: (dst, src, snapshot) order.
        bits = np.unpackbits(
            bitmap.astype("<u8").view(np.uint8).reshape(bitmap.shape[0], 8),
            axis=1,
            count=num_snapshots,
            bitorder="little",
        ).view(bool)
        self.snap_ids = np.broadcast_to(
            np.arange(num_snapshots, dtype=np.uint8), bits.shape
        )[bits]
        snap_ids = self.snap_ids.astype(np.int64)
        #: Live entries per edge (an edge's entries are contiguous).
        self._live = popcounts(bitmap)
        src_ids = np.repeat(src, self._live)
        #: Flat destination / source index per entry, in the accumulator's
        #: physical order. Kept at the platform index width: they are
        #: consumed as fancy indices every iteration, and a narrow dtype
        #: would force a stream-sized cast per use.
        self.dst_flat = flat_destination_index(
            layout, np.repeat(dst, self._live), snap_ids, num_vertices, num_snapshots
        ).astype(np.intp, copy=False)
        self.src_flat = flat_destination_index(
            layout, src_ids, snap_ids, num_vertices, num_snapshots
        ).astype(np.intp, copy=False)
        #: Flat source index in C (V, S_g) order, for the boolean masks
        #: (active/dirty), which are always C-contiguous ``(V, S_g)`` —
        #: the time-locality physical order, hence an alias there.
        self.src_flat_c = self.src_flat
        if layout is not LayoutKind.TIME_LOCALITY:
            self.src_flat_c = (src_ids * num_snapshots + snap_ids).astype(
                np.intp, copy=False
            )
        self.weight_stream = None if weights is None else weights[bits]
        self.length = int(self.dst_flat.shape[0])
        #: Stream entries per snapshot (pull mode's dirty-check count).
        self.snap_entry_counts = np.array(
            [np.count_nonzero(bits[:, s]) for s in range(num_snapshots)],
            dtype=np.int64,
        )

        # References (not copies) for the lazily derived structures.
        self._src = src
        self._degrees = degrees

    # ------------------------------------------------------------------ #
    # cached derived structures

    @cached_property
    def degree_cells(self) -> np.ndarray:
        """The group's out-degrees flattened in physical layout order.

        Lets weight-free scatters evaluate once per ``(vertex, snapshot)``
        cell instead of once per stream entry (see :func:`stream_scatter`).
        """
        time_major = self.layout is LayoutKind.TIME_LOCALITY
        phys = self._degrees if time_major else self._degrees.T
        return np.ascontiguousarray(phys).reshape(-1)

    def dst_vertices(self) -> np.ndarray:
        """Destination vertex per entry (non-decreasing), derived from
        ``dst_flat`` itself: sanitizer and shard cuts see what the fold writes."""
        if self.layout is LayoutKind.TIME_LOCALITY:
            return self.dst_flat // self.num_snapshots
        return self.dst_flat % self.num_vertices

    @cached_property
    def _source_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ptr, positions)``: stream positions grouped by source vertex —
        the E edges sorted by source (stable: a source's edges stay in stream
        order), each expanded to its contiguous stream range."""
        live = self._live
        # E keys, downcast so the stable sort radix-passes fewer bytes.
        narrow = np.min_scalar_type(self.num_vertices)
        order = np.argsort(self._src.astype(narrow), kind="stable")
        positions = _ragged_ranges((np.cumsum(live) - live)[order], live[order])
        per_source = np.bincount(
            self._src, weights=live, minlength=self.num_vertices
        )
        ptr = np.concatenate(([0], np.cumsum(per_source))).astype(np.int64)
        return ptr, positions

    # ------------------------------------------------------------------ #
    # per-iteration selection and fold

    def select_stationary(
        self, snap_active: np.ndarray, lo: int, hi: int
    ) -> Optional[np.ndarray]:
        """Positions of range ``[lo, hi)`` live under ``snap_active``,
        relative to ``lo``; None = the whole range."""
        if snap_active.all():
            return None
        return np.flatnonzero(snap_active[self.snap_ids[lo:hi]])

    def select_monotone(
        self, active: np.ndarray, snap_active: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Positions of range ``[lo, hi)``, relative to ``lo``, whose
        (source, snapshot) is in the frontier.

        Equals ``flatnonzero(snap_active[s] & active[src, s])`` over the
        range up to order: a frontier with fewer candidates than a
        ``1 / _CSR_SELECT_FACTOR`` share of the range is resolved through
        the per-source CSR slices, keeping the candidates inside the range
        (source-major, which keeps every destination cell's entries in
        stream order), instead of masking the whole range.
        """
        active_now = active & snap_active[None, :]
        frontier = np.flatnonzero(active_now.any(axis=1))
        if frontier.size == 0 or hi <= lo:
            return np.empty(0, dtype=np.int64)
        active_flat = active_now.reshape(-1)  # C-order (V, S_g)
        src_c = self.src_flat_c[lo:hi]
        ptr, positions = self._source_csr
        counts = ptr[frontier + 1] - ptr[frontier]
        if int(counts.sum()) * _CSR_SELECT_FACTOR >= hi - lo:
            return np.flatnonzero(active_flat[src_c])
        cand = positions[_ragged_ranges(ptr[frontier], counts)]
        if lo > 0 or hi < self.length:
            cand = cand[(cand >= lo) & (cand < hi)] - lo
        return cand[active_flat[src_c[cand]]]

    def fold(
        self,
        acc_flat: np.ndarray,
        ufunc: np.ufunc,
        msg: np.ndarray,
        sel: Optional[np.ndarray],
        lo: int,
        hi: int,
        per_cell: bool = False,
    ) -> int:
        """Fold ``msg`` at the selected positions of range ``[lo, hi)``
        (None = all); returns updates.

        ``per_cell`` messages are one per ``(vertex, snapshot)`` cell,
        gathered through ``src_flat``; see :func:`fold_stream`.
        """
        src = self.src_flat[lo:hi] if per_cell else None
        return fold_stream(acc_flat, ufunc, self.dst_flat[lo:hi], msg, sel, src)


# ---------------------------------------------------------------------- #
# plan cache and the engine entry point


def plan_for(group: "GroupView", direction: str, layout: LayoutKind) -> GatherPlan:
    """The (cached) gather plan of a group — the same object for ``"out"``
    and ``"in"``: the edge-major in-edge stream serves every mode.

    Plans depend only on the group's immutable topology, so they are cached
    on the :class:`~repro.temporal.series.GroupView` itself and shared by
    every run/iteration over that group.
    """
    plan = group.plan_cache.get(layout)
    obs.add("plan.cache_hits" if plan is not None else "plan.cache_builds")
    if plan is None:
        plan = group.plan_cache[layout] = GatherPlan(
            group.in_src,
            group.in_dst,
            group.in_bitmap,
            group.num_vertices,
            group.num_snapshots,
            weights=group.in_weight,
            layout=layout,
            degrees=group.out_degrees,
        )
    return plan


def stream_scatter(
    plan: GatherPlan,
    lo: int,
    hi: int,
    program: "VertexProgram",
    values_flat: np.ndarray,
    acc_flat: np.ndarray,
    active: np.ndarray,
    snap_active: np.ndarray,
    *,
    monotone: bool,
    degree_cells: Optional[np.ndarray] = None,
    claims: Optional[np.ndarray] = None,
    worker: int = 0,
    group: int = -1,
) -> int:
    """One planned scatter over the range ``[lo, hi)`` of ``plan``'s stream.

    Serial execution is the range ``[0, plan.length)``; the thread
    executor runs one destination-vertex range per pool thread. Selects
    the range's live (edge, snapshot) entries, computes their messages
    elementwise, and folds them sequentially with the program's gather
    ufunc (:func:`fold_stream`); returns accumulator updates.
    ``degree_cells`` is the source out-degree array flattened in physical
    layout order (given iff the program needs degrees) — per-entry degrees
    are gathered from it at ``plan.src_flat``, which equals the per-entry
    ``degrees[src, snap]`` lookup bit for bit. With the sanitizer's
    ``claims`` map, the selected destination cells must belong to
    ``worker`` before anything is folded
    (:func:`repro.parallel.plan_shard.check_ownership`).
    """
    if monotone:
        sel: Optional[np.ndarray] = plan.select_monotone(active, snap_active, lo, hi)
        if sel.size == 0:
            return 0
    else:
        sel = plan.select_stationary(snap_active, lo, hi)
        if sel is not None and sel.size == 0:
            return 0
    if claims is not None:
        dst = plan.dst_flat[lo:hi]
        check_ownership(claims, dst if sel is None else dst[sel], worker, group)
    ufunc = program.gather.ufunc
    if not program.needs_weights or plan.weight_stream is None:
        # Weight-free messages depend only on the (source, snapshot) cell:
        # evaluate the elementwise scatter once per cell over the flat
        # values array and let the fold gather them by ``src_flat`` —
        # identical inputs through identical IEEE operations, so every
        # message bit is unchanged, with V*S_g-sized arithmetic and no
        # stream-sized temporary.
        with np.errstate(invalid="ignore"):
            cell_msg = program.scatter(values_flat, None, degree_cells)
        return plan.fold(acc_flat, ufunc, cell_msg, sel, lo, hi, per_cell=True)
    src_flat = plan.src_flat[lo:hi]
    weights = plan.weight_stream[lo:hi]
    if sel is not None:
        src_flat = src_flat[sel]
        weights = weights[sel]
    deg = None if degree_cells is None else degree_cells[src_flat]
    with np.errstate(invalid="ignore"):
        msg = program.scatter(values_flat[src_flat], weights, deg)
    return plan.fold(acc_flat, ufunc, msg, sel, lo, hi)


def planned_scatter(ctx: "ExecContext") -> int:
    """Run one planned scatter for ``ctx``; returns accumulator updates.

    :func:`stream_scatter` runs once per range of the group's cuts
    (``ctx.bounds``): one range in this thread, more on the worker-thread
    pool (:func:`repro.parallel.shm.scatter_ranges`), each thread folding
    its exclusive destination range.
    """
    state = ctx.state
    program = ctx.program
    plan = state.gather_plan()
    bounds = ctx.bounds
    monotone = ctx.monotone
    degree_cells = plan.degree_cells if program.needs_degrees else None
    group = int(ctx.group.start)

    def scatter(w: int) -> int:
        return stream_scatter(
            plan,
            int(bounds[w]),
            int(bounds[w + 1]),
            program,
            state.values_flat,
            state.acc_flat,
            state.active,
            state.snap_active,
            monotone=monotone,
            degree_cells=degree_cells,
            claims=ctx.claims,
            worker=w,
            group=group,
        )

    ranges = int(bounds.shape[0]) - 1
    if ranges == 1:
        return scatter(0)
    if monotone:
        plan._source_csr  # built here once, not raced by the range threads
    from repro.parallel.shm import scatter_ranges

    return scatter_ranges(scatter, ranges)


def vectorized_scatter(ctx: "ExecContext") -> None:
    """One untraced scatter phase: the mode's accounting of one planned scatter.

    Push enumerates the out-edges of its frontier (every out-edge for
    REGATHER programs) and, for MONOTONE programs, scans its own O(|V|)
    dirty bits; pull enumerates the full in-edge array and checks one
    dirty bit per live in-neighbour — its O(|E|) overhead, read off the
    plan's per-snapshot stream histogram; stream (X-Stream) enumerates the
    full out-edge array and writes one update entry per fold. The plan's
    ``(dst, src)`` order refines stream mode's shuffle order (bucket id is
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
        counters.acc_updates += planned_scatter(ctx)
        return
    counters.edge_array_accesses += group.num_edges
    if mode is Mode.PULL:
        counters.dirty_checks += int(
            state.gather_plan().snap_entry_counts[state.snap_active].sum()
        )
        updates = planned_scatter(ctx)
    else:
        updates = planned_scatter(ctx)
        counters.update_entries += updates
    counters.acc_updates += updates
    counters.vertex_value_reads += updates
