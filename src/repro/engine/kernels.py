"""The vectorised scatter: one native walk of the group's edge array.

This is the one production scatter path, and it is the paper's LABS loop
(PAPER §1, contribution 2): one enumeration of the group's edge array
propagates along each edge for every batched snapshot, driven by the
edge's snapshot bitmap. Each iteration is one call of the native walk
(:func:`repro.native.walk`, ``native/fold.c``) per range:

- the **dense walk** runs over the in-edges ``e`` of the range and folds
  ``acc[dst·vs + s·ss] op= m`` for each set bit ``s`` of
  ``in_bitmap[e] & (frontier word of in_src[e] | the snapshot mask)``;
- the **sparse walk** (monotone programs, small frontiers) runs over the
  out-edges of the frontier's rows in ascending source order instead —
  the paper's push mode over dirty bits — when those are fewer than
  ``1 / SPARSE_FRACTION`` of the group's edges.

``vs, ss`` are the accumulator layout's vertex and snapshot strides, so
both layouts share the loop. Weight-free programs compute one message per
``(vertex, snapshot)`` cell in NumPy and the walk gathers it by source;
weighted programs declare their edge op (:attr:`VertexProgram.edge_op`:
SSSP adds, SpMV multiplies) and the walk forms ``values[cell] op w[e, s]``
itself, reading the group's weight matrix through its row stride. The
frontier is one ``uint64`` word per vertex (a series holds at most
:data:`~repro.temporal.bitmap.MAX_SNAPSHOTS` = 64 snapshots), settled by
apply (:func:`repro.native.settle`) with the running snapshots' word. Nothing
per ``(edge, snapshot)`` is built or kept: the group's edge arrays are
the plan.

The walk is the only producer of values and logical counters, traced
runs included: the simulated engine (:mod:`repro.engine.traced`) only
charges a traced run's accesses after it. It applies its pairs one by
one, each with NumPy's scalar combine rule (``tests/test_kernel_plans.py``
checks it against ``ufunc.at``), and every destination cell's
contributions arrive in source-ascending order — the in-edge array is
``(dst, src)``-ordered and the sparse walk takes its rows ascending —
which is the order a per-edge loop reaches them in, whether it walks the
out-edge array (push), the in-edge array (pull) or stream mode's shuffle
buckets (bucket id is monotone in destination vertex). Push, pull and
stream are three *accountings* of this one scatter
(:func:`vectorized_scatter`). ``tests/scatter_oracle.py`` keeps those
per-edge loops, and ``tests/plan_oracle.py`` the per-cell index stream
this walk replaced, as its oracles.

The walk runs over destination-vertex ranges ``[v_lo, v_hi)`` cut from
``in_index`` (:func:`repro.parallel.shm.cut_ranges`): the dense walk over
the in-edges ``[in_index[v_lo], in_index[v_hi])``, the sparse walk
keeping only destinations inside the interval. Serial execution is the
one range ``[0, V)``; the thread executor runs one range per thread, and
each range owns its cells.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Any, Tuple

import numpy as np

from repro import native
from repro.engine.config import Mode
from repro.layout.vertex_array import LayoutKind
from repro.temporal.bitmap import bits_iter, popcount, popcounts

if TYPE_CHECKING:
    from repro.engine.common import ExecContext
    from repro.temporal.series import GroupView

#: A monotone frontier takes the sparse walk when its rows' out-edges
#: number fewer than ``num_edges / SPARSE_FRACTION``.
SPARSE_FRACTION = 2

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


class WalkOperands:
    """What the walk reads of one group besides its edge arrays, per layout.

    Nothing here is built per ``(edge, snapshot)``: the strides are two
    integers, the weight matrix is the group's own, and the cached arrays
    are per ``(vertex, snapshot)`` cell, per vertex and per snapshot.
    """

    def __init__(self, group: "GroupView", layout: LayoutKind) -> None:
        self.group = group
        self.layout = layout
        V, S = group.num_vertices, group.num_snapshots
        #: The accumulator's vertex and snapshot strides.
        self.strides: Tuple[int, int] = (
            (S, 1) if layout is LayoutKind.TIME_LOCALITY else (1, V)
        )
        #: The in-edges' ``(E, S_g)`` weights (None when unweighted).
        self.weights = group.in_weight

    @cached_property
    def degree_cells(self) -> np.ndarray:
        """The group's out-degrees flattened in physical layout order, so
        weight-free scatters evaluate once per ``(vertex, snapshot)`` cell."""
        degrees = self.group.out_degrees
        if self.layout is not LayoutKind.TIME_LOCALITY:
            degrees = degrees.T
        return np.ascontiguousarray(degrees).reshape(-1)

    @cached_property
    def exists(self) -> np.ndarray:
        """Each vertex's live snapshots in the group, one word per vertex."""
        return frontier_words(self.group.vertex_exists)

    @cached_property
    def out_edges(self) -> np.ndarray:
        """Out-edges per vertex: what push enumerates for a frontier row."""
        return np.diff(self.group.out_index)

    @cached_property
    def snapshot_counts(self) -> np.ndarray:
        """Live in-edges per snapshot (pull mode's dirty-check count): every
        live edge adds one to its source's out-degree in that snapshot."""
        return self.group.out_degrees.sum(axis=0)


def plan_for(group: "GroupView", direction: str, layout: LayoutKind) -> WalkOperands:
    """The walk operands of ``group`` in ``layout`` — the same for ``"out"``
    and ``"in"``: the one walk serves every mode. Builds nothing per edge."""
    return WalkOperands(group, layout)


def frontier_words(active: np.ndarray, snap_active: Any = True) -> np.ndarray:
    """One ``uint64`` per vertex: bit ``s`` set when ``(v, s)`` is active
    and its snapshot running (a group's entry frontier)."""
    cells = np.zeros((active.shape[0], 64), dtype=bool)
    cells[:, : active.shape[1]] = active & snap_active
    return np.packbits(cells, bitorder="little").view("<u8").astype(np.uint64)


def snapshot_mask(snap_active: np.ndarray) -> int:
    """The snapshots set in a boolean row as one bitmap word."""
    return sum(1 << int(s) for s in np.flatnonzero(snap_active))


def walk(
    acc_flat: np.ndarray,
    ufunc: np.ufunc,
    msg: np.ndarray,
    edges: Tuple[np.ndarray, np.ndarray, np.ndarray],
    lo: int,
    hi: int,
    strides: Tuple[int, int],
    num_snapshots: int,
    **options: Any,
) -> int:
    """Fold one walk of ``edges`` into ``acc_flat`` with the gather ``ufunc``.

    The engine's one accumulator write (chronolint CHR002): the native
    walk (:func:`repro.native.walk`, which documents the arguments and
    ``options``), with logical gathers folded as max / min over truth
    values. Returns the number of ``(edge, snapshot)`` pairs folded.
    """
    if ufunc in _TRUTH_FOLDS:
        msg = msg != 0
    return native.walk(
        _NATIVE_KINDS[ufunc],
        acc_flat,
        np.ascontiguousarray(msg, dtype=np.float64),
        edges,
        lo,
        hi,
        strides,
        num_snapshots,
        **options,
    )


def walk_scatter(ctx: "ExecContext") -> int:
    """One scatter of ``ctx``'s group; returns accumulator updates.

    The walk runs once per range of the group's cuts (``ctx.bounds``):
    one range in this thread, more on the worker-thread pool
    (:func:`repro.parallel.shm.scatter_ranges`), each thread folding its
    exclusive destination interval. The dense or sparse choice is made
    once here, from the frontier words; each range computes the cell
    messages it gathers.
    """
    state = ctx.state
    program = ctx.program
    group = ctx.group
    operands = state.operands
    ufunc = program.gather.ufunc
    weighted = program.needs_weights and operands.weights is not None
    edge_op = program.edge_op if weighted else None
    degree_cells = operands.degree_cells if program.needs_degrees else None

    front = rows = None
    mask = 0
    if ctx.monotone:
        front = state.front
        rows = np.flatnonzero(front)
        if rows.size == 0:
            return 0
        if int(operands.out_edges[rows].sum()) * SPARSE_FRACTION >= group.num_edges:
            rows = None
    else:
        mask = state.running
    if rows is None:
        edges = (group.in_bitmap, group.in_src, group.in_dst)
        weights, index, bounds = operands.weights, None, ctx.bounds[0]
    else:
        edges = (group.out_bitmap, group.out_src, group.out_dst)
        weights, index, bounds = group.out_weight, group.out_index, ctx.bounds[1]
    if edge_op is None:
        weights = None

    def scatter(w: int) -> int:
        if edge_op is not None:
            # ``values[cell] op w[e, s]``, formed by the walk itself.
            msg = state.values_flat
        else:
            # Weight-free messages depend only on the (source, snapshot)
            # cell: one elementwise scatter over the flat values array.
            with np.errstate(invalid="ignore"):
                msg = program.scatter(state.values_flat, None, degree_cells)
        return walk(
            state.acc_flat,
            ufunc,
            msg,
            edges,
            int(bounds[w]),
            int(bounds[w + 1]),
            operands.strides,
            group.num_snapshots,
            mask=mask,
            front=front,
            rows=rows,
            index=index,
            weight=weights,
            edge_op=edge_op,
        )

    ranges = int(bounds.shape[0]) - 1
    if ranges == 1:
        return scatter(0)
    from repro.parallel.shm import scatter_ranges

    return scatter_ranges(scatter, ranges)


def vectorized_scatter(ctx: "ExecContext") -> None:
    """One scatter phase, traced or not: the mode's accounting of one walk.

    Push enumerates the out-edges of its frontier (every out-edge for
    REGATHER programs) and, for MONOTONE programs, scans its own O(|V|)
    dirty bits; pull enumerates the full in-edge array and checks one
    dirty bit per live in-neighbour — its O(|E|) overhead, read off the
    group's per-snapshot live edge counts; stream (X-Stream) enumerates
    the full out-edge array and writes one update entry per fold. The
    walk's per-cell source-ascending order refines stream mode's shuffle
    order (bucket id is monotone in destination vertex), so per-destination
    fold order — and therefore every result bit — is the same in all three.
    """
    group = ctx.group
    state = ctx.state
    counters = ctx.counters
    mode = ctx.config.mode
    if mode is Mode.PUSH:
        out_edges = state.operands.out_edges
        if ctx.monotone:
            counters.dirty_checks += group.num_vertices * group.num_snapshots
            rows = np.flatnonzero(state.front)
            # One enumeration covers every edge of every active vertex.
            counters.edge_array_accesses += int(out_edges[rows].sum())
            counters.vertex_value_reads += int(
                popcounts(state.front[rows[out_edges[rows] > 0]]).sum()
            )
        else:
            counters.edge_array_accesses += group.num_edges
            reads = int(np.count_nonzero(out_edges)) * popcount(state.running)
            counters.vertex_value_reads += reads
        counters.acc_updates += walk_scatter(ctx)
        return
    counters.edge_array_accesses += group.num_edges
    if mode is Mode.PULL:
        counters.dirty_checks += int(
            state.operands.snapshot_counts[list(bits_iter(state.running))].sum()
        )
        updates = walk_scatter(ctx)
    else:
        updates = walk_scatter(ctx)
        counters.update_entries += updates
    counters.acc_updates += updates
    counters.vertex_value_reads += updates
