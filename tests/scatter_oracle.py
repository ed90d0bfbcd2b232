"""Per-edge push / pull / stream arithmetic, kept as the walk's oracle.

Until the simulated engine (:mod:`repro.engine.traced`) became charge-only,
every simulated run computed its values and the six logical counters
a second time in per-edge push / pull / stream loops, beside the native
walk. :func:`oracle_scatter` is that arithmetic with the memory hierarchy,
locks and messages taken out: one Python loop per mode that visits one
edge at a time, calls the program's ``scatter`` for the edge's batched
snapshots and folds the messages into the accumulator with the gather
ufunc. :func:`oracle_run` runs a series with it in place of
:func:`repro.engine.kernels.vectorized_scatter`. An engine run must equal
the oracle run of its configuration in value bytes and in every one of
:data:`tests.conftest.LOGICAL_COUNTERS` (``assert_matches_oracle``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine import runner
from repro.engine.common import ExecContext
from repro.engine.config import EngineConfig, Mode
from repro.engine.traced import snap_indices


def _source_messages(
    ctx: ExecContext, degs: Optional[np.ndarray]
) -> Callable[[int, int], np.ndarray]:
    """Per-source message memo for one weight-free scatter phase.

    Weight-free scatter depends only on the source vertex, and values are
    immutable during a scatter phase, so pull and stream compute a
    source's messages once per iteration instead of once per edge.
    """
    program = ctx.program
    values = ctx.state.values
    Sg = ctx.group.num_snapshots
    cache: Dict[int, np.ndarray] = {}

    def messages(u: int, umask: int) -> np.ndarray:
        arr = cache.get(u)
        if arr is None:
            usnaps = snap_indices(umask)
            arr = np.empty(Sg, dtype=np.float64)
            with np.errstate(invalid="ignore"):
                arr[usnaps] = program.scatter(
                    values[u, usnaps],
                    None,
                    None if degs is None else degs[u, usnaps],
                )
            cache[u] = arr
        return arr

    return messages


def oracle_scatter(ctx: ExecContext) -> None:
    """One scatter phase in the mode of ``ctx.config``, one edge at a time."""
    mode = ctx.config.mode
    if mode is Mode.PUSH:
        _push_scatter(ctx)
    elif mode is Mode.PULL:
        _pull_scatter(ctx)
    else:
        _stream_scatter(ctx)


def oracle_run(series, program, config: EngineConfig) -> runner.RunResult:
    """``run(series, program, config)`` with every scatter phase computed by
    :func:`oracle_scatter` instead of the native walk."""
    walk = runner.vectorized_scatter
    runner.vectorized_scatter = oracle_scatter
    try:
        return runner.run(series, program, config)
    finally:
        runner.vectorized_scatter = walk


def _push_scatter(ctx: ExecContext) -> None:
    group = ctx.group
    state = ctx.state
    program = ctx.program
    counters = ctx.counters

    V = group.num_vertices
    Sg = group.num_snapshots
    out_index = group.out_index
    out_dst = group.out_dst
    out_bitmap = group.out_bitmap
    weights = group.out_weight if program.needs_weights else None
    values = state.values
    acc = state.acc
    degs = group.out_degrees if program.needs_degrees else None
    ufunc = program.gather.ufunc
    monotone = ctx.monotone
    front = state.front
    snap_mask = state.running

    for u in range(V):
        e0 = int(out_index[u])
        e1 = int(out_index[u + 1])
        if monotone:
            # Push checks only its own dirty bits: the O(|V|) cost the
            # paper contrasts with pull's O(|E|) neighbour checks.
            counters.dirty_checks += Sg
            umask = int(front[u]) & snap_mask
            if umask == 0 or e0 == e1:
                continue
        else:
            if e0 == e1:
                continue
            umask = snap_mask
        usnaps = snap_indices(umask)
        counters.vertex_value_reads += len(usnaps)
        vals_u = values[u]
        deg_u = degs[u] if degs is not None else None
        # Weight-free scatter depends only on the source: compute the
        # message once per vertex instead of once per edge.
        msg_full = None
        if weights is None:
            msg_full = np.empty(Sg, dtype=np.float64)
            with np.errstate(invalid="ignore"):
                msg_full[usnaps] = program.scatter(
                    vals_u[usnaps],
                    None,
                    None if deg_u is None else deg_u[usnaps],
                )
        for e in range(e0, e1):
            counters.edge_array_accesses += 1
            bm = int(out_bitmap[e]) & umask
            if bm == 0:
                continue
            snaps = snap_indices(bm)
            v = int(out_dst[e])
            if msg_full is not None:
                msg = msg_full[snaps]
            else:
                with np.errstate(invalid="ignore"):
                    msg = program.scatter(
                        vals_u[snaps],
                        weights[e, snaps],
                        None if deg_u is None else deg_u[snaps],
                    )
            acc[v, snaps] = ufunc(acc[v, snaps], msg)
            counters.acc_updates += len(snaps)


def _pull_scatter(ctx: ExecContext) -> None:
    group = ctx.group
    state = ctx.state
    program = ctx.program
    counters = ctx.counters

    V = group.num_vertices
    in_index = group.in_index
    in_src = group.in_src
    in_bitmap = group.in_bitmap
    weights = group.in_weight if program.needs_weights else None
    values = state.values
    acc = state.acc
    degs = group.out_degrees if program.needs_degrees else None
    ufunc = program.gather.ufunc
    monotone = ctx.monotone
    front = state.front
    snap_mask = state.running
    cached_messages = _source_messages(ctx, degs) if weights is None else None

    for v in range(V):
        for e in range(int(in_index[v]), int(in_index[v + 1])):
            counters.edge_array_accesses += 1
            bm = int(in_bitmap[e]) & snap_mask
            if bm == 0:
                continue
            u = int(in_src[e])
            snaps = snap_indices(bm)
            # The per-neighbour dirty check — pull's O(|E|) overhead.
            counters.dirty_checks += len(snaps)
            if monotone:
                dm = bm & int(front[u])
                if dm == 0:
                    continue
                dsnaps = snap_indices(dm)
            else:
                dsnaps = snaps
            counters.vertex_value_reads += len(dsnaps)
            if cached_messages is not None:
                umask = int(front[u]) & snap_mask if monotone else snap_mask
                msg = cached_messages(u, umask)[dsnaps]
            else:
                with np.errstate(invalid="ignore"):
                    msg = program.scatter(
                        values[u, dsnaps],
                        weights[e, dsnaps],
                        None if degs is None else degs[u, dsnaps],
                    )
            acc[v, dsnaps] = ufunc(acc[v, dsnaps], msg)
            counters.acc_updates += len(dsnaps)


def _stream_scatter(ctx: ExecContext) -> None:
    group = ctx.group
    state = ctx.state
    program = ctx.program
    counters = ctx.counters

    out_src = group.out_src
    out_dst = group.out_dst
    out_bitmap = group.out_bitmap
    weights = group.out_weight if program.needs_weights else None
    values = state.values
    acc = state.acc
    degs = group.out_degrees if program.needs_degrees else None
    ufunc = program.gather.ufunc
    monotone = ctx.monotone
    front = state.front
    snap_mask = state.running
    cached_messages = _source_messages(ctx, degs) if weights is None else None

    # Shuffle buckets: X-Stream's streaming partitions.
    num_buckets = max(ctx.sim.num_cores if ctx.sim else 1, 4)
    V = max(group.num_vertices, 1)

    # Phase 1: scatter — stream the edge array, emit update entries.
    per_bucket: List[List[Tuple[int, np.ndarray, np.ndarray]]] = [
        [] for _ in range(num_buckets)
    ]
    for e in range(group.num_edges):
        src = int(out_src[e])
        counters.edge_array_accesses += 1
        bm = int(out_bitmap[e]) & snap_mask
        if bm == 0:
            continue
        if monotone:
            bm &= int(front[src])
            if bm == 0:
                continue
        snaps = snap_indices(bm)
        counters.vertex_value_reads += len(snaps)
        if cached_messages is not None:
            umask = int(front[src]) & snap_mask if monotone else snap_mask
            msg = cached_messages(src, umask)[snaps]
        else:
            with np.errstate(invalid="ignore"):
                msg = program.scatter(
                    values[src, snaps],
                    weights[e, snaps],
                    None if degs is None else degs[src, snaps],
                )
        counters.update_entries += len(snaps)
        dst = int(out_dst[e])
        # Phase 2: shuffle — updates land in destination-range buckets
        # in append order.
        per_bucket[dst * num_buckets // V].append((dst, snaps, msg))

    # Phase 3: gather — per bucket, apply updates to accumulators.
    for bucket in per_bucket:
        for dst, snaps, msg in bucket:
            acc[dst, snaps] = ufunc(acc[dst, snaps], msg)
            counters.acc_updates += len(snaps)
