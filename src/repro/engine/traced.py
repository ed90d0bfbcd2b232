"""The simulated engine: per-edge push / pull / stream scatters (paper Section 5).

These loops visit one edge at a time and charge every edge-array,
vertex-value, dirty-bit, accumulator, lock and update-buffer access to the
simulated memory hierarchy (:mod:`repro.memsim`); they produce the address
trace behind the paper's Tables 2–5. They are also the in-tree *reference*
for the vectorised scatter of :mod:`repro.engine.kernels`: an independent
implementation of the same per-cell fold order, so a ``trace=True`` run
equals an untraced run bit for bit on values and on the six logical
counters.

- **push** — each active source enumerates its out-edges and pushes its
  scattered value to the destination's accumulator. Under partition-
  parallelism the destination write is protected by a per-vertex lock; with
  LABS one enumeration, one lock, and one (contiguous) accumulator write
  cover all batched snapshots of the edge.
- **pull** — each destination scans its in-edges every iteration, checks
  the dirty bit of each (live) in-neighbour, and pulls the neighbour's
  value when it changed. No locks — a vertex is the only writer of its own
  state — but the dirty checks cost O(|E|) per iteration versus push's
  O(|V|), the trade-off the paper discusses at the end of Section 6.2.
- **stream** (X-Stream style) — *scatter* streams the edge array
  sequentially and appends one update ``(dst, messages-for-batched-
  snapshots)`` per live edge of an active source to a sequential update
  buffer; *shuffle* partitions the buffer into destination-range buckets;
  *gather* folds each bucket into the destination accumulators. Streaming
  keeps TLB misses low even at batch size 1 — the stream rows of Table 2 —
  which is why the paper observes the *least* LABS gain in this mode; an
  update entry still carries all batched snapshots of its edge, so the
  edge array and update buffer are traversed once per batch.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.common import ExecContext
from repro.engine.config import Mode

# Memoised bitmap -> ascending snapshot index array. Bitmaps repeat heavily
# across edges, so this keeps the traced inner loop cheap. Bounded as an
# LRU so long multi-group runs over high-churn series cannot grow it
# without limit.
_BITS_CACHE: "OrderedDict[int, np.ndarray]" = OrderedDict()
_BITS_CACHE_MAX = 1 << 16


def snap_indices(bitmap: int) -> np.ndarray:
    """Ascending snapshot indices set in ``bitmap`` (cached)."""
    cached = _BITS_CACHE.get(bitmap)
    if cached is None:
        nbytes = max((int(bitmap).bit_length() + 7) // 8, 1)
        unpacked = np.unpackbits(
            np.frombuffer(int(bitmap).to_bytes(nbytes, "little"), dtype=np.uint8),
            bitorder="little",
        )
        cached = np.flatnonzero(unpacked).astype(np.int64)
        cached.flags.writeable = False  # instances are shared via the cache
        _BITS_CACHE[bitmap] = cached
        if len(_BITS_CACHE) > _BITS_CACHE_MAX:
            _BITS_CACHE.popitem(last=False)
    else:
        _BITS_CACHE.move_to_end(bitmap)
    return cached


def mask_to_int(row: np.ndarray) -> int:
    """Pack a boolean snapshot row into a bitmap int (vectorised)."""
    row = np.ascontiguousarray(row, dtype=bool)
    if row.size == 0:
        return 0
    packed = np.packbits(row, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


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


def traced_scatter(ctx: ExecContext) -> None:
    """One simulated scatter phase in the mode of ``ctx.config``."""
    ctx.state.received[:] = False
    mode = ctx.config.mode
    if mode is Mode.PUSH:
        _push_scatter(ctx)
    elif mode is Mode.PULL:
        _pull_scatter(ctx)
    else:
        _stream_scatter(ctx)


def _push_scatter(ctx: ExecContext) -> None:
    group = ctx.group
    state = ctx.state
    program = ctx.program
    counters = ctx.counters
    hier = ctx.hierarchy
    core_of = ctx.core_of
    locks = ctx.locks
    distributed = ctx.config.distributed

    V = group.num_vertices
    Sg = group.num_snapshots
    out_index = group.out_index
    out_dst = group.out_dst
    out_bitmap = group.out_bitmap
    weights = group.out_weight if program.needs_weights else None
    values = state.values
    acc = state.acc
    received = state.received
    vlay = state.values_layout
    alay = state.acc_layout
    dlay = state.dirty_layout
    elay = state.edge_layout
    degs = group.out_degrees if program.needs_degrees else None
    ufunc = program.gather.ufunc
    monotone = ctx.monotone
    active = state.active
    snap_mask = mask_to_int(state.snap_active)
    all_snaps = np.arange(Sg, dtype=np.int64)

    for u in range(V):
        core = int(core_of[u])
        e0 = int(out_index[u])
        e1 = int(out_index[u + 1])
        if monotone:
            # Push checks only its own dirty bits: the O(|V|) cost the
            # paper contrasts with pull's O(|E|) neighbour checks.
            counters.dirty_checks += Sg
            for a, n in dlay.ranges(u, all_snaps):
                hier.access(a, n, False, core)
            umask = mask_to_int(active[u]) & snap_mask
            if umask == 0 or e0 == e1:
                continue
        else:
            if e0 == e1:
                continue
            umask = snap_mask
        usnaps = snap_indices(umask)
        for a, n in vlay.ranges(u, usnaps):
            hier.access(a, n, False, core)
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
            a, n = elay.entry_range(e)
            hier.access(a, n, False, core)
            bm = int(out_bitmap[e]) & umask
            if bm == 0:
                continue
            snaps = snap_indices(bm)
            v = int(out_dst[e])
            w_e = None
            if weights is not None:
                a2, n2 = elay.weight_range(e, int(snaps[0]), int(snaps[-1]) + 1)
                hier.access(a2, n2, False, core)
                w_e = weights[e, snaps]
            target_core = int(core_of[v])
            if distributed and target_core != core:
                # Cross-machine propagation becomes one message that
                # carries all batched snapshots of this edge.
                counters.messages += 1
                counters.message_bytes += 4 + 8 * len(snaps)
                write_core = target_core
            else:
                write_core = core
                if locks is not None:
                    base = locks.acquire(v, core)
                    hier.add_cycles(base, core)
                    counters.locks_acquired += 1
                    counters.lock_base_cycles += base
            for a3, n3 in alay.ranges(v, snaps):
                hier.access(a3, n3, True, write_core)
            if msg_full is not None:
                msg = msg_full[snaps]
            else:
                with np.errstate(invalid="ignore"):
                    msg = program.scatter(
                        vals_u[snaps],
                        w_e,
                        None if deg_u is None else deg_u[snaps],
                    )
            acc[v, snaps] = ufunc(acc[v, snaps], msg)
            received[v, snaps] = True
            counters.acc_updates += len(snaps)
            hier.alu(2 * len(snaps), core)


def _pull_scatter(ctx: ExecContext) -> None:
    group = ctx.group
    state = ctx.state
    program = ctx.program
    counters = ctx.counters
    hier = ctx.hierarchy
    core_of = ctx.core_of

    V = group.num_vertices
    in_index = group.in_index
    in_src = group.in_src
    in_bitmap = group.in_bitmap
    weights = group.in_weight if program.needs_weights else None
    values = state.values
    acc = state.acc
    received = state.received
    vlay = state.values_layout
    alay = state.acc_layout
    dlay = state.dirty_layout
    elay = state.in_edge_layout
    degs = group.out_degrees if program.needs_degrees else None
    ufunc = program.gather.ufunc
    monotone = ctx.monotone
    active = state.active
    snap_mask = mask_to_int(state.snap_active)
    cached_messages = _source_messages(ctx, degs) if weights is None else None

    for v in range(V):
        core = int(core_of[v])
        e0 = int(in_index[v])
        e1 = int(in_index[v + 1])
        for e in range(e0, e1):
            counters.edge_array_accesses += 1
            a, n = elay.entry_range(e)
            hier.access(a, n, False, core)
            bm = int(in_bitmap[e]) & snap_mask
            if bm == 0:
                continue
            u = int(in_src[e])
            snaps = snap_indices(bm)
            # The per-neighbour dirty check — pull's O(|E|) overhead.
            counters.dirty_checks += len(snaps)
            for a2, n2 in dlay.ranges(u, snaps):
                hier.access(a2, n2, False, core)
            if monotone:
                dm = bm & mask_to_int(active[u])
                if dm == 0:
                    continue
                dsnaps = snap_indices(dm)
            else:
                dsnaps = snaps
            for a3, n3 in vlay.ranges(u, dsnaps):
                hier.access(a3, n3, False, core)
            counters.vertex_value_reads += len(dsnaps)
            if cached_messages is not None:
                umask = mask_to_int(active[u]) & snap_mask if monotone else snap_mask
                msg = cached_messages(u, umask)[dsnaps]
            else:
                a4, n4 = elay.weight_range(e, int(dsnaps[0]), int(dsnaps[-1]) + 1)
                hier.access(a4, n4, False, core)
                w_e = weights[e, dsnaps]
                with np.errstate(invalid="ignore"):
                    msg = program.scatter(
                        values[u, dsnaps],
                        w_e,
                        None if degs is None else degs[u, dsnaps],
                    )
            for a5, n5 in alay.ranges(v, dsnaps):
                hier.access(a5, n5, True, core)
            acc[v, dsnaps] = ufunc(acc[v, dsnaps], msg)
            received[v, dsnaps] = True
            counters.acc_updates += len(dsnaps)
            hier.alu(2 * len(dsnaps), core)


def _stream_scatter(ctx: ExecContext) -> None:
    group = ctx.group
    state = ctx.state
    program = ctx.program
    counters = ctx.counters
    hier = ctx.hierarchy
    core_of = ctx.core_of

    E = group.num_edges
    out_src = group.out_src
    out_dst = group.out_dst
    out_bitmap = group.out_bitmap
    weights = group.out_weight if program.needs_weights else None
    values = state.values
    acc = state.acc
    received = state.received
    vlay = state.values_layout
    alay = state.acc_layout
    elay = state.edge_layout
    degs = group.out_degrees if program.needs_degrees else None
    ufunc = program.gather.ufunc
    monotone = ctx.monotone
    active = state.active
    snap_mask = mask_to_int(state.snap_active)
    cached_messages = _source_messages(ctx, degs) if weights is None else None

    # Shuffle buckets: X-Stream's streaming partitions.
    num_buckets = max(ctx.config.num_cores, 4)
    V = max(group.num_vertices, 1)
    if state.update_buffer_base < 0 and state.space is not None:
        state.alloc_stream_buffers(num_buckets)

    # Phase 1: scatter — stream the edge array, emit update entries.
    all_updates: List[Tuple[int, int, np.ndarray, np.ndarray]] = []
    upd_pos = 0
    for e in range(E):
        src = int(out_src[e])
        core = int(core_of[src])
        counters.edge_array_accesses += 1
        a, n = elay.entry_range(e)
        hier.access(a, n, False, core)
        bm = int(out_bitmap[e]) & snap_mask
        if bm == 0:
            continue
        if monotone:
            bm &= mask_to_int(active[src])
            if bm == 0:
                continue
        snaps = snap_indices(bm)
        for a2, n2 in vlay.ranges(src, snaps):
            hier.access(a2, n2, False, core)
        counters.vertex_value_reads += len(snaps)
        if cached_messages is not None:
            umask = (
                mask_to_int(active[src]) & snap_mask if monotone else snap_mask
            )
            msg = cached_messages(src, umask)[snaps]
        else:
            a3, n3 = elay.weight_range(e, int(snaps[0]), int(snaps[-1]) + 1)
            hier.access(a3, n3, False, core)
            w_e = weights[e, snaps]
            with np.errstate(invalid="ignore"):
                msg = program.scatter(
                    values[src, snaps],
                    w_e,
                    None if degs is None else degs[src, snaps],
                )
        entry_bytes = 4 + 8 * len(snaps)
        if state.update_buffer_base >= 0:
            hier.access(state.update_buffer_base + upd_pos, entry_bytes, True, core)
        upd_pos += entry_bytes
        counters.update_entries += len(snaps)
        dst = int(out_dst[e])
        all_updates.append((dst * num_buckets // V, dst, snaps, msg))
        hier.alu(2 * len(snaps), core)

    # Phase 2: shuffle — stream updates (in append order) into
    # destination-range buckets.
    per_bucket: List[List[Tuple[int, np.ndarray, np.ndarray]]] = [
        [] for _ in range(num_buckets)
    ]
    read_pos = 0
    bucket_pos = [0] * num_buckets
    for b, dst, snaps, msg in all_updates:
        core = int(core_of[dst])
        entry_bytes = 4 + 8 * len(snaps)
        if state.update_buffer_base >= 0:
            hier.access(
                state.update_buffer_base + read_pos, entry_bytes, False, core
            )
            hier.access(
                int(state.bucket_bases[b]) + bucket_pos[b],
                entry_bytes,
                True,
                core,
            )
        read_pos += entry_bytes
        bucket_pos[b] += entry_bytes
        per_bucket[b].append((dst, snaps, msg))

    # Phase 3: gather — per bucket, apply updates to accumulators.
    for b, bucket in enumerate(per_bucket):
        pos = 0
        for dst, snaps, msg in bucket:
            core = int(core_of[dst])
            entry_bytes = 4 + 8 * len(snaps)
            if state.bucket_bases is not None:
                hier.access(int(state.bucket_bases[b]) + pos, entry_bytes, False, core)
            pos += entry_bytes
            for a4, n4 in alay.ranges(dst, snaps):
                hier.access(a4, n4, True, core)
            acc[dst, snaps] = ufunc(acc[dst, snaps], msg)
            received[dst, snaps] = True
            counters.acc_updates += len(snaps)
            hier.alu(len(snaps), core)


def trace_apply(ctx: ExecContext, changed: np.ndarray) -> None:
    """Charge the apply phase's memory accesses to the simulated cores."""
    state = ctx.state
    hier = ctx.hierarchy
    core_of = ctx.core_of
    vlay = state.values_layout
    alay = state.acc_layout
    dlay = state.dirty_layout
    if ctx.monotone:
        rows = np.nonzero(state.received.any(axis=1))[0]
        for v in rows:
            core = int(core_of[v])
            snaps = np.nonzero(state.received[v])[0]
            for a, n in alay.ranges(v, snaps):
                hier.access(a, n, False, core)
            for a, n in vlay.ranges(v, snaps):
                hier.access(a, n, True, core)
            hier.alu(len(snaps), core)
        crows = np.nonzero(changed.any(axis=1))[0]
        for v in crows:
            core = int(core_of[v])
            snaps = np.nonzero(changed[v])[0]
            for a, n in dlay.ranges(v, snaps):
                hier.access(a, n, True, core)
    else:
        snaps = np.nonzero(state.snap_active)[0]
        if snaps.size == 0:
            return
        live_rows = np.nonzero(ctx.group.vertex_exists.any(axis=1))[0]
        for v in live_rows:
            core = int(core_of[v])
            for a, n in alay.ranges(v, snaps):
                hier.access(a, n, False, core)
            for a, n in vlay.ranges(v, snaps):
                hier.access(a, n, True, core)
            hier.alu(len(snaps), core)
