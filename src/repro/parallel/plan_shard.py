"""Cutting the edge-major gather plan into per-thread stream ranges.

The :class:`~repro.engine.kernels.GatherPlan` stream is the live pairs of
the group's in-edge array in ``(dst, src, snapshot)`` order, so it is
destination-**vertex**-major under both layouts: cutting it into
contiguous ranges ``[lo, hi)`` — only at destination-vertex boundaries —
hands each worker a set of accumulator cells nobody else writes. That is
the owner-computes discipline of partition-parallelism (paper Section 3.4)
realised without locks: every worker runs
:func:`~repro.engine.kernels.stream_scatter` over exactly its own range,
and because each cell's contributions stay in the same stream order as
the serial fold, the result is bitwise identical to serial execution.

:func:`shard_boundaries` cuts once per group run
(:func:`repro.parallel.shm.cut_ranges`), never once per iteration.

**Shard-race sanitizer** (``EngineConfig(sanitize=True)`` — TSan for
owner-computes): the lock-free correctness argument above is an
*invariant*, not a property the runtime otherwise checks. With the
sanitizer on, every group run proves the stream destination-sorted
(:func:`assert_destination_sorted`); with more than one range it also
proves the ranges tile the stream with pairwise-disjoint
destination-vertex intervals (:func:`verify_disjoint_ownership`) and
builds a shadow **ownership map** — one byte per accumulator cell, holding
``worker_id + 1`` for the owner (:func:`ownership_map`). Every range's
scatter then validates the cells it is about to write against that map
*before its fold* (:func:`check_ownership`), so an overlapping cut or an
out-of-ownership write raises a typed
:class:`~repro.errors.ShardRaceError` naming the group, the writing
worker, and the owning worker, instead of silently corrupting the
accumulator. Clean runs are bitwise-unaffected: the sanitizer only reads
engine state.

The stream-shaped arguments below come in two kinds: ``dst_flat`` is the
plan's flat destination *cell* per entry (any order), ``keys`` a
non-decreasing ownership key per entry — the destination vertex,
:meth:`GatherPlan.dst_vertices` — whose runs are what a cut must not split.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import EngineError, ShardRaceError

#: Ownership-map claims are ``worker_id + 1`` stored in one byte
#: (0 = unowned), which caps sanitized pools at 255 workers.
SANITIZER_MAX_WORKERS = 255


# ---------------------------------------------------------------------- #
# shard-race sanitizer primitives (EngineConfig(sanitize=True))


def ownership_map(
    dst_flat: np.ndarray, bounds: np.ndarray, ncells: int
) -> np.ndarray:
    """``(ncells,)`` uint8 claim map: cell -> owning ``worker_id + 1``.

    Built from the plan's destination stream and the shard boundaries
    *before* any worker scatters, so detection cannot race the writes it
    polices. Cells no stream entry targets stay 0 (unowned) —
    a write there is out-of-ownership by definition.
    """
    workers = int(bounds.shape[0]) - 1
    if workers > SANITIZER_MAX_WORKERS:
        raise EngineError(
            f"sanitize=True supports at most {SANITIZER_MAX_WORKERS} "
            f"workers (uint8 claim map), got {workers}"
        )
    claims = np.zeros(ncells, dtype=np.uint8)
    for w in range(workers):
        b, e = int(bounds[w]), int(bounds[w + 1])
        if e > b:
            claims[dst_flat[b:e]] = np.uint8(w + 1)
    return claims


def verify_disjoint_ownership(
    keys: np.ndarray, bounds: np.ndarray, group: int
) -> None:
    """Check the shard slices tile the stream with disjoint key ranges.

    ``keys`` being non-decreasing means each worker's slice covers the
    contiguous interval ``[keys[b], keys[e-1]]``; two slices share a
    destination iff those intervals intersect. Raises
    :class:`~repro.errors.ShardRaceError` naming both workers and the
    first shared key on overlap, or on boundaries that do not tile
    ``[0, len(keys))`` monotonically.
    """
    length = int(keys.shape[0])
    workers = int(bounds.shape[0]) - 1
    if int(bounds[0]) != 0 or int(bounds[-1]) != length:
        raise ShardRaceError(
            f"shard boundaries do not tile the plan stream: "
            f"[{int(bounds[0])}, {int(bounds[-1])}] != [0, {length}]",
            group=group,
        )
    prev_end = 0
    prev_owner: Optional[int] = None
    last_key = -1
    for w in range(workers):
        b, e = int(bounds[w]), int(bounds[w + 1])
        if b != prev_end:
            raise ShardRaceError(
                f"shard boundaries are not contiguous at worker {w}: "
                f"slice starts at {b}, previous ended at {prev_end}",
                group=group, worker=w,
            )
        prev_end = e
        if e <= b:
            continue
        first_key = int(keys[b])
        if first_key <= last_key and prev_owner is not None:
            raise ShardRaceError(
                "overlapping shard ownership: destination is claimed "
                "by two workers",
                group=group, worker=w, other=prev_owner, cell=first_key,
            )
        last_key = int(keys[e - 1])
        prev_owner = w


def check_ownership(
    claims: np.ndarray, cells: np.ndarray, worker: int, group: int
) -> None:
    """Raise unless every cell in ``cells`` is claimed by ``worker``.

    ``cells`` are the destination cells one range's scatter selected; the
    check runs before its fold, so nothing is written on a violation.
    """
    owners = claims[cells]
    bad = owners != np.uint8(worker + 1)
    if bad.any():
        pos = int(np.flatnonzero(bad)[0])
        claim = int(owners[pos])
        raise ShardRaceError(
            "out-of-ownership scatter write"
            if claim == 0
            else "scatter write into another worker's cells",
            group=group,
            worker=worker,
            other=claim - 1 if claim else None,
            cell=int(cells[pos]),
        )


def assert_destination_sorted(keys: np.ndarray, group: int) -> None:
    """Sanitizer check: destination vertex non-decreasing along the stream.

    Per-cell fold order and the shard slicing both assume a
    destination-vertex-major stream; a corrupted or mis-built plan silently
    mis-folds. Checked once per group run, not per iteration.
    """
    if keys.shape[0] > 1:
        steps = np.asarray(keys[1:] < keys[:-1])
        if steps.any():
            pos = int(np.flatnonzero(steps)[0]) + 1
            raise ShardRaceError(
                f"gather plan stream is not destination-sorted at "
                f"position {pos}",
                group=group, cell=int(keys[pos]),
            )


def shard_boundaries(keys: np.ndarray, workers: int) -> np.ndarray:
    """``(workers + 1,)`` stream positions cutting the stream into shards.

    Ideal equal-size cuts are snapped *backwards* to the start of the run
    of equal ``keys`` (one destination vertex) they fall into, so no
    destination is split across two workers. Boundaries are
    non-decreasing; a worker whose slice is empty simply folds nothing.
    """
    length = int(keys.shape[0])
    if length == 0 or workers <= 1:
        bounds = np.zeros(workers + 1, dtype=np.int64)
        bounds[-1] = length
        if workers > 1:
            bounds[1:-1] = length
        return bounds
    ideal = (np.arange(1, workers, dtype=np.int64) * length) // workers
    # searchsorted(left) on the key at each ideal cut = the first stream
    # position of that key, i.e. the enclosing run's start.
    snapped = np.searchsorted(keys, keys[ideal], side="left").astype(np.int64)
    bounds = np.concatenate(
        (np.zeros(1, dtype=np.int64), snapped, np.asarray([length], dtype=np.int64))
    )
    return np.maximum.accumulate(bounds)
