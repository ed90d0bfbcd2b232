"""Cutting a group's in-edge array into per-thread destination ranges.

The group's in-edge array is ``(dst, src)``-ordered and ``in_index`` is
its destination CSR, so a range of destination vertices ``[v_lo, v_hi)``
is the contiguous in-edge range ``[in_index[v_lo], in_index[v_hi])``.
Handing each worker one such interval gives it a set of accumulator cells
nobody else writes. That is the owner-computes discipline of
partition-parallelism (paper Section 3.4) realised without locks: the
dense walk folds exactly its range's in-edges, the sparse walk keeps only
destinations inside its interval, and because each cell's contributions
keep their source-ascending order, the result is bitwise identical to
serial execution.

:func:`shard_boundaries` cuts once per group run
(:func:`repro.parallel.shm.cut_ranges`), never once per iteration.

**Shard-race sanitizer** (``EngineConfig(sanitize=True)`` — TSan for
owner-computes): the lock-free correctness argument above is an
*invariant*, not a property the runtime otherwise checks. With the
sanitizer on, every group run proves, before the first write, that
``in_dst`` is sorted (:func:`assert_destination_sorted`) and that the
ranges tile the vertices with disjoint intervals whose in-edges all land
inside them (:func:`verify_disjoint_ownership`). A mid-vertex cut, an
out-of-interval destination or an unsorted edge array raises a typed
:class:`~repro.errors.ShardRaceError` naming the group, the writing
worker and the owning one, and the accumulator is left untouched. Clean
runs are bitwise-unaffected: the sanitizer only reads engine state.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShardRaceError


def assert_destination_sorted(keys: np.ndarray, group: int) -> None:
    """Sanitizer check: destination vertex non-decreasing along ``keys``.

    Per-cell fold order and the range cuts both assume a
    destination-major in-edge array; a corrupted one silently mis-folds.
    Checked once per group run, not per iteration.
    """
    if keys.shape[0] > 1:
        steps = np.asarray(keys[1:] < keys[:-1])
        if steps.any():
            pos = int(np.flatnonzero(steps)[0]) + 1
            raise ShardRaceError(
                f"in-edge array is not destination-sorted at edge {pos}",
                group=group, cell=int(keys[pos]),
            )


def verify_disjoint_ownership(
    keys: np.ndarray, index: np.ndarray, bounds: np.ndarray, group: int
) -> None:
    """Check the ranges own disjoint intervals holding all their in-edges.

    ``bounds`` are the ``(workers + 1,)`` destination-vertex cuts: they
    must tile ``[0, V)`` monotonically, and every destination in
    ``keys[index[bounds[w]]:index[bounds[w + 1]]]`` (sorted, so its two
    ends suffice) must lie in ``[bounds[w], bounds[w + 1])``. Raises
    :class:`~repro.errors.ShardRaceError` naming the worker, the owner of
    the offending destination (None outside ``[0, V)``) and the
    destination itself.
    """
    num_vertices = int(index.shape[0]) - 1
    if (
        int(bounds[0]) != 0
        or int(bounds[-1]) != num_vertices
        or np.any(np.diff(bounds) < 0)
    ):
        raise ShardRaceError(
            f"shard boundaries {bounds.tolist()} do not tile the "
            f"{num_vertices} destination vertices",
            group=group,
        )
    edges = index[bounds]
    for w in range(int(bounds.shape[0]) - 1):
        lo, hi = int(edges[w]), int(edges[w + 1])
        if hi <= lo:
            continue
        for vertex in (int(keys[lo]), int(keys[hi - 1])):
            if bounds[w] <= vertex < bounds[w + 1]:
                continue
            owner = None
            if 0 <= vertex < num_vertices:
                owner = int(np.searchsorted(bounds, vertex, side="right")) - 1
            raise ShardRaceError(
                "out-of-ownership scatter write"
                if owner is None
                else "scatter write into another worker's cells",
                group=group, worker=w, other=owner, cell=vertex,
            )


def shard_boundaries(index: np.ndarray, workers: int) -> np.ndarray:
    """``(workers + 1,)`` destination-vertex cuts of a CSR ``index``.

    Each ideal equal-edge cut is snapped *backwards* to the start of the
    vertex whose in-edges it falls into, so no destination is split
    across two workers. Cuts are non-decreasing and run from 0 to ``V``;
    a worker whose interval holds no edge simply folds nothing.
    """
    num_vertices = int(index.shape[0]) - 1
    length = int(index[-1])
    ideal = (np.arange(1, workers, dtype=np.int64) * length) // workers
    snapped = np.searchsorted(index, ideal, side="right").astype(np.int64) - 1
    if length == 0:
        snapped[:] = num_vertices
    bounds = np.concatenate(([0], snapped, [num_vertices])).astype(np.int64)
    return np.maximum.accumulate(bounds)
