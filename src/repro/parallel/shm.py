"""Real wall-clock partition-parallelism: destination ranges walked on threads.

``EngineConfig(executor="process", workers=N)`` runs the scatter on a
persistent pool of ``N`` threads of this process: ``"process"`` means
this thread pool. It is the paper's owner-computes partition-parallelism
(Section 3.4) on real cores:

- once per group run, :func:`cut_ranges` cuts the group's destination
  vertices into one interval ``[v_lo, v_hi)`` per thread, balanced by
  in-edges (:func:`shard_boundaries` over ``in_index``). The in-edge
  array is ``(dst, src)``-ordered and ``in_index`` is its destination
  CSR, so the interval's in-edges are the contiguous range
  ``[in_index[v_lo], in_index[v_hi])``. A range owns its destinations'
  accumulator cells outright, so no locks are needed;
- per iteration, :func:`scatter_ranges` runs the serial executor's walk
  (:func:`~repro.engine.kernels.walk_scatter`) on the pool once per range
  and waits for all of them (the BSP barrier). The walk is a ``ctypes``
  call into the native library, which releases the GIL, so the ranges
  fold in parallel;
- apply and convergence stay in the calling thread, unchanged.

Serial execution is the single range ``[0, V)``, run inline, and so is
``workers=1``. Each accumulator cell's contributions keep their
source-ascending order inside one range, so values and logical counters
are bitwise identical to the serial executor.

The lock-free argument is an invariant the native walk does not check:
it writes ``acc[dst * vs + s * ss]`` for whatever ``in_dst`` holds. So
every group run, serial and traced included, proves it before the first
write: ``in_dst`` is destination-sorted (:func:`assert_destination_sorted`)
and the ranges tile the vertices with intervals holding all their
in-edges (:func:`verify_disjoint_ownership`). A mid-vertex cut, an
out-of-interval destination or an unsorted edge array raises a typed
:class:`~repro.errors.ShardRaceError` naming the group, the writing range
and the owning one, and the accumulator is left untouched.

An exception raised by one range's scatter is re-raised as itself once
every range has finished, and the pool stays usable. Pool threads record
no observability spans: the tracer is single-threaded, and the caller's
``phase/scatter`` span covers the walk.

Snapshot-parallelism (whole snapshots per core) is measured in the
simulator only (:func:`repro.parallel.multicore.run_multicore`).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from repro.errors import ShardRaceError

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    from repro.temporal.series import GroupView

#: Name prefix of the POSIX shared-memory segments the executor once
#: created. It creates none now; the name stays because callers that glob
#: ``/dev/shm`` for leftovers still import it (and find nothing).
SEGMENT_PREFIX = "repro-shm"

#: Lifetime count of thread pools started in this process.
POOL_SPAWNS = 0

_LOCK = threading.Lock()
_POOL: Optional["ThreadPoolExecutor"] = None
_POOL_WORKERS = 0


def get_pool(workers: int) -> "ThreadPoolExecutor":
    """The persistent pool of ``workers`` threads, (re)started only when needed."""
    # Imported here, not at module load: serial runs never need it.
    from concurrent.futures import ThreadPoolExecutor

    global _POOL, _POOL_WORKERS, POOL_SPAWNS
    with _LOCK:
        if _POOL is not None and _POOL_WORKERS != workers:
            _POOL.shutdown(wait=True)
            _POOL = None
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-worker"
            )
            _POOL_WORKERS = workers
            POOL_SPAWNS += 1
        return _POOL


def shutdown_pool() -> None:
    """Stop the persistent pool and join its threads (idempotent)."""
    global _POOL
    with _LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
            _POOL = None


def assert_destination_sorted(keys: np.ndarray, group: int) -> None:
    """Destination vertex non-decreasing along ``keys``.

    Per-cell fold order and the range cuts both assume a
    destination-major in-edge array; a corrupted one silently mis-folds.
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


def cut_ranges(
    group: "GroupView", workers: int, start: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(edge_bounds, vertex_bounds)`` of one group run, cut and proven
    once before its scatters.

    Range ``w`` owns the destination vertices
    ``[vertex_bounds[w], vertex_bounds[w + 1])``, whose in-edges are
    ``[edge_bounds[w], edge_bounds[w + 1])``; one worker gets them all.
    The in-edge array is proven destination-sorted and every range's
    in-edges proven inside its interval before any write.
    """
    index = group.in_index
    assert_destination_sorted(group.in_dst, start)
    vertex_bounds = shard_boundaries(index, workers)
    verify_disjoint_ownership(group.in_dst, index, vertex_bounds, start)
    return index[vertex_bounds], vertex_bounds


def scatter_ranges(scatter: Callable[[int], int], ranges: int) -> int:
    """``scatter(w)`` for every range ``w`` on the pool; returns the summed
    accumulator updates."""
    from concurrent.futures import wait

    pool = get_pool(ranges)
    futures = [pool.submit(scatter, w) for w in range(ranges)]
    # Every range finishes before any error surfaces: no thread is still
    # folding into the accumulator when the caller unwinds.
    wait(futures)
    return sum(future.result() for future in futures)
