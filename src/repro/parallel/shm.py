"""Real wall-clock partition-parallelism: destination ranges walked on threads.

``EngineConfig(executor="process", workers=N)`` runs every LABS group's
scatter on a persistent pool of ``N`` threads of this process (the value
name predates the threads and is kept for compatibility). This is the
paper's owner-computes partition-parallelism (Section 3.4) on real cores:

- once per group run, :func:`cut_ranges` cuts the group's destination
  vertices into one interval ``[v_lo, v_hi)`` per thread, balanced by
  in-edges (:func:`~repro.parallel.plan_shard.shard_boundaries` over
  ``in_index``). A range owns its destinations' accumulator cells
  outright, so no locks are needed;
- per iteration, :func:`scatter_ranges` runs the serial executor's walk
  (:func:`~repro.engine.kernels.walk_scatter`) on the pool once per range
  and waits for all of them (the BSP barrier). The walk is a ``ctypes``
  call into the native library, which releases the GIL, so the ranges
  fold in parallel;
- apply and convergence stay in the calling thread, unchanged.

Serial execution is the single range ``[0, V)``, run inline, and so is
``workers=1``. Each accumulator cell's contributions keep their
source-ascending order inside one range, so values and logical counters
are bitwise identical to the serial executor. An exception raised by one
range's scatter is re-raised as itself once every range has finished, and
the pool stays usable. Pool threads record no observability spans: the
tracer is single-threaded, and the caller's ``phase/scatter`` span covers
the walk.

Snapshot-parallelism (whole snapshots per core) is measured in the
simulator only (:func:`repro.parallel.multicore.run_multicore`).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from repro.parallel.plan_shard import (
    assert_destination_sorted,
    shard_boundaries,
    verify_disjoint_ownership,
)

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


def cut_ranges(
    group: "GroupView", workers: int, sanitize: bool, start: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(edge_bounds, vertex_bounds)`` of one group run, cut once before
    its scatters.

    Range ``w`` owns the destination vertices
    ``[vertex_bounds[w], vertex_bounds[w + 1])``, whose in-edges are
    ``[edge_bounds[w], edge_bounds[w + 1])``; one worker gets them all.
    With ``sanitize`` the in-edge array is proven destination-sorted and
    every range's in-edges proven inside its interval, before any write.
    """
    index = group.in_index
    if workers == 1 and not sanitize:
        vertex_bounds = np.array([0, group.num_vertices], dtype=np.int64)
        return index[vertex_bounds], vertex_bounds
    if sanitize:
        assert_destination_sorted(group.in_dst, start)
    vertex_bounds = shard_boundaries(index, workers)
    if sanitize:
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
