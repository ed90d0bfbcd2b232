"""Real wall-clock partition-parallelism: plan stream ranges folded on threads.

``EngineConfig(executor="process", workers=N)`` runs every LABS group's
scatter on a persistent pool of ``N`` threads of this process (the value
name predates the threads and is kept for compatibility). This is the
paper's owner-computes partition-parallelism (Section 3.4) on real cores:

- once per group run, :func:`cut_ranges` cuts the group's own
  :class:`~repro.engine.kernels.GatherPlan` stream at destination-vertex
  boundaries (:func:`~repro.parallel.plan_shard.shard_boundaries`) into
  one range ``[lo, hi)`` per thread. A range owns its destinations'
  accumulator cells outright, so no locks are needed;
- per iteration, :func:`scatter_ranges` runs
  :func:`~repro.engine.kernels.stream_scatter` — the serial executor's
  scatter, over one range — on the pool once per range and waits for all
  of them (the BSP barrier). The fold is a ``ctypes`` call into the
  native library, which releases the GIL, so the ranges fold in parallel;
- apply and convergence stay in the calling thread, unchanged.

Serial execution is the single range ``[0, length)``, run inline, and so
is ``workers=1``. Each accumulator cell's contributions keep their serial
stream order inside one range, so values and logical counters are
bitwise identical to the serial executor. An exception raised by one
range's scatter is re-raised as itself once every range has finished, and
the pool stays usable. Pool threads record no observability spans: the
tracer is single-threaded, and the caller's ``phase/scatter`` span covers
the fold.

Snapshot-parallelism (whole snapshots per core) is measured in the
simulator only (:func:`repro.parallel.multicore.run_multicore`).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from repro.parallel.plan_shard import (
    assert_destination_sorted,
    ownership_map,
    shard_boundaries,
    verify_disjoint_ownership,
)

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    from repro.engine.kernels import GatherPlan

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
    plan: "GatherPlan", workers: int, sanitize: bool, group: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(bounds, claims)`` of one group run, cut once before its scatters.

    Range ``w`` is ``[bounds[w], bounds[w + 1])`` of ``plan``'s stream;
    one worker gets the whole stream. With ``sanitize`` the stream is
    proven destination-sorted, and with more than one range the cuts are
    proven disjoint and ``claims`` is the ownership map every range's
    scatter checks its writes against (None otherwise).
    """
    if workers == 1 and not sanitize:
        return np.array([0, plan.length], dtype=np.int64), None
    keys = plan.dst_vertices()
    if sanitize:
        assert_destination_sorted(keys, group)
    bounds = shard_boundaries(keys, workers)
    if workers == 1 or not sanitize:
        return bounds, None
    verify_disjoint_ownership(keys, bounds, group=group)
    claims = ownership_map(
        plan.dst_flat, bounds, plan.num_vertices * plan.num_snapshots
    )
    return bounds, claims


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
