"""Real wall-clock partition-parallelism: plan shards folded on threads.

``EngineConfig(executor="process", workers=N)`` runs every LABS group's
scatter on a persistent pool of ``N`` threads of this process (the value
name predates the threads and is kept for compatibility). This is the
paper's owner-computes partition-parallelism (Section 3.4) on real cores:

- once per group, :class:`GroupShards` cuts the group's own
  :class:`~repro.engine.kernels.GatherPlan` stream at destination-vertex
  boundaries (:func:`~repro.parallel.plan_shard.shard_boundaries`) into
  one :class:`~repro.parallel.plan_shard.PlanShard` per thread, each a
  zero-copy slice of the plan's arrays. A shard owns its destinations'
  accumulator cells outright, so no locks are needed;
- per iteration, :meth:`GroupShards.scatter` runs
  :func:`~repro.engine.kernels.stream_scatter` on every shard in the pool
  and waits for all of them (the BSP barrier). The fold is a ``ctypes``
  call into the native library, which releases the GIL, so the shards
  fold in parallel;
- apply and convergence stay in the calling thread, unchanged.

Each accumulator cell's contributions keep their serial stream order
inside one shard, so values and logical counters are bitwise identical to
the serial executor. An exception raised by one shard's scatter is
re-raised as itself once every shard has finished, and the pool stays
usable. Shard threads record no observability spans: the tracer is
single-threaded, and the caller's ``phase/scatter`` span covers the fold.

Snapshot-parallelism (whole groups per core) is measured in the simulator
only (:mod:`repro.parallel.multicore`, ``trace=True``).
"""

from __future__ import annotations

import threading
import warnings
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.algorithms.program import Semantics
from repro.engine.kernels import stream_scatter
from repro.parallel.plan_shard import (
    PlanShard,
    ownership_map,
    shard_boundaries,
    verify_disjoint_ownership,
)

if TYPE_CHECKING:
    from repro.algorithms.program import VertexProgram
    from repro.engine.config import EngineConfig
    from repro.engine.state import GroupState

#: Name prefix of the POSIX shared-memory segments the executor once
#: created. It creates none now; the name stays because callers that glob
#: ``/dev/shm`` for leftovers still import it (and find nothing).
SEGMENT_PREFIX = "repro-shm"

#: Lifetime count of thread pools started in this process.
POOL_SPAWNS = 0

_LOCK = threading.Lock()
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_WORKERS = 0


def get_pool(workers: int) -> ThreadPoolExecutor:
    """The persistent pool of ``workers`` threads, (re)started only when needed."""
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


class GroupShards:
    """One group's plan cut into one shard per pool thread, once per group.

    Holds the group's :class:`~repro.engine.state.GroupState` and reads its
    arrays at every :meth:`scatter`, so each iteration sees the values and
    masks the caller's apply phase just wrote. With ``sanitize`` the shard
    boundaries are proven disjoint here, before any fold, and every shard
    checks its writes against the shared ownership map
    (:meth:`~repro.parallel.plan_shard.PlanShard.fold`).
    """

    def __init__(
        self,
        state: "GroupState",
        program: "VertexProgram",
        workers: int,
        sanitize: bool = False,
    ) -> None:
        plan = state.gather_plan()
        group = int(state.group.start)
        keys = plan.dst_vertices()
        bounds = shard_boundaries(keys, workers)
        claims: Optional[np.ndarray] = None
        if sanitize:
            verify_disjoint_ownership(keys, bounds, group=group)
            claims = ownership_map(
                plan.dst_flat, bounds, plan.num_vertices * plan.num_snapshots
            )
        self.shards = [
            PlanShard(
                plan,
                int(bounds[w]),
                int(bounds[w + 1]),
                sanitize_map=claims,
                worker_id=w,
                group_start=group,
            )
            for w in range(workers)
        ]
        self.pool = get_pool(workers)
        self.state = state
        self.program = program
        self.monotone = program.semantics is Semantics.MONOTONE
        self.degree_cells = plan.degree_cells if program.needs_degrees else None

    def scatter(self) -> int:
        """One scatter of every shard on the pool; returns accumulator updates."""
        state = self.state
        futures: List["Future[int]"] = [
            self.pool.submit(
                stream_scatter,
                shard,
                self.program,
                state.values_flat,
                state.acc_flat,
                state.active,
                state.snap_active,
                monotone=self.monotone,
                needs_degrees=self.program.needs_degrees,
                degree_cells=self.degree_cells,
            )
            for shard in self.shards
        ]
        # Every shard finishes before any error surfaces: no thread is
        # still folding into the accumulator when the caller unwinds.
        wait(futures)
        return sum(future.result() for future in futures)


def shard_group(
    state: "GroupState", program: "VertexProgram", config: "EngineConfig"
) -> Optional[GroupShards]:
    """The group's shards under ``config``; None (serial) for one worker."""
    if config.workers <= 1:
        warnings.warn(
            "executor='process': workers=1 gives no parallelism; falling "
            "back to the serial executor",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return GroupShards(state, program, config.workers, config.sanitize)
