"""Simulated multi-core execution (paper Sections 3.4 and 6.2).

The paper's multi-core results are about memory-system events — misses,
inter-core transfers, lock contention — so multi-core behaviour is
*simulated* deterministically, and the simulation measures those events
exactly:

- **partition-parallelism** assigns vertex partitions to cores; push-mode
  propagation across partitions acquires per-vertex locks
  (:class:`~repro.parallel.locks.LockTable` accounts contention), and the
  line-ownership directory in :class:`~repro.memsim.hierarchy.MemoryHierarchy`
  counts inter-core transfers;
- **snapshot-parallelism** assigns whole snapshots to cores; it needs no
  locks but cannot batch across snapshots (it is "fundamentally
  incompatible with LABS").

Per-iteration simulated time is the slowest core's cycles in that iteration
(BSP barrier), summed over iterations.

The strategy is :func:`run_multicore`'s ``strategy`` argument; the cores
and the vertex -> core map are its ``Simulation``'s.

*Real* (wall-clock) partition-parallelism lives next door:
:mod:`repro.parallel.shm` cuts each group's destination vertices into
one interval per thread of a persistent pool, proves the cut owner-safe,
and runs the serial walk over each range, so the parallel fold is
lock-free and bitwise identical to serial execution. The walk is a
native call that releases the GIL, so the threads run on real cores.
Select it with ``EngineConfig(executor="process", workers=N)``.
"""

from repro.parallel.locks import LockTable

__all__ = [
    "LockTable",
    "MulticoreResult",
    "run_multicore",
    "shard_boundaries",
    "shutdown_pool",
]

_LAZY = {
    "MulticoreResult": "repro.parallel.multicore",
    "run_multicore": "repro.parallel.multicore",
    "shard_boundaries": "repro.parallel.shm",
    "shutdown_pool": "repro.parallel.shm",
}


def __getattr__(name: str) -> "object":
    # Lazy imports: these modules depend on repro.engine, which itself uses
    # repro.parallel.locks — importing them eagerly here would be circular.
    module = _LAZY.get(name)
    if module is not None:
        import importlib

        return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
