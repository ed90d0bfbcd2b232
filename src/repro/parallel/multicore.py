"""Multi-core runners: partition-parallelism vs snapshot-parallelism.

Section 3.4 of the paper. Both strategies are executed on the simulated
memory hierarchy:

- **partition-parallelism** is the regular simulated engine with
  ``Simulation(num_cores > 1)`` and a vertex -> core map: LABS batching
  applies, per-iteration time is the slowest core's cycles (BSP
  barrier), push mode takes locks;
- **snapshot-parallelism** runs each snapshot as an independent restricted
  computation pinned to one core, all sharing a single
  :class:`~repro.engine.state.GroupState` — one read-only edge array and
  one time-locality vertex array, exactly the sharing the paper describes.
  No locks and no barrier: total time is the busiest core's cycle sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.algorithms.program import VertexProgram
from repro.engine.config import EngineConfig, Simulation
from repro.engine.counters import EngineCounters
from repro.engine.runner import run_group, simulate
from repro.engine.state import GroupState
from repro.errors import EngineError
from repro.layout.address_space import AddressSpace
from repro.memsim.counters import MemoryCounters
from repro.temporal.series import SnapshotSeriesView


@dataclass
class MulticoreResult:
    """Outcome of a simulated multi-core run."""

    values: np.ndarray
    counters: EngineCounters
    memory: Optional[MemoryCounters]
    strategy: str
    num_cores: int
    sim_seconds: float
    per_core_seconds: List[float]


def run_multicore(
    series: SnapshotSeriesView,
    program: VertexProgram,
    config: EngineConfig,
    sim: Simulation,
    strategy: str = "partition",
) -> MulticoreResult:
    """Run ``program`` on ``sim.num_cores`` simulated cores.

    ``strategy="partition"`` assigns vertex partitions to cores
    (``sim.core_of``, contiguous ranges by default); ``"snapshot"``
    assigns whole snapshots to cores round-robin (Section 3.4), so a
    vertex -> core map is an error there.
    """
    cost = sim.cost_model
    if strategy == "partition":
        res = simulate(series, program, config, sim)
        return MulticoreResult(
            values=res.values,
            counters=res.counters,
            memory=res.memory,
            strategy="partition",
            num_cores=sim.num_cores,
            sim_seconds=cost.seconds(res.counters.sim_cycles),
            per_core_seconds=[cost.seconds(c) for c in res.counters.per_core_cycles],
        )
    if strategy != "snapshot":
        raise EngineError(f"unknown parallel strategy {strategy!r}")
    if sim.core_of is not None:
        raise EngineError(
            "snapshot-parallelism pins each snapshot to one core; "
            "it takes no vertex -> core map (Simulation.core_of)"
        )
    if config.reuse is not None:
        raise EngineError("simulated runs cannot reuse results")
    S = series.num_snapshots
    V = series.num_vertices
    cores = sim.num_cores
    hierarchy = sim.machine()
    space = AddressSpace()
    group = series.group(0, S)
    # One shared state: a single edge array and a single time-locality
    # vertex data array that all cores read (Section 6.2).
    shared = GroupState(group, config.layout, program, trace=True, address_space=space)

    out = np.full((V, S), np.nan, dtype=np.float64)
    total = EngineCounters()
    core_cycles = [0] * cores
    for s in range(S):
        core = s % cores
        uniform = np.full(V, core, dtype=np.int64)
        vals, counters = run_group(
            group,
            program,
            config,
            sim=sim,
            hierarchy=hierarchy,
            core_of=uniform,
            only_snapshots=[s],
            address_space=space,
            state=shared,
            lock_free=True,
        )
        out[:, s] = vals[:, s]
        core_cycles[core] += counters.sim_cycles
        total.merge(counters)
    total.per_core_cycles = [c.cycles for c in hierarchy.counters.per_core]
    wall = cost.seconds(max(core_cycles)) if core_cycles else 0.0
    return MulticoreResult(
        values=out,
        counters=total,
        memory=hierarchy.counters,
        strategy="snapshot",
        num_cores=cores,
        sim_seconds=wall,
        per_core_seconds=[cost.seconds(c) for c in core_cycles],
    )
