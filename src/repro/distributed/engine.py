"""The simulated distributed runner."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.algorithms.program import VertexProgram
from repro.engine.config import EngineConfig, Mode, Simulation
from repro.engine.counters import EngineCounters
from repro.engine.runner import simulate
from repro.errors import EngineError
from repro.memsim.costmodel import CostModel
from repro.memsim.counters import MemoryCounters
from repro.memsim.hierarchy import HierarchyConfig
from repro.obs import runtime as obs
from repro.partition.kway import partition_series
from repro.temporal.series import SnapshotSeriesView


@dataclass
class DistributedResult:
    """Outcome of a simulated distributed run."""

    values: np.ndarray
    counters: EngineCounters
    memory: Optional[MemoryCounters]
    num_machines: int
    sim_seconds: float
    network_seconds: float
    messages: int
    message_bytes: int
    per_machine_seconds: List[float]
    program_name: Optional[str] = None

    def report(self) -> Dict[str, Any]:
        """The run report (same shape as ``RunResult.report()``)."""
        from repro.obs.report import distributed_report

        return distributed_report(self)


def run_distributed(
    series: SnapshotSeriesView,
    program: VertexProgram,
    num_machines: int = 4,
    config: Optional[EngineConfig] = None,
    machine_of: Optional[np.ndarray] = None,
    hierarchy: Optional[HierarchyConfig] = None,
    cost_model: Optional[CostModel] = None,
) -> DistributedResult:
    """Run ``program`` over ``series`` on a simulated cluster.

    The default configuration matches the paper's distributed experiments:
    push mode, one thread per machine, Metis-style partitioning, LABS
    batching over all loaded snapshots (set ``config.batch_size=1`` for the
    snapshot-by-snapshot baseline of Table 6). Each machine is one core
    of ``hierarchy`` with an LLC of its own; ``cost_model`` prices its
    cycles and the network.
    """
    if num_machines <= 0:
        raise EngineError(f"need at least one machine, got {num_machines}")
    base = config or EngineConfig(mode=Mode.PUSH)
    if base.mode is not Mode.PUSH:
        raise EngineError(
            "the distributed engine propagates by message passing and "
            "supports push mode only (as in the paper's Section 6.3)"
        )
    if machine_of is None:
        machine_of = partition_series(series, num_machines)
    sim = Simulation(
        hierarchy=replace(hierarchy or HierarchyConfig(), private_llc=True),
        cost_model=cost_model or CostModel(),
        num_cores=num_machines,
        core_of=np.asarray(machine_of, dtype=np.int64),
    )
    res = simulate(series, program, base, sim)
    cost = sim.cost_model
    obs.add("distributed.messages", int(res.counters.messages))
    obs.add("distributed.message_bytes", int(res.counters.message_bytes))
    return DistributedResult(
        values=res.values,
        counters=res.counters,
        memory=res.memory,
        num_machines=num_machines,
        sim_seconds=cost.seconds(res.counters.sim_cycles),
        network_seconds=res.counters.extra_seconds,
        messages=res.counters.messages,
        message_bytes=res.counters.message_bytes,
        per_machine_seconds=[
            cost.seconds(c) for c in res.counters.per_core_cycles
        ],
        program_name=getattr(program, "name", None),
    )
