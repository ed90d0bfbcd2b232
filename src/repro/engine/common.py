"""The per-group execution context shared by both scatter implementations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.algorithms.program import Semantics, VertexProgram
from repro.engine.config import EngineConfig
from repro.engine.counters import EngineCounters
from repro.engine.state import GroupState
from repro.memsim.hierarchy import MemoryHierarchy
from repro.parallel.locks import LockTable
from repro.temporal.series import GroupView

if TYPE_CHECKING:
    from repro.parallel.shm import GroupShards


@dataclass
class ExecContext:
    """Everything one group-iteration needs, bundled."""

    group: GroupView
    state: GroupState
    program: VertexProgram
    config: EngineConfig
    counters: EngineCounters
    hierarchy: Optional[MemoryHierarchy] = None
    core_of: Optional[np.ndarray] = None
    locks: Optional[LockTable] = None
    #: The group's plan shards when it executes on the worker-thread pool
    #: (``executor="process"``); planned scatters route through them.
    shards: Optional["GroupShards"] = None

    @property
    def traced(self) -> bool:
        return self.hierarchy is not None

    @property
    def monotone(self) -> bool:
        return self.program.semantics is Semantics.MONOTONE
