"""The per-group execution context shared by the walk and the simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.algorithms.program import Semantics, VertexProgram
from repro.engine.config import EngineConfig, Simulation
from repro.engine.counters import EngineCounters
from repro.engine.state import GroupState
from repro.memsim.hierarchy import MemoryHierarchy
from repro.parallel.locks import LockTable
from repro.temporal.series import GroupView


@dataclass
class ExecContext:
    """Everything one group-iteration needs, bundled."""

    group: GroupView
    state: GroupState
    program: VertexProgram
    config: EngineConfig
    counters: EngineCounters
    #: ``(edge_bounds, vertex_bounds)``, the group's destination vertices
    #: cut into ranges, range ``w`` owning the vertices
    #: ``[vertex_bounds[w], vertex_bounds[w + 1])`` and their in-edges
    #: ``[edge_bounds[w], edge_bounds[w + 1])``: one range serially, one
    #: per pool thread under ``executor="process"``
    #: (:func:`repro.parallel.shm.cut_ranges`).
    bounds: Tuple[np.ndarray, np.ndarray]
    #: Present exactly when the run is simulated (with ``hierarchy``).
    sim: Optional[Simulation] = None
    hierarchy: Optional[MemoryHierarchy] = None
    core_of: Optional[np.ndarray] = None
    locks: Optional[LockTable] = None

    @property
    def monotone(self) -> bool:
        return self.program.semantics is Semantics.MONOTONE
