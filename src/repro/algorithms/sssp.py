"""Single-source shortest path via distance relaxation (Bellman-Ford style).

Directed, non-negative weights. Only the source is initially active; the
frontier expands as distances relax, so per-iteration work tracks the
frontier size — the property that makes SSSP the paper's best case for
both LABS (Figure 5) and incremental computation (Figure 6).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.program import GatherKind, Semantics, VertexProgram
from repro.temporal.series import GroupView


class SingleSourceShortestPath(VertexProgram):
    """Distance relaxation from a single source (frontier-driven)."""

    name = "sssp"
    semantics = Semantics.MONOTONE
    gather = GatherKind.MIN
    needs_weights = True
    edge_op = "add"
    directed = True

    def __init__(self, source: int = 0) -> None:
        self.source = source

    def initial_values(self, group: GroupView) -> np.ndarray:
        vals = self.masked_initial(group, np.inf)
        if 0 <= self.source < group.num_vertices:
            live = group.vertex_exists[self.source]
            vals[self.source, live] = 0.0
        return vals

    def initial_active(self, group: GroupView) -> np.ndarray:
        active = np.zeros(
            (group.num_vertices, group.num_snapshots), dtype=bool
        )
        if 0 <= self.source < group.num_vertices:
            active[self.source] = group.vertex_exists[self.source]
        return active

    def scatter(
        self,
        values: np.ndarray,
        weights: Optional[np.ndarray],
        src_degrees: Optional[np.ndarray],
    ) -> np.ndarray:
        if weights is None:
            return values + 1.0
        return values + weights

    def apply(self, old: np.ndarray, acc: np.ndarray, group: GroupView) -> np.ndarray:
        return np.minimum(old, acc)
