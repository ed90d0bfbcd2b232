"""Sparse matrix-vector multiplication as an iterated vertex program.

One iteration computes ``y[v] = sum over in-edges (u, v) of w(u,v) * x[u]``
then L1-normalises over live vertices (power-iteration style), which keeps
values bounded over many iterations and many snapshots.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.program import GatherKind, Semantics, VertexProgram
from repro.temporal.series import GroupView


class SpMV(VertexProgram):
    """Iterated, L1-normalised sparse matrix-vector multiplication."""

    name = "spmv"
    semantics = Semantics.REGATHER
    gather = GatherKind.SUM
    needs_weights = True
    edge_op = "mul"
    directed = True

    def __init__(self, iterations: int = 5) -> None:
        self.max_iterations = iterations

    def initial_values(self, group: GroupView) -> np.ndarray:
        return self.masked_initial(group, 1.0)

    def scatter(
        self,
        values: np.ndarray,
        weights: Optional[np.ndarray],
        src_degrees: Optional[np.ndarray],
    ) -> np.ndarray:
        if weights is None:
            return values
        return values * weights

    def apply(self, old: np.ndarray, acc: np.ndarray, group: GroupView) -> np.ndarray:
        # L1-normalise each snapshot over its live vertices.
        live = group.vertex_exists
        masked = np.where(live, np.abs(acc), 0.0)
        norms = masked.sum(axis=0)
        safe = np.where(norms > 0, norms, 1.0)
        return acc / safe[None, :]
