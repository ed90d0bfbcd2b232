"""PageRank as a scatter-gather vertex program.

Uses the GraphLab-era convention the paper's systems used:
``r = (1 - d) + d * sum(r_u / outdeg_u)`` over in-neighbours, iterated
synchronously for a fixed number of iterations (optionally until the
per-vertex change drops below ``tol``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.program import GatherKind, Semantics, VertexProgram
from repro.errors import ValidationError
from repro.temporal.series import GroupView


class PageRank(VertexProgram):
    """PageRank: damped in-neighbour rank accumulation (see module docs)."""

    name = "pagerank"
    semantics = Semantics.REGATHER
    gather = GatherKind.SUM
    needs_weights = False
    needs_degrees = True
    directed = True

    def __init__(
        self,
        damping: float = 0.85,
        iterations: int = 10,
        tol: float = 0.0,
    ) -> None:
        self.damping = damping
        self.max_iterations = iterations
        self.tol = tol

    def initial_values(self, group: GroupView) -> np.ndarray:
        return self.masked_initial(group, 1.0)

    def scatter(
        self,
        values: np.ndarray,
        weights: Optional[np.ndarray],
        src_degrees: Optional[np.ndarray],
    ) -> np.ndarray:
        if src_degrees is None:
            raise ValidationError(
                "PageRank.scatter requires source out-degrees"
            )
        deg = np.asarray(src_degrees, dtype=np.float64)
        out = np.zeros_like(values)
        np.divide(values, deg, out=out, where=deg > 0)
        return out

    def apply(self, old: np.ndarray, acc: np.ndarray, group: GroupView) -> np.ndarray:
        return (1.0 - self.damping) + self.damping * acc
