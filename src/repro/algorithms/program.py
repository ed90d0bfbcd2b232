"""The scatter-gather vertex program interface (paper Section 2.2 and 5).

A vertex program supplies:

- ``scatter`` — what value a source vertex propagates along an edge;
- ``gather`` — how a destination combines incoming messages (the combine is
  restricted to ``min`` or ``sum`` so engines can batch it with NumPy
  ufuncs across the snapshot axis, which is exactly the LABS batching);
- ``apply`` — how a vertex computes its new value from the accumulator.

All hooks are vectorised: they receive arrays whose trailing axis is the
snapshot axis of the current LABS group, so one call handles one vertex
across a batch of snapshots (or a whole edge block at once on the fast
path).

Two execution semantics cover the five applications:

- :attr:`Semantics.MONOTONE` (WCC, SSSP): values only move toward the
  gather identity's opposite; the accumulator persists across iterations
  and only *changed* vertices re-scatter. This is the setting where
  incremental computation (Section 3.5) applies.
- :attr:`Semantics.REGATHER` (PageRank, MIS, SpMV): each iteration resets
  the accumulator and every live vertex re-scatters.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.errors import EngineError
from repro.temporal.series import GroupView


class Semantics(enum.Enum):
    MONOTONE = "monotone"
    REGATHER = "regather"


class GatherKind(enum.Enum):
    """How a destination combines incoming messages.

    MIN and SUM cover the paper's five applications; MAX and the logical
    kinds (encoded over float accumulators as 0.0/1.0) support
    reachability/label-style programs and exercise the full dispatch table
    of the segmented-reduction kernels (:mod:`repro.engine.kernels`).
    """

    MIN = "min"
    SUM = "sum"
    MAX = "max"
    OR = "or"
    AND = "and"

    @property
    def ufunc(self) -> np.ufunc:
        return _GATHER_UFUNCS[self]

    @property
    def identity(self) -> float:
        return _GATHER_IDENTITIES[self]


_GATHER_UFUNCS = {
    GatherKind.MIN: np.minimum,
    GatherKind.SUM: np.add,
    GatherKind.MAX: np.maximum,
    GatherKind.OR: np.logical_or,
    GatherKind.AND: np.logical_and,
}

_GATHER_IDENTITIES = {
    GatherKind.MIN: np.inf,
    GatherKind.SUM: 0.0,
    GatherKind.MAX: -np.inf,
    GatherKind.OR: 0.0,
    GatherKind.AND: 1.0,
}


class VertexProgram:
    """Base class for scatter-gather vertex programs.

    Subclasses set the class attributes and implement
    :meth:`initial_values`, :meth:`scatter`, and :meth:`apply`.
    """

    name: str = "abstract"
    semantics: Semantics = Semantics.REGATHER
    gather: GatherKind = GatherKind.SUM
    #: Whether scatter consumes edge weights.
    needs_weights: bool = False
    #: How a weighted program's message combines the source's value with
    #: the edge weight: ``"add"`` (``values + weights``) or ``"mul"``
    #: (``values * weights``). The engine's walk forms the message itself
    #: from this declaration; :meth:`scatter` must compute the same.
    edge_op: Optional[str] = None
    #: Whether scatter divides by the source's out-degree.
    needs_degrees: bool = False
    #: Directed programs propagate along edge direction only. Undirected
    #: programs (WCC, MIS) must be run on a symmetrised temporal graph; see
    #: :func:`repro.datasets.generators.symmetrized`.
    directed: bool = True
    #: Convergence tolerance on per-vertex value change (0.0 = exact). What
    #: counts as a change is the engine's rule (:func:`repro.native.settle`).
    tol: float = 0.0
    #: Iteration cap (None = run to convergence).
    max_iterations: Optional[int] = None

    # ------------------------------------------------------------------ #

    def initial_values(self, group: GroupView) -> np.ndarray:
        """Initial ``(V, S_g)`` values; NaN where the vertex is not live."""
        raise NotImplementedError

    def initial_active(self, group: GroupView) -> np.ndarray:
        """Initial ``(V, S_g)`` active mask (MONOTONE programs only)."""
        return group.vertex_exists.copy()

    def scatter(
        self,
        values: np.ndarray,
        weights: Optional[np.ndarray],
        src_degrees: Optional[np.ndarray],
    ) -> np.ndarray:
        """Messages propagated along edges; elementwise over any shape."""
        raise NotImplementedError

    def apply(self, old: np.ndarray, acc: np.ndarray, group: GroupView) -> np.ndarray:
        """New values from old values and gathered accumulator."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #

    def decode(self, values: np.ndarray) -> np.ndarray:
        """Map internal value encoding to the user-facing result."""
        return values

    def validate(self) -> None:
        if self.semantics is Semantics.MONOTONE and self.gather is not GatherKind.MIN:
            raise EngineError(
                f"{self.name}: MONOTONE semantics requires a MIN gather"
            )
        if self.needs_weights and (
            self.edge_op not in ("add", "mul")
            or self.needs_degrees
            or self.gather in (GatherKind.OR, GatherKind.AND)
        ):
            raise EngineError(
                f"{self.name}: a weighted program declares edge_op 'add' or "
                f"'mul' (got {self.edge_op!r}), combining value and weight "
                "alone, under a SUM, MIN or MAX gather"
            )

    @staticmethod
    def masked_initial(group: GroupView, fill: float) -> np.ndarray:
        """``(V, S_g)`` array of ``fill`` where live, NaN where dead."""
        vals = np.full(
            (group.num_vertices, group.num_snapshots), np.nan, dtype=np.float64
        )
        vals[group.vertex_exists] = fill
        return vals
