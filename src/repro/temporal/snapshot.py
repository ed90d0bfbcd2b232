"""Static graph snapshots in CSR form.

A :class:`Snapshot` is the state of a temporal graph at one time point — the
object a conventional (static) graph engine computes on. The
snapshot-by-snapshot baseline in the paper's evaluation runs one static
computation per snapshot; our reference algorithms also take snapshots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.errors import SnapshotError
from repro.temporal.reconstruct import edge_order
from repro.types import Time, VertexId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.temporal.graph import TemporalGraph


class Snapshot:
    """A static directed graph at a single time point, stored as CSR.

    Vertex ids are dense in ``[0, num_vertices)``; ``vertex_mask[v]`` is
    False for ids that are not live at the snapshot time (they then have no
    incident edges either).
    """

    def __init__(
        self,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weight: Optional[np.ndarray],
        vertex_mask: np.ndarray,
        time: Time = 0,
    ) -> None:
        if src.shape != dst.shape:
            raise SnapshotError("src and dst arrays must have the same shape")
        if weight is not None and weight.shape != src.shape:
            raise SnapshotError("weight array must match the edge count")
        order = edge_order(src, dst, num_vertices)
        self.num_vertices = int(num_vertices)
        self.time = time
        self.out_dst = dst[order].astype(np.int64)
        self._out_src = src[order].astype(np.int64)
        self.out_weight = None if weight is None else weight[order].astype(np.float64)
        counts = np.bincount(self._out_src, minlength=num_vertices)
        self.out_index = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self.vertex_mask = vertex_mask.astype(bool)
        # In-CSR (built eagerly; snapshots are small relative to the series).
        in_order = edge_order(self.out_dst, self._out_src, num_vertices)
        self.in_src = self._out_src[in_order]
        self.in_weight = (
            None if self.out_weight is None else self.out_weight[in_order]
        )
        in_counts = np.bincount(self.out_dst, minlength=num_vertices)
        self.in_index = np.concatenate(([0], np.cumsum(in_counts))).astype(np.int64)

    # ------------------------------------------------------------------ #

    @classmethod
    def from_temporal_graph(cls, graph: "TemporalGraph", t: Time) -> "Snapshot":
        """Reconstruct the snapshot of ``graph`` at time ``t``."""
        from repro.temporal.series import reconstruct_series

        return reconstruct_series(graph, [t]).snapshot(0)

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Sequence,
        weights: Optional[Sequence[float]] = None,
    ) -> "Snapshot":
        """Build a snapshot directly from an edge list (testing convenience)."""
        if edges:
            src = np.asarray([e[0] for e in edges], dtype=np.int64)
            dst = np.asarray([e[1] for e in edges], dtype=np.int64)
        else:
            src = np.zeros(0, dtype=np.int64)
            dst = np.zeros(0, dtype=np.int64)
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
        mask = np.zeros(num_vertices, dtype=bool)
        mask[src] = True
        mask[dst] = True
        return cls(num_vertices, src, dst, w, mask)

    # ------------------------------------------------------------------ #

    @property
    def num_edges(self) -> int:
        return int(self.out_dst.shape[0])

    def out_neighbors(self, v: VertexId) -> np.ndarray:
        """Destination ids of out-edges of ``v``."""
        return self.out_dst[self.out_index[v] : self.out_index[v + 1]]

    def out_weights(self, v: VertexId) -> Optional[np.ndarray]:
        """Weights of the out-edges of ``v`` (aligned with neighbours)."""
        if self.out_weight is None:
            return None
        return self.out_weight[self.out_index[v] : self.out_index[v + 1]]

    def in_neighbors(self, v: VertexId) -> np.ndarray:
        """Source ids of in-edges of ``v``."""
        return self.in_src[self.in_index[v] : self.in_index[v + 1]]

    def in_weights(self, v: VertexId) -> Optional[np.ndarray]:
        if self.in_weight is None:
            return None
        return self.in_weight[self.in_index[v] : self.in_index[v + 1]]

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an ``(V,)`` array."""
        return np.diff(self.out_index)

    def edge_set(self):
        """The edge set as Python tuples (testing convenience)."""
        return set(zip(self._out_src.tolist(), self.out_dst.tolist()))
