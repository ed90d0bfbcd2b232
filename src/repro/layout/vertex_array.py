"""Vertex data array layouts: time-locality vs structure-locality.

See Figure 3 of the paper. For a series of ``S`` snapshots over ``V``
vertices with 8-byte values:

- **time-locality** stores ``[v0@s0, v0@s1, ..., v0@s(S-1), v1@s0, ...]`` —
  the states of one vertex across snapshots are contiguous, so a batched
  (LABS) propagation touches ``ceil(S*8/64)`` cache lines per neighbour;
- **structure-locality** stores ``[v0@s0, v1@s0, ..., v(V-1)@s0, v0@s1,...]``
  — the states of one snapshot are contiguous, so per-snapshot scheduling
  gets whatever locality the vertex ordering provides, and batched access
  to one vertex across snapshots strides by ``V*8`` bytes.
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import LayoutError


class LayoutKind(enum.Enum):
    """Which dimension of the (vertex, snapshot) grid is contiguous."""

    TIME_LOCALITY = "time"
    STRUCTURE_LOCALITY = "structure"


class VertexArrayLayout:
    """Address computation for one per-vertex, per-snapshot data array."""

    def __init__(
        self,
        kind: LayoutKind,
        base: int,
        num_vertices: int,
        num_snapshots: int,
        itemsize: int = 8,
    ) -> None:
        if num_vertices < 0 or num_snapshots <= 0:
            raise LayoutError(
                f"bad layout dims V={num_vertices} S={num_snapshots}"
            )
        self.kind = kind
        self.base = base
        self.num_vertices = num_vertices
        self.num_snapshots = num_snapshots
        self.itemsize = itemsize

    @property
    def nbytes(self) -> int:
        return self.num_vertices * self.num_snapshots * self.itemsize

    def addr(self, v: int, s: int) -> int:
        """Simulated byte address of the value of vertex ``v`` at snapshot ``s``."""
        if self.kind is LayoutKind.TIME_LOCALITY:
            index = v * self.num_snapshots + s
        else:
            index = s * self.num_vertices + v
        return self.base + index * self.itemsize

    def ranges(self, v: int, snapshots: Sequence[int]) -> List[Tuple[int, int]]:
        """Merged ``(addr, nbytes)`` ranges touched for vertex ``v``.

        ``snapshots`` must be ascending. Under time-locality consecutive
        snapshots merge into one contiguous range (the batching win); under
        structure-locality every snapshot is its own ``V*itemsize``-strided
        element.
        """
        if len(snapshots) == 0:
            return []
        it = self.itemsize
        if self.kind is LayoutKind.STRUCTURE_LOCALITY:
            return [(self.addr(v, s), it) for s in snapshots]
        merged: List[Tuple[int, int]] = []
        run_start = snapshots[0]
        prev = snapshots[0]
        for s in snapshots[1:]:
            if s == prev + 1:
                prev = s
                continue
            merged.append((self.addr(v, run_start), (prev - run_start + 1) * it))
            run_start = s
            prev = s
        merged.append((self.addr(v, run_start), (prev - run_start + 1) * it))
        return merged

    def sequential_ranges(self, chunk_bytes: int = 4096) -> Iterable[Tuple[int, int]]:
        """Ranges covering the whole array in address order (for scans)."""
        remaining = self.nbytes
        addr = self.base
        while remaining > 0:
            step = min(chunk_bytes, remaining)
            yield addr, step
            addr += step
            remaining -= step

    def allocate_array(self) -> np.ndarray:
        """Allocate the physical NumPy array in layout orientation.

        Returns a ``(V, S)`` array for time-locality and an ``(S, V)`` array
        for structure-locality; use :meth:`vs_view` for a uniform ``(V, S)``
        view.
        """
        if self.kind is LayoutKind.TIME_LOCALITY:
            return np.zeros((self.num_vertices, self.num_snapshots), dtype=np.float64)
        return np.zeros((self.num_snapshots, self.num_vertices), dtype=np.float64)

    def vs_view(self, arr: np.ndarray) -> np.ndarray:
        """A ``(V, S)``-shaped view of a physical array of this layout."""
        if self.kind is LayoutKind.TIME_LOCALITY:
            return arr
        return arr.T
