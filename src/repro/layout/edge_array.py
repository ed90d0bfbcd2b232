"""Edge array layout.

The shared edge array (Figure 3, bottom) stores one fixed-size entry per
distinct edge: the target vertex id (4 bytes), the snapshot bitmap
(8 bytes), and padding/weight pointer — 16 bytes per entry. Per-snapshot
edge weights, when present, live in a separate parallel region.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import LayoutError

ENTRY_BYTES = 16


class EdgeArrayLayout:
    """Address computation for the edge array and optional weight matrix."""

    def __init__(
        self,
        base: int,
        num_edges: int,
        num_snapshots: int,
        weight_base: int = -1,
        entry_bytes: int = ENTRY_BYTES,
    ) -> None:
        if num_edges < 0:
            raise LayoutError(f"bad edge count {num_edges}")
        self.base = base
        self.num_edges = num_edges
        self.num_snapshots = num_snapshots
        self.entry_bytes = entry_bytes
        self.weight_base = weight_base

    @property
    def nbytes(self) -> int:
        return self.num_edges * self.entry_bytes

    def entry_range(self, e: int) -> Tuple[int, int]:
        """``(addr, nbytes)`` of edge entry ``e`` (id + snapshot bitmap)."""
        return self.base + e * self.entry_bytes, self.entry_bytes

    def weight_range(self, e: int, s0: int, s1: int) -> Tuple[int, int]:
        """``(addr, nbytes)`` of the weights of edge ``e`` for snapshots [s0, s1).

        Weights are stored time-locality style (per edge, snapshots
        contiguous) to match the batched access pattern.
        """
        if self.weight_base < 0:
            raise LayoutError("edge array has no weight region")
        start = self.weight_base + (e * self.num_snapshots + s0) * 8
        return start, (s1 - s0) * 8
