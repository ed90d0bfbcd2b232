"""Per-group execution state: value/accumulator arrays and their layouts.

One :class:`GroupState` holds, for the LABS group being processed:

- the vertex **values** array — physically oriented by the configured
  layout (``(V, S_g)`` for time-locality, ``(S_g, V)`` for structure-
  locality) and exposed through a uniform ``(V, S_g)`` view;
- the persistent **accumulator** array (same orientation);
- the **frontier** (dirty bits), one ``uint64`` word per vertex, and
  the **running** snapshots' word;
- when tracing, the :class:`~repro.layout.vertex_array.VertexArrayLayout`
  objects that map ``(vertex, snapshot)`` elements to simulated addresses,
  plus the edge-array and stream-buffer address regions.

Execution is strictly phased (scatter reads values, apply writes them), so
a single physical values array provides synchronous semantics; the
functional role of the paper's two-version array is played by the phase
barrier, and the frontier carries the cross-iteration change information.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.algorithms.program import Semantics, VertexProgram
from repro.engine.kernels import frontier_words, plan_for, snapshot_mask
from repro.layout.address_space import AddressSpace
from repro.layout.edge_array import EdgeArrayLayout
from repro.layout.vertex_array import LayoutKind, VertexArrayLayout
from repro.temporal.series import GroupView


class GroupState:
    """Mutable state for one LABS group run."""

    def __init__(
        self,
        group: GroupView,
        layout_kind: LayoutKind,
        program: VertexProgram,
        trace: bool = False,
        address_space: Optional[AddressSpace] = None,
    ) -> None:
        V = group.num_vertices
        Sg = group.num_snapshots
        self.group = group
        self.layout_kind = layout_kind
        self.program = program

        phys_shape = (
            (V, Sg) if layout_kind is LayoutKind.TIME_LOCALITY else (Sg, V)
        )
        self._values_phys = np.empty(phys_shape, dtype=np.float64)
        self._acc_phys = np.full(
            phys_shape, program.gather.identity, dtype=np.float64
        )
        self.values = self._vs_view(self._values_phys)
        self.acc = self._vs_view(self._acc_phys)
        #: Flat (physical-order) views of the same storage. The scatter
        #: kernels index these with layout-order flat destinations, which
        #: is cheaper than 2-D fancy indexing through a transposed view.
        self.values_flat = self._values_phys.reshape(-1)
        self.acc_flat = self._acc_phys.reshape(-1)
        self.values[:] = program.initial_values(group)
        #: What the scatter's walk reads besides the group's edge arrays.
        self.operands = plan_for(group, "in", layout_kind)

        #: The frontier and running words: none until a run's entry
        #: (:meth:`activate`), then set by every apply.
        self.front = np.zeros(V, dtype=np.uint64)
        self.running = 0

        # --- simulated address regions (traced runs only) --------------- #
        #: (V, S_g) mask of accumulator cells written in the current
        #: iteration; the simulated engine charges apply-phase accesses
        #: from it (:mod:`repro.engine.traced`).
        self.received: Optional[np.ndarray] = None
        self.space: Optional[AddressSpace] = None
        self.values_layout: Optional[VertexArrayLayout] = None
        self.acc_layout: Optional[VertexArrayLayout] = None
        self.dirty_layout: Optional[VertexArrayLayout] = None
        self.edge_layout: Optional[EdgeArrayLayout] = None
        self.in_edge_layout: Optional[EdgeArrayLayout] = None
        self.update_buffer_base = -1
        self.bucket_bases: Optional[np.ndarray] = None
        if trace:
            self.received = np.zeros((V, Sg), dtype=bool)
            self.space = address_space or AddressSpace()
            space = self.space
            vbytes = V * Sg * 8
            self.values_layout = VertexArrayLayout(
                layout_kind, space.alloc(vbytes, "values"), V, Sg
            )
            self.acc_layout = VertexArrayLayout(
                layout_kind, space.alloc(vbytes, "acc"), V, Sg
            )
            self.dirty_layout = VertexArrayLayout(
                layout_kind, space.alloc(V * Sg, "dirty"), V, Sg, itemsize=1
            )
            E = group.num_edges
            wbase = (
                space.alloc(E * Sg * 8, "edge_weights")
                if group.out_weight is not None
                else -1
            )
            self.edge_layout = EdgeArrayLayout(
                space.alloc(E * 16, "edges"), E, Sg, weight_base=wbase
            )
            wbase_in = (
                space.alloc(E * Sg * 8, "in_edge_weights")
                if group.in_weight is not None
                else -1
            )
            self.in_edge_layout = EdgeArrayLayout(
                space.alloc(E * 16, "in_edges"), E, Sg, weight_base=wbase_in
            )

    def _vs_view(self, phys: np.ndarray) -> np.ndarray:
        if self.layout_kind is LayoutKind.TIME_LOCALITY:
            return phys
        return phys.T

    # ------------------------------------------------------------------ #

    def activate(
        self, active: Optional[np.ndarray] = None, only: Optional[List[int]] = None
    ) -> None:
        """Set the entry frontier from a ``(V, S_g)`` mask (default: the
        program's initial one; every live cell for REGATHER programs) and
        run the snapshots ``only`` (default: all)."""
        group, program = self.group, self.program
        if active is None:
            monotone = program.semantics is Semantics.MONOTONE
            active = program.initial_active(group) if monotone else group.vertex_exists
        S = group.num_snapshots
        running = np.isin(np.arange(S), range(S) if only is None else only)
        self.front = frontier_words(active & group.vertex_exists, running)
        self.running = snapshot_mask(running)

    def reset_acc(self) -> None:
        """Reset the accumulator to the gather identity (REGATHER programs)."""
        self._acc_phys.fill(self.program.gather.identity)

    def alloc_stream_buffers(self, num_buckets: int) -> None:
        """Reserve the stream-mode update buffer and shuffle buckets."""
        if self.space is None:
            return
        group = self.group
        worst = group.num_edges * group.num_snapshots * 12 + 64
        self.update_buffer_base = self.space.alloc(worst, "update_buffer")
        bases = [self.space.alloc(worst, f"bucket_{b}") for b in range(num_buckets)]
        self.bucket_bases = np.asarray(bases, dtype=np.int64)
