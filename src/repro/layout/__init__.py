"""In-memory layouts for temporal graph data (paper Section 3.2).

Chronos's core layout decision is whether the per-snapshot states of a
vertex are grouped by **time** (all snapshots of one vertex contiguous — the
layout Chronos favours) or by **structure** (all vertices of one snapshot
contiguous — what a static engine applied per snapshot uses).

Two things depend on the layout:

1. the *simulated addresses* the execution engines emit when a
   :class:`~repro.memsim.hierarchy.MemoryHierarchy` is tracing — this is
   what reproduces the paper's cache/TLB miss counts; and
2. the physical orientation of the NumPy state arrays
   (``(V, S)`` row-major for time-locality, ``(S, V)`` for
   structure-locality), so even the pure-Python fast path pays the strided
   access cost of the structure layout.
"""

from repro.layout.address_space import AddressSpace
from repro.layout.edge_array import EdgeArrayLayout
from repro.layout.vertex_array import LayoutKind, VertexArrayLayout

__all__ = [
    "AddressSpace",
    "EdgeArrayLayout",
    "LayoutKind",
    "VertexArrayLayout",
]
