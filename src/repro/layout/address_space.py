"""A simulated byte-addressable address space.

The memory-hierarchy simulator operates on plain integer addresses. Engines
allocate the regions they would allocate natively (vertex data arrays, edge
array, accumulators, update buffers) from one :class:`AddressSpace` so the
trace reflects realistic region separation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import LayoutError


@dataclass
class Region:
    """One allocated region (for introspection and debugging)."""

    label: str
    base: int
    nbytes: int


@dataclass
class AddressSpace:
    """A bump allocator over a simulated linear address space."""

    alignment: int = 64
    _next: int = field(default=0, init=False)
    _regions: Dict[str, Region] = field(default_factory=dict, init=False)

    def alloc(self, nbytes: int, label: str) -> int:
        """Allocate ``nbytes`` and return the region base address.

        Regions are aligned to ``alignment`` (a cache line by default) so
        that distinct regions never share a line, as a real allocator's
        large allocations would not.
        """
        if nbytes < 0:
            raise LayoutError(f"cannot allocate {nbytes} bytes")
        base = self._next
        if label in self._regions:
            label = f"{label}#{len(self._regions)}"
        self._regions[label] = Region(label, base, nbytes)
        end = base + nbytes
        self._next = (end + self.alignment - 1) // self.alignment * self.alignment
        return base

    @property
    def regions(self) -> Dict[str, Region]:
        return dict(self._regions)
