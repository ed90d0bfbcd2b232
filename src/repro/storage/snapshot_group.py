"""Snapshot groups: checkpoint + deltas over a time range (Section 4.1)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Set

from repro.errors import StorageError
from repro.storage.edge_file import EdgeFile
from repro.types import Time, VertexId, Weight


@dataclass
class SnapshotGroup:
    """One snapshot group ``G[t1, t2]``: an edge file plus vertex metadata.

    The edge file carries all edge state; the vertex side (live set at t1
    and explicit vertex activities) lives in the store's manifest, since
    explicit vertex activities are rare in the evaluated graphs.
    """

    edge_file: EdgeFile
    live_vertices_at_start: Set[VertexId]
    vertex_activities: List  # explicit add/del vertex Activity records

    @property
    def t1(self) -> Time:
        return self.edge_file.t1

    @property
    def t2(self) -> Time:
        return self.edge_file.t2

    def contains(self, t: Time) -> bool:
        return self.t1 <= t <= self.t2

    def out_edges_at(self, v: VertexId, t: Time) -> Dict[VertexId, Weight]:
        if not self.contains(t):
            raise StorageError(
                f"time {t} outside snapshot group [{self.t1}, {self.t2}]"
            )
        return self.edge_file.out_edges_at(v, t)

    @classmethod
    def open(
        cls,
        edge_path: Path,
        live_vertices: Set[VertexId],
        vertex_activities: List,
        mmap: bool = False,
    ) -> "SnapshotGroup":
        """Open the group; ``mmap=True`` maps the edge file instead of
        reading it eagerly per access (see :class:`EdgeFile`)."""
        return cls(
            EdgeFile(edge_path, mmap=mmap), live_vertices, vertex_activities
        )
