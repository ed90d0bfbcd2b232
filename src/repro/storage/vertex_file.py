"""Vertex property files (paper Section 4.1).

"Depending on applications, a snapshot group is stored as edge files ...
and vertex files ... For example, there can be one vertex file for the
rank values and others for other vertex-associated properties."

A vertex file stores one named float property per vertex over a snapshot
group's time range, in the same time-locality shape as the edge file: a
checkpoint of every vertex's value at ``t1`` followed by per-vertex
timestamped value updates with ``tu`` links. This is how computed results
(e.g. per-snapshot PageRank values) or input properties persist alongside
the graph structure.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import StorageError
from repro.storage.atomic import atomic_write_via
from repro.storage.format import TU_INFINITY
from repro.types import Time, VertexId

_MAGIC = b"CHRV"
_HEADER = struct.Struct("<4sHIQQI")  # magic, version, V, t1, t2, name length
_CHECKPOINT = struct.Struct("<d")
_UPDATE = struct.Struct("<IQQd")  # vertex, time, tu, value
_VERSION = 1


def write_vertex_file(
    path: Path,
    name: str,
    t1: Time,
    t2: Time,
    checkpoint: np.ndarray,
    updates: Sequence[Tuple[VertexId, Time, float]] = (),
) -> None:
    """Write property ``name``: a ``(V,)`` checkpoint at ``t1`` plus updates.

    ``updates`` must be time-sorted ``(vertex, time, value)`` records with
    ``t1 < time <= t2``.
    """
    if t1 > t2:
        raise StorageError(f"invalid vertex file range [{t1}, {t2}]")
    V = int(checkpoint.shape[0])
    encoded_name = name.encode("utf-8")
    for v, t, _ in updates:
        if not 0 <= v < V:
            raise StorageError(f"update references vertex {v} outside [0,{V})")
        if not t1 < t <= t2:
            raise StorageError(f"update at {t} outside ({t1}, {t2}]")
    times = [t for _, t, _ in updates]
    if times != sorted(times):
        raise StorageError("updates must be time-sorted")

    # tu links: next update time for the same vertex.
    next_time: Dict[int, int] = {}
    tus = [TU_INFINITY] * len(updates)
    for i in range(len(updates) - 1, -1, -1):
        v = updates[i][0]
        tus[i] = next_time.get(v, TU_INFINITY)
        next_time[v] = updates[i][1]

    # Writer primitive: callers hand it a tmp sibling via atomic_write_via
    # (see store_result_series below), so the raw handle never targets a
    # published path (chronolint CHF003 proves it at every caller).
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, V, t1, t2, len(encoded_name)))
        fh.write(encoded_name)
        for value in checkpoint:
            fh.write(_CHECKPOINT.pack(float(value)))
        for (v, t, value), tu in zip(updates, tus):
            fh.write(_UPDATE.pack(v, t, tu, float(value)))


class VertexFile:
    """Reader over one vertex property file."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            raw = fh.read(_HEADER.size)
            if len(raw) != _HEADER.size:
                raise StorageError("truncated vertex file header")
            magic, version, V, t1, t2, name_len = _HEADER.unpack(raw)
            if magic != _MAGIC:
                raise StorageError(f"bad magic {magic!r}; not a vertex file")
            if version != _VERSION:
                raise StorageError(f"unsupported vertex file version {version}")
            self.num_vertices = V
            self.t1 = t1
            self.t2 = t2
            self.name = fh.read(name_len).decode("utf-8")
            cp_raw = fh.read(V * _CHECKPOINT.size)
            if len(cp_raw) != V * _CHECKPOINT.size:
                raise StorageError("truncated vertex checkpoint")
            self._checkpoint = np.frombuffer(cp_raw, dtype=np.float64).copy()
            upd_raw = fh.read()
        n, tail = divmod(len(upd_raw), _UPDATE.size)
        if tail:
            raise StorageError(
                f"truncated vertex file: {tail} trailing byte(s) of a "
                f"partial update record after {n} complete one(s)"
            )
        self._updates: List[Tuple[int, int, int, float]] = [
            _UPDATE.unpack_from(upd_raw, i * _UPDATE.size) for i in range(n)
        ]
        for vid, time, _tu, _val in self._updates:
            if vid >= V:
                raise StorageError(
                    f"update at {time} names vertex {vid} outside [0,{V})"
                )

    @property
    def checkpoint(self) -> np.ndarray:
        return self._checkpoint.copy()

    def value_at(self, v: VertexId, t: Time) -> float:
        """Property value of ``v`` at time ``t``, via the tu-link scan."""
        if not 0 <= v < self.num_vertices:
            raise StorageError(f"vertex {v} out of range")
        if not self.t1 <= t <= self.t2:
            raise StorageError(
                f"time {t} outside vertex file range [{self.t1}, {self.t2}]"
            )
        value = float(self._checkpoint[v])
        for vid, time, tu, val in self._updates:
            if vid != v:
                continue
            if time > t:
                break
            if t < tu:
                value = val
                break
        return value

    def values_at(self, t: Time) -> np.ndarray:
        """All vertices' property values at ``t`` (checkpoint + replay)."""
        if not self.t1 <= t <= self.t2:
            raise StorageError(
                f"time {t} outside vertex file range [{self.t1}, {self.t2}]"
            )
        out = self._checkpoint.copy()
        for vid, time, _tu, val in self._updates:
            if time > t:
                break
            out[vid] = val
        return out


def store_result_series(
    directory: Path,
    name: str,
    times: Sequence[Time],
    values: np.ndarray,
) -> List[Path]:
    """Persist a computed ``(V, S)`` result as a vertex file per snapshot run.

    The first snapshot's values become the checkpoint; subsequent
    snapshots are stored as per-vertex updates (only vertices whose value
    changed), mirroring how Chronos would persist derived properties.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if values.shape[1] != len(times):
        raise StorageError("values and times disagree on snapshot count")
    checkpoint = np.nan_to_num(values[:, 0], nan=np.nan)
    updates: List[Tuple[VertexId, Time, float]] = []
    prev = values[:, 0]
    for s in range(1, len(times)):
        col = values[:, s]
        changed = ~((col == prev) | (np.isnan(col) & np.isnan(prev)))
        for v in np.nonzero(changed)[0]:
            updates.append((int(v), int(times[s]), float(col[v])))
        prev = col
    path = directory / f"{name}.chronosv"
    atomic_write_via(
        path,
        lambda tmp: write_vertex_file(
            tmp, name, int(times[0]), int(times[-1]), checkpoint, updates
        ),
        tag="results",
    )
    return [path]
