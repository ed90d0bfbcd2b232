"""Per-record store-writer oracles.

The Python loops that wrote the store before the columnar writer
(:func:`repro.storage.edge_file.write_edge_file`, group planning and the
manifest entries in :mod:`repro.storage.store`) replaced them, kept here
as the reference the writer is tested against byte for byte. They cost
O(groups x (activities + distinct edges x records per edge)) and are
written for obviousness, not speed. Records are packed with this file's
own ``struct`` layouts, so the oracle shares no encoding code with the
writer under test.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.temporal.activity import ActivityKind
from repro.temporal.graph import TemporalGraph

_HEADER = struct.Struct("<4sHIqq")
_INDEX_ENTRY = struct.Struct("<QII")
_CHECKPOINT_ENTRY = struct.Struct("<Id")
_ACTIVITY = struct.Struct("<BIQQd")
_CRC = struct.Struct("<I")
_TU_INFINITY = 0xFFFFFFFFFFFFFFFF
_KIND_CODE = {
    ActivityKind.ADD_EDGE: 0,
    ActivityKind.DEL_EDGE: 1,
    ActivityKind.MOD_EDGE: 2,
}


def _crc(data: bytes) -> bytes:
    return _CRC.pack(zlib.crc32(data) & 0xFFFFFFFF)


def oracle_write_edge_file(
    path: Path, graph: TemporalGraph, t1: int, t2: int
) -> None:
    """The snapshot group ``[t1, t2]`` of ``graph``, one record at a time."""
    V = graph.num_vertices
    header = _HEADER.pack(b"CHRN", 2, V, t1, t2)
    segments_offset = len(header) + V * _INDEX_ENTRY.size + 2 * _CRC.size

    by_src: Dict[int, List] = {}
    for a in graph.activities:
        if a.is_edge_activity and t1 < a.time <= t2:
            by_src.setdefault(a.src, []).append(a)
    out_keys: Dict[int, List[int]] = {}
    for src, dst in graph.edge_keys():
        out_keys.setdefault(src, []).append(dst)

    segments: List[bytes] = []
    index: List[Tuple[int, int, int]] = []
    offset = segments_offset
    for v in range(V):
        checkpoint: List[bytes] = []
        for u in sorted(out_keys.get(v, ())):
            w = graph.edge_record_state_at(v, u, t1)
            if w is not None:
                checkpoint.append(_CHECKPOINT_ENTRY.pack(u, w))
        acts = by_src.get(v, [])
        # tu links: next activity time on the same (v, dst) edge.
        next_time: Dict[int, int] = {}
        tus = [_TU_INFINITY] * len(acts)
        for i in range(len(acts) - 1, -1, -1):
            dst = acts[i].dst
            tus[i] = next_time.get(dst, _TU_INFINITY)
            next_time[dst] = acts[i].time
        packed_acts = [
            _ACTIVITY.pack(
                _KIND_CODE[a.kind],
                a.dst,
                a.time,
                tus[i],
                a.weight if a.weight is not None else 1.0,
            )
            for i, a in enumerate(acts)
        ]
        if not checkpoint and not packed_acts:
            index.append((0, 0, 0))
            continue
        cp_raw = b"".join(checkpoint)
        act_raw = b"".join(packed_acts)
        segment = cp_raw + act_raw + _crc(cp_raw) + _crc(act_raw)
        index.append((offset, len(checkpoint), len(packed_acts)))
        segments.append(segment)
        offset += len(segment)

    index_raw = b"".join(_INDEX_ENTRY.pack(*entry) for entry in index)
    with open(path, "wb") as fh:
        fh.write(header + _crc(header))
        fh.write(index_raw + _crc(index_raw))
        for segment in segments:
            fh.write(segment)


def oracle_plan_groups(
    graph: TemporalGraph, redundancy_ratio: float, max_groups: Optional[int]
) -> List[List[int]]:
    """Group boundaries under the redundancy-ratio rule, one record per step."""
    checkpoint_entry, activity = _CHECKPOINT_ENTRY.size, _ACTIVITY.size
    t0, t_end = graph.time_range
    live = set()
    boundaries: List[List[int]] = []
    group_start = t0 - 1  # group checkpoints taken at t1 (exclusive deltas)
    act_bytes = 0
    budget = None
    last_time = t0
    for a in graph.activities:
        if a.is_edge_activity:
            if budget is None:
                cp_bytes = max(len(live) * checkpoint_entry, checkpoint_entry)
                budget = cp_bytes * (1.0 - redundancy_ratio) / redundancy_ratio
            act_bytes += activity
            if a.kind == ActivityKind.ADD_EDGE:
                live.add((a.src, a.dst))
            elif a.kind == ActivityKind.DEL_EDGE:
                live.discard((a.src, a.dst))
            if act_bytes > budget and a.time > group_start:
                boundaries.append([group_start, a.time])
                group_start = a.time
                act_bytes = 0
                budget = None
        last_time = a.time
    if group_start < t_end or not boundaries:
        boundaries.append([group_start, max(t_end, last_time)])
    if max_groups is not None and len(boundaries) > max_groups:
        while len(boundaries) > max_groups:
            merged = boundaries.pop(1)
            boundaries[0][1] = merged[1]
    return boundaries


def oracle_manifest_entries(
    graph: TemporalGraph, names: List[str], boundaries: List[List[int]]
) -> List[dict]:
    """The manifest's ``groups`` list, one liveness query per vertex per group."""
    entries = []
    for name, (g1, g2) in zip(names, boundaries):
        entries.append(
            {
                "edge_file": name,
                "t1": g1,
                "t2": g2,
                "live_vertices_at_start": [
                    v
                    for v in range(graph.num_vertices)
                    if graph.vertex_live_at(v, g1)
                ],
                "vertex_activities": [
                    {"time": a.time, "kind": int(a.kind), "vertex": a.src}
                    for a in graph.activities
                    if not a.is_edge_activity and g1 < a.time <= g2
                ],
            }
        )
    return entries
