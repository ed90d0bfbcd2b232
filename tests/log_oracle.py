"""Per-record log oracles.

The Python loops that carried a log between its in-memory forms before
``LogColumns`` became the only one: ``TemporalGraph.__init__``'s sorted
tuple and its three event dicts (with the point queries that read them),
``log_columns``' list comprehensions, the builder that accumulated
``Activity`` objects (and was the streaming head), ``_load_base``'s
scan -> ``Activity`` -> sort -> ``append`` loop, and the ``struct``
record codec behind the WAL and ``fingerprint()``. Kept verbatim as the
reference the columnar code is tested against, field for field and byte
for byte. Records are packed with this file's own ``struct`` layouts, so
the oracle shares no encoding code with the codec under test.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StorageError, TemporalGraphError
from repro.storage.store import MANIFEST_NAME, TemporalGraphStore
from repro.temporal.activity import (
    Activity,
    ActivityKind,
    add_edge,
    add_vertex,
    del_edge,
    del_vertex,
    mod_edge,
)
from repro.temporal.reconstruct import (
    EdgeEvents,
    chain_state,
    edge_order,
    first_of_edge,
)

EdgeKey = Tuple[int, int]

# --------------------------------------------------------------------- #
# TemporalGraph: the sorted tuple, the three dicts, the point queries
# --------------------------------------------------------------------- #


class OracleGraph:
    """``TemporalGraph`` as it was: a sorted activity tuple and dicts."""

    def __init__(
        self,
        activities: Iterable[Activity],
        num_vertices: Optional[int] = None,
    ) -> None:
        self._activities: Tuple[Activity, ...] = tuple(sorted(activities))
        max_vid = -1
        for a in self._activities:
            max_vid = max(max_vid, a.src, a.dst)
        inferred = max_vid + 1
        if num_vertices is None:
            num_vertices = inferred
        elif num_vertices < inferred:
            raise TemporalGraphError(
                f"num_vertices={num_vertices} but activities reference "
                f"vertex {max_vid}"
            )
        self._num_vertices = num_vertices
        self._edge_events: Dict[EdgeKey, List[Activity]] = {}
        self._vertex_events: Dict[int, List[Activity]] = {}
        self._first_touch: Dict[int, int] = {}
        for a in self._activities:
            if a.is_edge_activity:
                self._edge_events.setdefault((a.src, a.dst), []).append(a)
                for v in (a.src, a.dst):
                    self._first_touch.setdefault(v, a.time)
            else:
                self._vertex_events.setdefault(a.src, []).append(a)
                self._first_touch.setdefault(a.src, a.time)

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def activities(self) -> Sequence[Activity]:
        return self._activities

    @property
    def num_activities(self) -> int:
        return len(self._activities)

    @property
    def num_edge_keys(self) -> int:
        return len(self._edge_events)

    def edge_keys(self) -> Iterable[EdgeKey]:
        return self._edge_events.keys()

    @property
    def time_range(self) -> Tuple[int, int]:
        if not self._activities:
            raise TemporalGraphError("empty temporal graph has no time range")
        return self._activities[0].time, self._activities[-1].time

    def vertex_live_at(self, v: int, t: int) -> bool:
        events = self._vertex_events.get(v)
        if events:
            idx = bisect.bisect_right([e.time for e in events], t) - 1
            if idx >= 0:
                return events[idx].kind == ActivityKind.ADD_VERTEX
        first = self._first_touch.get(v)
        return first is not None and first <= t

    def edge_record_state_at(self, u: int, v: int, t: int) -> Optional[float]:
        events = self._edge_events.get((u, v))
        if not events:
            return None
        live = False
        weight = 1.0
        for a in events:
            if a.time > t:
                break
            if a.kind == ActivityKind.ADD_EDGE:
                live = True
                weight = a.weight if a.weight is not None else 1.0
            elif a.kind == ActivityKind.DEL_EDGE:
                live = False
            elif a.kind == ActivityKind.MOD_EDGE:
                weight = a.weight if a.weight is not None else weight
        return weight if live else None

    def edge_state_at(self, u: int, v: int, t: int) -> Optional[float]:
        weight = self.edge_record_state_at(u, v, t)
        if weight is None:
            return None
        if not (self.vertex_live_at(u, t) and self.vertex_live_at(v, t)):
            return None
        return weight

    def edge_live_at(self, u: int, v: int, t: int) -> bool:
        return self.edge_state_at(u, v, t) is not None

    def activities_between(self, t1: int, t2: int) -> List[Activity]:
        times = [a.time for a in self._activities]
        lo = bisect.bisect_right(times, t1)
        hi = bisect.bisect_right(times, t2)
        return list(self._activities[lo:hi])

    def edge_events_for(self, u: int, v: int) -> Sequence[Activity]:
        return tuple(self._edge_events.get((u, v), ()))

    def out_edge_events(self) -> Dict[int, List[Activity]]:
        grouped: Dict[int, List[Activity]] = {}
        for a in self._activities:
            if a.is_edge_activity:
                grouped.setdefault(a.src, []).append(a)
        return grouped


# --------------------------------------------------------------------- #
# log_columns: nine list comprehensions
# --------------------------------------------------------------------- #


def oracle_log_columns(
    activities: Sequence[Activity], num_vertices: int
) -> Dict[str, object]:
    """The ``LogColumns`` fields of a replay-ordered log, by name."""
    edge_acts = [a for a in activities if a.dst >= 0]
    vertex_acts = [a for a in activities if a.dst < 0]
    events = EdgeEvents(
        src=np.array([a.src for a in edge_acts], dtype=np.int64),
        dst=np.array([a.dst for a in edge_acts], dtype=np.int64),
        time=np.array([a.time for a in edge_acts], dtype=np.int64),
        kind=np.array([a.kind for a in edge_acts], dtype=np.uint8),
        weight=np.array(
            [1.0 if a.weight is None else a.weight for a in edge_acts],
            dtype=np.float64,
        ),
    )
    order = edge_order(events.src, events.dst, num_vertices)
    until, live_after = chain_state(
        first_of_edge(events.src[order], events.dst[order]),
        events.time[order],
        events.kind[order],
    )
    live = np.empty_like(live_after)
    live[order] = live_after
    next_time = np.empty_like(until)
    next_time[order] = until
    return {
        "time": np.array([a.time for a in activities], dtype=np.int64),
        "events": events,
        "vertex": np.array([a.src for a in vertex_acts], dtype=np.int64),
        "vertex_time": np.array(
            [a.time for a in vertex_acts], dtype=np.int64
        ),
        "vertex_add": np.array(
            [a.kind == ActivityKind.ADD_VERTEX for a in vertex_acts],
            dtype=np.bool_,
        ),
        "edge_order": order,
        "live": live,
        "next_time": next_time,
    }


# --------------------------------------------------------------------- #
# TemporalGraphBuilder: a list of Activity objects (also the old head)
# --------------------------------------------------------------------- #


class OracleBuilder:
    """``TemporalGraphBuilder`` as it was; ``strict=False`` was the head."""

    def __init__(self, strict: bool = True) -> None:
        self._activities: List[Activity] = []
        self._edge_live: Dict[EdgeKey, bool] = {}
        self._vertex_live: Dict[int, bool] = {}
        self._last_time = 0
        self._strict = strict

    def __len__(self) -> int:
        return len(self._activities)

    @property
    def last_time(self) -> int:
        return self._last_time

    def add_vertex(self, v: int, t: int) -> "OracleBuilder":
        return self.append(add_vertex(v, t))

    def del_vertex(self, v: int, t: int) -> "OracleBuilder":
        return self.append(del_vertex(v, t))

    def add_edge(
        self, u: int, v: int, t: int, weight: float = 1.0
    ) -> "OracleBuilder":
        if not self._strict and self._edge_live.get((u, v), False):
            return self.append(mod_edge(u, v, t, weight))
        return self.append(add_edge(u, v, t, weight))

    def del_edge(self, u: int, v: int, t: int) -> "OracleBuilder":
        return self.append(del_edge(u, v, t))

    def mod_edge(self, u: int, v: int, t: int, weight: float) -> "OracleBuilder":
        return self.append(mod_edge(u, v, t, weight))

    def append(self, activity: Activity) -> "OracleBuilder":
        t = activity.time
        if t < self._last_time:
            raise TemporalGraphError(
                f"activity at time {t} appended after time {self._last_time}; "
                "activities must be appended in non-decreasing time order"
            )
        self._last_time = t
        kind = activity.kind
        if kind == ActivityKind.ADD_VERTEX or kind == ActivityKind.DEL_VERTEX:
            v = activity.src
            adding = kind == ActivityKind.ADD_VERTEX
            if self._strict and self._vertex_live.get(v, False) == adding:
                state = "already live" if adding else "not live"
                raise TemporalGraphError(f"vertex {v} {state} at time {t}")
            self._vertex_live[v] = adding
        else:
            key = (activity.src, activity.dst)
            live = self._edge_live.get(key, False)
            if kind == ActivityKind.ADD_EDGE:
                if live:
                    if self._strict:
                        raise TemporalGraphError(
                            f"edge {key} already live at time {t}"
                        )
                    weight = activity.weight
                    activity = mod_edge(
                        *key, t, 1.0 if weight is None else weight
                    )
                self._edge_live[key] = True
            elif not live:
                if self._strict:
                    raise TemporalGraphError(f"edge {key} not live at time {t}")
                return self
            elif kind == ActivityKind.DEL_EDGE:
                self._edge_live[key] = False
        self._activities.append(activity)
        return self

    def build(self, num_vertices: Optional[int] = None) -> OracleGraph:
        return OracleGraph(self._activities, num_vertices=num_vertices)


# --------------------------------------------------------------------- #
# the struct record codec: WAL frames and fingerprint()
# --------------------------------------------------------------------- #

_WAL_HEADER = struct.Struct("<4sHH")
_CRC = struct.Struct("<I")
_FRAME_HEADER = struct.Struct("<II")
_PAYLOAD_HEADER = struct.Struct("<QH")
_RECORD = struct.Struct("<BIqqd")
_WAL_HEADER_SIZE = _WAL_HEADER.size + _CRC.size


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def oracle_pack_record(activity: Activity) -> bytes:
    weight = activity.weight if activity.weight is not None else math.nan
    return _RECORD.pack(
        int(activity.kind),
        activity.src,
        activity.dst,
        activity.time,
        weight,
    )


def oracle_unpack_record(raw: bytes, offset: int) -> Activity:
    kind_code, src, dst, time, weight = _RECORD.unpack_from(raw, offset)
    kind = ActivityKind(kind_code)
    return Activity(
        time=time,
        kind=kind,
        src=src,
        dst=dst,
        weight=None if math.isnan(weight) else weight,
    )


def oracle_pack_frame(seq: int, activities: Sequence[Activity]) -> bytes:
    payload = _PAYLOAD_HEADER.pack(seq, len(activities)) + b"".join(
        oracle_pack_record(a) for a in activities
    )
    return _FRAME_HEADER.pack(len(payload), _crc(payload)) + payload


def oracle_wal_bytes(
    batches: Sequence[Sequence[Activity]], first_seq: int = 1
) -> bytes:
    """The WAL file holding ``batches`` as frames ``first_seq``, ..."""
    raw = _WAL_HEADER.pack(b"CWAL", 1, 0)
    out = [raw, _CRC.pack(_crc(raw))]
    for seq, batch in enumerate(batches, start=first_seq):
        out.append(oracle_pack_frame(seq, batch))
    return b"".join(out)


def oracle_wal_frames(raw: bytes) -> List[Tuple[int, Tuple[Activity, ...]]]:
    """``(seq, activities)`` of every frame of a clean WAL."""
    frames = []
    offset = _WAL_HEADER_SIZE
    while offset < len(raw):
        length, payload_crc = _FRAME_HEADER.unpack_from(raw, offset)
        start = offset + _FRAME_HEADER.size
        payload = raw[start : start + length]
        assert _crc(payload) == payload_crc
        seq, count = _PAYLOAD_HEADER.unpack_from(payload, 0)
        frames.append(
            (
                seq,
                tuple(
                    oracle_unpack_record(
                        payload, _PAYLOAD_HEADER.size + i * _RECORD.size
                    )
                    for i in range(count)
                ),
            )
        )
        offset = start + length
    return frames


def oracle_fingerprint(graph: OracleGraph) -> str:
    """``StreamingStore.fingerprint()``: one ``pack_record`` per activity."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"v{graph.num_vertices}:".encode("ascii"))
    for a in graph.activities:
        h.update(oracle_pack_record(a))
    return h.hexdigest()


# --------------------------------------------------------------------- #
# StreamingStore open: _load_base's loop and per-record WAL replay
# --------------------------------------------------------------------- #

_KIND_FROM_CODE = {
    0: ActivityKind.ADD_EDGE,
    1: ActivityKind.DEL_EDGE,
    2: ActivityKind.MOD_EDGE,
}


def oracle_load_base(path: Path, head: OracleBuilder) -> int:
    """Append the base store's log to ``head``; the store's vertex count."""
    store = TemporalGraphStore(path)
    activities: List[Activity] = []
    for gi, group in enumerate(store.groups):
        for v, checkpoint, acts in group.edge_file.all_segments():
            if gi == 0 and checkpoint:
                raise StorageError(
                    f"store at {path} checkpoints edges at its "
                    "first group boundary; streaming requires a "
                    "full-history store (compaction always writes one)"
                )
            for kind_code, dst, time, _tu, weight in acts:
                kind = _KIND_FROM_CODE[kind_code]
                activities.append(
                    Activity(
                        time=time,
                        kind=kind,
                        src=v,
                        dst=dst,
                        weight=(
                            weight
                            if kind is not ActivityKind.DEL_EDGE
                            else None
                        ),
                    )
                )
        for record in group.vertex_activities:
            activities.append(record)
    activities.sort()
    for activity in activities:
        head.append(activity)
    return int(store.num_vertices)


def oracle_open(path: Path) -> Tuple[OracleBuilder, int]:
    """The head a (clean) store directory opened to, and its vertex floor."""
    path = Path(path)
    head = OracleBuilder(strict=False)
    floor = 0
    wal_seq = 0
    if (path / MANIFEST_NAME).exists():
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        floor = oracle_load_base(path, head)
        wal_seq = int(manifest.get("streaming", {}).get("wal_seq", 0))
    wal_path = path / "wal.chronos"
    if wal_path.exists():
        for seq, activities in oracle_wal_frames(wal_path.read_bytes()):
            if seq <= wal_seq:
                continue
            for activity in activities:
                head.append(activity)
    return head, floor


def oracle_head_graph(head: OracleBuilder, floor: int) -> OracleGraph:
    """``StreamingStore.graph()`` over an oracle head."""
    graph = head.build()
    if floor > graph.num_vertices:
        graph = head.build(num_vertices=floor)
    return graph
