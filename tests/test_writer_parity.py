"""The columnar store writer against the per-record writer it replaced.

``write_edge_file``, ``TemporalGraphStore._plan_groups`` and the manifest
entries are all cut from the log's columns (``TemporalGraph.columns``);
the loops they used to be live on in :mod:`tests.writer_oracle`. Random
logs (strict, non-strict and raw; add/del/mod, addV/delV, same-timestamp
ties, non-unit and zero weights, vertices without out-edges, first
activity at time 0 so ``t1 = -1``) must give the same group boundaries,
the same manifest and byte-identical edge files, in format versions 1 and
2, under default, many-group and single-group planning.
"""

from __future__ import annotations

import json
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import TemporalGraphStore, load_series
from repro.storage import format as fmt
from repro.storage.edge_file import write_edge_file
from repro.storage.store import MANIFEST_NAME, group_entries
from repro.streaming import StreamingStore
from repro.temporal import (
    ActivityKind,
    TemporalGraph,
    add_edge,
    add_vertex,
    del_edge,
    del_vertex,
    mod_edge,
)
from repro.temporal.series import build_series
from tests.conftest import random_temporal_graph
from tests.replay_oracle import assert_same_series
from tests.test_reconstruct_parity import OPS, STORE_SHAPES, graphs_and_times
from tests.writer_oracle import (
    oracle_manifest_entries,
    oracle_plan_groups,
    oracle_write_edge_file,
)

WEIGHTS = (1.0, 1.0, 0.0, 2.0, 0.5)


def _plan(graph, shape):
    args = (shape.get("redundancy_ratio", 0.5), shape.get("max_groups"))
    boundaries = TemporalGraphStore._plan_groups(graph, *args)
    assert boundaries == oracle_plan_groups(graph, *args)
    return boundaries


def _assert_files_match_oracle(directory, names, graph, boundaries, version):
    for name, (t1, t2) in zip(names, boundaries):
        expected = directory / (name + ".oracle")
        oracle_write_edge_file(expected, graph, t1, t2, version)
        assert (directory / name).read_bytes() == expected.read_bytes(), name
        expected.unlink()


@settings(max_examples=120, deadline=None)
@given(
    graphs_and_times(WEIGHTS),
    st.sampled_from(STORE_SHAPES),
    st.sampled_from(fmt.SUPPORTED_VERSIONS),
)
def test_store_is_byte_identical_to_the_oracle(case, shape, version):
    graph, times = case
    boundaries = _plan(graph, shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s"
        store = TemporalGraphStore.create(path, graph, **shape)
        names = [g.edge_file.path.name for g in store.groups]
        assert [[g.t1, g.t2] for g in store.groups] == boundaries
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert manifest["groups"] == oracle_manifest_entries(
            graph, names, boundaries
        )
        if version != fmt.VERSION:  # ``create`` writes the current version
            for name, (t1, t2) in zip(names, boundaries):
                write_edge_file(path / name, graph, t1, t2, version)
            store = TemporalGraphStore(path)
        _assert_files_match_oracle(path, names, graph, boundaries, version)
        assert_same_series(load_series(store, times), build_series(graph, times))


@pytest.mark.parametrize("weighted", [False, True])
def test_larger_store_is_byte_identical_to_the_oracle(weighted, tmp_path):
    graph = random_temporal_graph(
        seed=7, num_vertices=40, num_events=900, weighted=weighted
    )
    store = TemporalGraphStore.create(tmp_path, graph, redundancy_ratio=0.8)
    assert store.num_groups > 2
    boundaries = _plan(graph, {"redundancy_ratio": 0.8})
    names = [g.edge_file.path.name for g in store.groups]
    _assert_files_match_oracle(tmp_path, names, graph, boundaries, fmt.VERSION)
    assert group_entries(graph, names, boundaries) == oracle_manifest_entries(
        graph, names, boundaries
    )


def oracle_sections(cp, act, cp_len, act_len, checked):
    """The writer's per-segment trailer loop before the native codec: slice
    each segment's two sections, append CRC32(checkpoint) + CRC32(activities)."""
    out, cp_at, act_at = [], 0, 0
    for cl, al in zip(cp_len, act_len):
        cp_section = cp[cp_at : cp_at + cl]
        act_section = act[act_at : act_at + al]
        out += (cp_section, act_section)
        if checked:
            out.append(
                struct.pack("<II", zlib.crc32(cp_section), zlib.crc32(act_section))
            )
        cp_at, act_at = cp_at + cl, act_at + al
    return b"".join(out)


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_segments_equal_the_per_segment_trailer_loop(seed, tmp_path):
    """Every segment region the codec writes is what the old loop wrote
    from the same sections, over v2 stores with deletions whose groups
    hold empty checkpoint and empty activity sectors."""
    graph = random_temporal_graph(seed=seed, num_vertices=40, num_events=900)
    store = TemporalGraphStore.create(tmp_path, graph, redundancy_ratio=0.8)
    empty_cp = empty_act = 0
    for group in store.groups:
        raw = group.edge_file.path.read_bytes()
        header = group.edge_file.header
        index = np.frombuffer(
            raw, fmt.INDEX_DTYPE, count=header.num_vertices,
            offset=fmt.header_size(header.version),
        )
        index = index[index["offset"] != 0]
        offset = index["offset"].tolist()
        cp_len = (index["n_cp"] * fmt.CHECKPOINT_ENTRY_SIZE).tolist()
        act_len = (index["n_act"] * fmt.ACTIVITY_SIZE).tolist()
        cp = b"".join(raw[o : o + c] for o, c in zip(offset, cp_len))
        act = b"".join(
            raw[o + c : o + c + a] for o, c, a in zip(offset, cp_len, act_len)
        )
        assert raw[header.segments_offset :] == oracle_sections(
            cp, act, cp_len, act_len, checked=True
        )
        empty_cp += cp_len.count(0)
        empty_act += act_len.count(0)
    assert empty_cp and empty_act
    assert (graph.columns().events.kind == ActivityKind.DEL_EDGE).any()


def test_liveness_of_more_group_starts_than_one_bitmap_holds(tmp_path):
    """``redundancy_ratio=1`` closes a group at every timestamp: 150 group
    starts go through ``vertex_liveness`` 64 at a time."""
    log = [add_vertex(0, 0)]
    for t in range(1, 150):
        log.append(add_edge(t % 7, (t + 1) % 7, t, float(t % 3)))
        log.append((add_vertex if t % 2 else del_vertex)(8, t))
    graph = TemporalGraph(log, num_vertices=10)
    boundaries = _plan(graph, {"redundancy_ratio": 1.0})
    assert len(boundaries) > 128
    names = [f"g{i}" for i in range(len(boundaries))]
    assert group_entries(graph, names, boundaries) == oracle_manifest_entries(
        graph, names, boundaries
    )


# ---------------------------------------------------------------------- #
# compaction writes through the same writer


@st.composite
def untied_streams(draw):
    """A stream with strictly increasing times (so append order is the
    canonical replay order), chopped into append batches. It opens with
    an ``addE`` so the non-strict head, which drops deletes and mods of
    dead edges, is never empty."""
    num_vertices = draw(st.integers(min_value=2, max_value=6))
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    make = {
        "addV": lambda u, v, t, w: add_vertex(u, t),
        "delV": lambda u, v, t, w: del_vertex(u, t),
        "addE": lambda u, v, t, w: add_edge(u, v, t, w),
        "delE": lambda u, v, t, w: del_edge(u, v, t),
        "modE": lambda u, v, t, w: mod_edge(u, v, t, w),
    }
    t = draw(st.integers(min_value=0, max_value=3))
    stream = [add_edge(0, 1, t, draw(st.sampled_from(WEIGHTS)))]
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        op, u, v = draw(st.sampled_from(OPS)), draw(vertex), draw(vertex)
        if op in ("addV", "delV") or u != v:
            t += draw(st.integers(min_value=1, max_value=2))
            stream.append(make[op](u, v, t, draw(st.sampled_from(WEIGHTS))))
    size = max(1, len(stream) // draw(st.integers(min_value=1, max_value=3)))
    return [stream[i : i + size] for i in range(0, len(stream), size)]


@settings(max_examples=40, deadline=None)
@given(untied_streams(), st.sampled_from(STORE_SHAPES))
def test_compaction_round_trip_is_byte_identical_and_exact(batches, shape):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp)
        with StreamingStore(path, **shape) as store:
            for batch in batches:
                store.append(batch)
            graph = store.graph()
            fingerprint = store.fingerprint()
            boundaries = _plan(graph, shape)
            for _ in range(2):
                manifest = store.compact()
                names = [entry["edge_file"] for entry in manifest["groups"]]
                assert manifest["groups"] == oracle_manifest_entries(
                    graph, names, boundaries
                )
                _assert_files_match_oracle(
                    path, names, graph, boundaries, fmt.VERSION
                )
                assert store.fingerprint() == fingerprint
        with StreamingStore(path, **shape) as reopened:
            assert reopened.fingerprint() == fingerprint
            assert reopened.recovery.base_records == graph.num_activities
            np.testing.assert_array_equal(
                reopened.graph().columns().events.weight,
                graph.columns().events.weight,
            )
