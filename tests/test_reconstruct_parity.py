"""The reconstruction kernel against the per-record replay oracles.

``build_series`` and ``load_series`` both run
:mod:`repro.temporal.reconstruct`; the loops they used to run live on in
:mod:`tests.replay_oracle`. Random logs (strict, non-strict and raw; with
add/del/mod, non-unit weights, explicit addV/delV and same-timestamp
ties) must give, array for array, the same series three ways: kernel from
the log, kernel from a store (single- and multi-group, eager and mmap),
and the oracles.
"""

from __future__ import annotations

import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SnapshotError, StorageError, TemporalGraphError
from repro.obs import runtime as obs
from repro.storage import TemporalGraphStore, load_series
from repro.storage import format as fmt
from repro.storage.store import StoreConfig
from repro.temporal import (
    ActivityKind,
    TemporalGraph,
    TemporalGraphBuilder,
    add_edge,
    add_vertex,
    del_edge,
    del_vertex,
    mod_edge,
)
from repro.temporal.reconstruct import edge_order
from repro.temporal.series import build_series
from tests.conftest import random_temporal_graph
from tests.replay_oracle import (
    assert_same_series,
    replay_build_series,
    replay_load_series,
)

OPS = ("addE", "addE", "addE", "delE", "modE", "addV", "delV")
WEIGHTS = (1.0, 1.0, 2.0, 0.5, 7.0)

STORE_SHAPES = (
    {},  # the default redundancy ratio
    {"redundancy_ratio": 0.95},  # as many groups as the log allows
    {"max_groups": 1},  # one group: a pure log
)


@st.composite
def op_lists(draw, weights=WEIGHTS):
    """``(num_vertices, [(op, u, v, t, w), ...])`` in time order, with
    zero time steps so records tie on a timestamp."""
    num_vertices = draw(st.integers(min_value=2, max_value=6))
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    ops = []
    t = draw(st.integers(min_value=0, max_value=3))
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        t += draw(st.integers(min_value=0, max_value=2))
        w = draw(st.sampled_from(weights))
        ops.append((draw(st.sampled_from(OPS)), draw(vertex), draw(vertex), t, w))
    return num_vertices, ops


def _through_builder(num_vertices, ops, strict):
    """Feed ``ops`` to a builder; a strict builder's refusals are skipped."""
    builder = TemporalGraphBuilder(strict=strict)
    for op, u, v, t, w in ops:
        try:
            if op == "addV":
                builder.add_vertex(u, t)
            elif op == "delV":
                builder.del_vertex(u, t)
            elif u == v:
                continue
            elif op == "addE":
                builder.add_edge(u, v, t, w)
            elif op == "delE":
                builder.del_edge(u, v, t)
            else:
                builder.mod_edge(u, v, t, w)
        except TemporalGraphError:
            assert strict
    return builder.build(num_vertices=num_vertices) if len(builder) else None


def _raw(num_vertices, ops):
    """The ops as an unvalidated log: double adds, deletes and mods of dead
    edges, deletes of never-added vertices all reach the replay."""
    make = {
        "addV": lambda u, v, t, w: add_vertex(u, t),
        "delV": lambda u, v, t, w: del_vertex(u, t),
        "addE": lambda u, v, t, w: add_edge(u, v, t, w),
        "delE": lambda u, v, t, w: del_edge(u, v, t),
        "modE": lambda u, v, t, w: mod_edge(u, v, t, w),
    }
    log = [
        make[op](u, v, t, w)
        for op, u, v, t, w in ops
        if op in ("addV", "delV") or u != v
    ]
    return TemporalGraph(log, num_vertices=num_vertices) if log else None


@st.composite
def graphs_and_times(draw, weights=WEIGHTS):
    num_vertices, ops = draw(op_lists(weights))
    flavour = draw(st.sampled_from(["strict", "non-strict", "raw"]))
    if flavour == "raw":
        graph = _raw(num_vertices, ops)
    else:
        graph = _through_builder(num_vertices, ops, flavour == "strict")
    if graph is None:
        graph = TemporalGraph([add_edge(0, 1, 1)], num_vertices=num_vertices)
    t0, t1 = graph.time_range
    times = draw(
        st.lists(
            st.integers(min_value=max(0, t0 - 3), max_value=t1 + 3),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    return graph, sorted(times)


def _has_vertex_deletes(graph):
    return any(a.kind == ActivityKind.DEL_VERTEX for a in graph.activities)


@settings(max_examples=150, deadline=None)
@given(graphs_and_times())
def test_build_series_matches_replay(case):
    graph, times = case
    assert_same_series(build_series(graph, times), replay_build_series(graph, times))


@settings(max_examples=60, deadline=None)
@given(graphs_and_times(), st.sampled_from(STORE_SHAPES))
def test_load_series_matches_build_series_and_replay(case, shape):
    graph, times = case
    expected = build_series(graph, times)
    with tempfile.TemporaryDirectory() as tmp:
        TemporalGraphStore.create(Path(tmp) / "s", graph, **shape)
        for mmap in (False, True):
            store = TemporalGraphStore(Path(tmp) / "s", StoreConfig(mmap=mmap))
            loaded = load_series(store, times)
            assert_same_series(loaded, expected)
            # The old loader resurrected deleted vertices and had no
            # answer before the first group; elsewhere it is a reference.
            if not _has_vertex_deletes(graph) and times[0] >= store.groups[0].t1:
                assert_same_series(loaded, replay_load_series(store, times))
            del store, loaded  # unmap before the directory goes


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("weighted", [False, True])
def test_larger_graphs_match_replay(seed, weighted, tmp_path):
    graph = random_temporal_graph(
        seed=seed, num_vertices=40, num_events=900, weighted=weighted
    )
    times = graph.evenly_spaced_times(64, start_fraction=0.1)
    times = sorted(set(times))
    expected = replay_build_series(graph, times)
    assert_same_series(build_series(graph, times), expected)
    assert (expected.out_weight is not None) == weighted
    store = TemporalGraphStore.create(tmp_path / "s", graph, redundancy_ratio=0.8)
    assert store.num_groups > 2
    assert_same_series(load_series(store, times), expected)
    assert_same_series(replay_load_series(store, times), expected)


# ---------------------------------------------------------------------- #
# regressions


def _deleted_vertex_graph():
    return (
        TemporalGraphBuilder()
        .add_vertex(0, 1).add_vertex(1, 1).add_vertex(2, 1)
        .add_edge(0, 1, 2).add_edge(1, 2, 2)
        .del_vertex(1, 3)
        .add_edge(2, 1, 5)
        .add_edge(0, 2, 6)
        .build()
    )


@pytest.mark.parametrize("shape", STORE_SHAPES)
def test_deleted_vertex_is_not_resurrected_by_edge_activity(shape, tmp_path):
    """``delV 1 @3`` then ``addE 2->1 @5``: vertex 1 stays dead, and the
    edges through it stay out of the later snapshots."""
    graph = _deleted_vertex_graph()
    times = [2, 4, 6]
    store = TemporalGraphStore.create(tmp_path / "s", graph, **shape)
    loaded = load_series(store, times)
    assert int(loaded.vertex_bitmap[1]) == 0b001
    assert loaded.num_edges == 3
    assert_same_series(loaded, build_series(graph, times))
    assert_same_series(loaded, replay_build_series(graph, times))


def test_vertex_deleted_in_an_earlier_group_stays_deleted(tmp_path):
    """The explicit state before a group comes from the earlier groups'
    vertex records, not from the group's own edge activity."""
    builder = TemporalGraphBuilder()
    for v in range(4):
        builder.add_vertex(v, 1)
    builder.add_edge(0, 1, 2).add_edge(1, 2, 2).del_vertex(1, 3)
    for t in range(4, 40):
        builder.add_edge(0, 2, t) if t % 2 == 0 else builder.del_edge(0, 2, t)
    builder.add_edge(3, 1, 40)
    graph = builder.build()
    store = TemporalGraphStore.create(tmp_path / "s", graph, redundancy_ratio=0.9)
    assert store.num_groups > 2 and store.groups[-1].t1 > 3
    times = [2, 20, 40]
    loaded = load_series(store, times)
    assert int(loaded.vertex_bitmap[1]) == 0b001
    assert_same_series(loaded, build_series(graph, times))


def test_times_before_the_first_group_load_as_empty_snapshots(tmp_path):
    graph = TemporalGraphBuilder().add_edge(0, 1, 10).add_edge(1, 2, 12).build()
    store = TemporalGraphStore.create(tmp_path / "s", graph)
    assert store.groups[0].t1 == 9
    before = load_series(store, [3])  # used to escape as StopIteration
    assert before.num_edges == 0 and not before.vertex_bitmap.any()
    assert_same_series(before, build_series(graph, [3]))
    mixed = load_series(store, [3, 9, 10, 50])
    assert_same_series(mixed, build_series(graph, [3, 9, 10, 50]))
    assert mixed.out_bitmap.tolist() == [0b1100, 0b1000]


def test_too_many_snapshots_is_the_same_typed_error(tmp_path):
    graph = random_temporal_graph(seed=5, num_vertices=10, num_events=200)
    store = TemporalGraphStore.create(tmp_path / "s", graph)
    times = list(range(1, 66))
    with pytest.raises(SnapshotError) as from_log:
        build_series(graph, times)
    with pytest.raises(SnapshotError) as from_store:  # was OverflowError
        load_series(store, times)
    assert str(from_store.value) == str(from_log.value)
    full = list(range(1, 65))
    assert_same_series(load_series(store, full), build_series(graph, full))


def test_weight_matrix_only_for_a_live_non_unit_cell():
    """A non-unit weight that no snapshot sees does not cost an (E, S)
    matrix — the rule a loader, which never reads behind a checkpoint,
    can share."""
    log = [add_edge(0, 1, 1, 2.0), mod_edge(0, 1, 2, 1.0), add_edge(1, 2, 2)]
    graph = TemporalGraph(log)
    assert build_series(graph, [3, 4]).out_weight is None
    seen = build_series(graph, [1, 3])
    assert seen.out_weight.tolist() == [[2.0, 1.0], [1.0, 1.0]]


@st.composite
def key_pairs(draw):
    """``(src, dst, bound)``: random, empty, single, all-equal, sorted and
    reverse-sorted keys, some at ``bound - 1``."""
    bound = draw(st.integers(min_value=1, max_value=40))
    key = st.integers(min_value=0, max_value=bound - 1)
    n = draw(st.integers(min_value=0, max_value=60))
    src = np.array(draw(st.lists(key, min_size=n, max_size=n)), dtype=np.int64)
    dst = np.array(draw(st.lists(key, min_size=n, max_size=n)), dtype=np.int64)
    shape = draw(st.sampled_from(["random", "equal", "sorted", "reversed", "top"]))
    if shape == "equal":
        src[:], dst[:] = src[:1].sum(), dst[:1].sum()
    elif shape in ("sorted", "reversed"):
        order = np.lexsort((dst, src))
        if shape == "reversed":
            order = order[::-1]
        src, dst = src[order], dst[order]
    elif shape == "top":
        dst[::2] = bound - 1
    return src, dst, bound


@settings(max_examples=300, deadline=None)
@given(key_pairs())
def test_edge_order_is_the_stable_lexsort(case):
    """The native counting sort is ``np.lexsort((dst, src))``, and with the
    keys swapped the series' in-edge order ``np.lexsort((src, dst))``."""
    src, dst, bound = case
    got = edge_order(src, dst, bound)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.lexsort((dst, src)))
    np.testing.assert_array_equal(edge_order(dst, src, bound), np.lexsort((src, dst)))


def test_a_huge_bound_allocates_nothing_large():
    """Scratch follows the largest key present, not the bound."""
    rng = np.random.default_rng(0)
    src = rng.integers(0, 50, 500)
    dst = rng.integers(0, 50, 500)
    expected = np.lexsort((dst, src))
    edge_order(src, dst, 50)  # the native library is built outside the trace
    tracemalloc.start()
    try:
        got = edge_order(src, dst, (1 << 32) + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, expected)
    assert peak < 1 << 16


@pytest.mark.parametrize(
    "src, dst",
    [([0, 1], [1, 3]), ([0, 3], [1, 0]), ([0, -1], [1, 0]), ([0, 1], [-2, 0])],
)
def test_a_key_at_or_past_the_bound_is_a_typed_error(src, dst):
    """A packed ``src * bound + dst`` key silently mis-ordered a ``dst >=
    bound``; the counting sort refuses any key outside ``[0, bound)``."""
    with pytest.raises(SnapshotError, match=r"outside \[0, 3\)"):
        edge_order(np.array(src), np.array(dst), 3)


# ---------------------------------------------------------------------- #
# the scan reads and checks exactly what per-segment reads did


def _counters_of(action):
    observation = obs.observe(trace=False)
    try:
        action()
    finally:
        obs.disable()
    counters = observation.registry.snapshot()["counters"]
    return {
        name: counters[name]
        for name in (
            "storage.crc_verified", "storage.segments_read", "storage.bytes_read"
        )
    }


@pytest.mark.parametrize("mmap", [False, True])
def test_load_series_storage_counters_equal_per_segment_totals(mmap, tmp_path):
    graph = random_temporal_graph(seed=9, num_vertices=30, num_events=500)
    path = tmp_path / "s"
    TemporalGraphStore.create(path, graph, redundancy_ratio=0.8)
    store = TemporalGraphStore(path, StoreConfig(mmap=mmap))
    assert store.num_groups > 2
    times = graph.evenly_spaced_times(8)
    owners = {store.group_index(t) for t in times}
    assert len(owners) < store.num_groups  # some group is never read

    segments = bytes_read = 0
    for gi in owners:
        edge_file = store.groups[gi].edge_file
        for v in range(edge_file.num_vertices):
            offset, n_cp, n_act = edge_file._index_columns[v].item()
            if offset:
                segments += 1
                bytes_read += (
                    n_cp * fmt.CHECKPOINT_ENTRY_SIZE
                    + n_act * fmt.ACTIVITY_SIZE
                    + fmt.TRAILER_SIZE
                )
    # ... which is also what reading each segment on its own counts.
    one_by_one = _counters_of(
        lambda: [
            store.groups[gi].edge_file.segment(v)
            for gi in owners
            for v in range(store.num_vertices)
        ]
    )
    expected = {
        "storage.crc_verified": segments,
        "storage.segments_read": segments,
        "storage.bytes_read": bytes_read,
    }
    assert one_by_one == expected
    assert _counters_of(lambda: load_series(store, times)) == expected


@pytest.mark.parametrize(
    "where,raw,message",
    [
        (slice(0, 1), b"\x07", "unknown activity kind 7"),
        (slice(1, 5), (77).to_bytes(4, "little"), "names vertex 77"),
        (slice(5, 13), b"\xff" * 8, "signed 64-bit time range"),
    ],
)
def test_scan_rejects_records_the_kernel_could_not_index(
    where, raw, message, tmp_path
):
    """CRCs prove the bytes are the ones written, not that they are in
    range: a crafted record with a wild kind, vertex or time under valid
    CRCs must still be a typed error, not an IndexError in the kernel."""
    from repro.storage import EdgeFile, write_edge_file

    graph = TemporalGraphBuilder().add_edge(0, 1, 1).add_edge(1, 2, 2).build()
    path = tmp_path / "crafted.chronos"
    write_edge_file(path, graph, 0, 2)
    # Vertex 0's segment: no checkpoint, one activity record, the trailer.
    offset = next(
        off for off, _cp, _act in EdgeFile(path)._index_columns.tolist() if off
    )
    data = bytearray(path.read_bytes())
    data[offset + where.start : offset + where.stop] = raw
    record_end = offset + fmt.ACTIVITY_SIZE
    struct.pack_into(
        "<I", data, record_end + fmt.CRC_SIZE, zlib.crc32(data[offset:record_end])
    )
    path.write_bytes(bytes(data))
    with pytest.raises(StorageError, match=message):
        EdgeFile(path).scan()


@pytest.mark.parametrize("field", ["live_vertices_at_start", "vertex_activities"])
def test_manifest_vertex_outside_the_store_is_a_typed_error(field, tmp_path):
    import json

    store = TemporalGraphStore.create(tmp_path / "s", _deleted_vertex_graph())
    manifest_path = store.path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    bad = 99 if field == "live_vertices_at_start" else {
        "time": 1, "kind": int(ActivityKind.ADD_VERTEX), "vertex": 99
    }
    manifest["groups"][0][field].append(bad)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StorageError, match="outside its 3 vertices"):
        load_series(TemporalGraphStore(store.path), [2, 6])
