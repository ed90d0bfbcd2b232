"""``LogColumns`` as the only form of a log, against the forms it replaced.

``TemporalGraph``, the builder, the streaming head, ``_load_base`` and the
WAL record codec all hold or move a log as NumPy columns; the per-record
loops they used to be live on in :mod:`tests.log_oracle`. Random streams
(strict, non-strict and raw; add/del/mod, addV/delV, same-timestamp
records on one edge and on different edges, unit, non-unit and zero
weights) must give the same ``LogColumns`` field for field, the same
``activities``, the same answer to every point query, the same builder
refusals, the same ``fingerprint()``, the same WAL file byte for byte and
the same head after a reopen from the WAL and from a compacted base.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import TemporalGraphError
from repro.streaming import StreamingStore
from repro.streaming import wal as walmod
from repro.temporal.columns import (
    LogColumns,
    activities_of,
    log_columns,
    make_records,
    records_of,
)
from repro.temporal import (
    Activity,
    TemporalGraph,
    TemporalGraphBuilder,
    add_edge,
    add_vertex,
    del_edge,
    del_vertex,
    mod_edge,
)
from tests.conftest import random_temporal_graph
from tests.log_oracle import (
    OracleBuilder,
    OracleGraph,
    oracle_fingerprint,
    oracle_head_graph,
    oracle_log_columns,
    oracle_open,
    oracle_pack_record,
    oracle_wal_bytes,
)
from tests.test_reconstruct_parity import op_lists

WEIGHTS = (1.0, 1.0, 0.0, 2.0, 0.5)
MAKE = {
    "addV": lambda u, v, t, w: add_vertex(u, t),
    "delV": lambda u, v, t, w: del_vertex(u, t),
    "addE": lambda u, v, t, w: add_edge(u, v, t, w),
    "delE": lambda u, v, t, w: del_edge(u, v, t),
    "modE": lambda u, v, t, w: mod_edge(u, v, t, w),
}


def _raw_log(ops):
    return [
        MAKE[op](u, v, t, w)
        for op, u, v, t, w in ops
        if op in ("addV", "delV") or u != v
    ]


def _feed(builder, ops):
    """Feed ``ops`` through the builder's methods; its refusals' messages."""
    refusals = []
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
        except TemporalGraphError as exc:
            refusals.append(str(exc))
    return refusals


def _assert_same_array(got, want, name):
    assert got.dtype == want.dtype, name
    assert np.array_equal(got, want), name


def assert_same_columns(graph, oracle):
    columns = graph.columns()
    want = oracle_log_columns(oracle.activities, oracle.num_vertices)
    for name, expected in want.items():
        if name == "events":
            assert columns.events.stop is None
            for column in ("src", "dst", "time", "kind", "weight"):
                _assert_same_array(
                    getattr(columns.events, column),
                    getattr(expected, column),
                    f"events.{column}",
                )
        else:
            _assert_same_array(getattr(columns, name), expected, name)
    # All records, byte for byte the struct codec's.
    assert columns.records.tobytes() == b"".join(
        oracle_pack_record(a) for a in oracle.activities
    )


def assert_same_graph(graph, oracle):
    """Accessors, columns and every point query agree with the oracle."""
    V = oracle.num_vertices
    assert graph.num_vertices == V
    assert graph.num_activities == oracle.num_activities
    assert tuple(graph.activities) == tuple(oracle.activities)
    assert_same_columns(graph, oracle)
    assert graph.num_edge_keys == oracle.num_edge_keys
    assert sorted(graph.edge_keys()) == sorted(oracle.edge_keys())
    assert graph.out_edge_events() == oracle.out_edge_events()
    if not oracle.num_activities:
        return
    t0, t1 = oracle.time_range
    assert graph.time_range == (t0, t1)
    times = range(max(0, t0 - 1), t1 + 2)
    for t in times:
        assert graph.activities_between(t0 - 1, t) == oracle.activities_between(
            t0 - 1, t
        )
        assert graph.activities_between(t, t1) == oracle.activities_between(t, t1)
    for u in range(-1, V + 1):
        for t in times:
            assert graph.vertex_live_at(u, t) == oracle.vertex_live_at(u, t)
        for v in range(V):
            assert graph.edge_events_for(u, v) == oracle.edge_events_for(u, v)
            for t in times:
                assert graph.edge_record_state_at(
                    u, v, t
                ) == oracle.edge_record_state_at(u, v, t)
                assert graph.edge_state_at(u, v, t) == oracle.edge_state_at(u, v, t)
                assert graph.edge_live_at(u, v, t) == oracle.edge_live_at(u, v, t)


# --------------------------------------------------------------------- #
# TemporalGraph and the builder
# --------------------------------------------------------------------- #


@settings(max_examples=120, deadline=None)
@given(op_lists(WEIGHTS), st.booleans())
def test_builder_matches_the_oracle(case, strict):
    num_vertices, ops = case
    builder = TemporalGraphBuilder(strict=strict)
    oracle = OracleBuilder(strict=strict)
    assert _feed(builder, ops) == _feed(oracle, ops)
    assert len(builder) == len(oracle)
    assert builder.last_time == oracle.last_time
    assert_same_graph(
        builder.build(num_vertices=num_vertices),
        oracle.build(num_vertices=num_vertices),
    )


@settings(max_examples=120, deadline=None)
@given(op_lists(WEIGHTS), st.randoms(use_true_random=False))
def test_raw_log_in_any_order_matches_the_oracle(case, rng):
    """Unvalidated records (double adds, mods of dead edges, ...) handed
    to the API-edge constructor out of order."""
    num_vertices, ops = case
    log = _raw_log(ops)
    rng.shuffle(log)
    assert_same_graph(
        TemporalGraph(log, num_vertices=num_vertices),
        OracleGraph(log, num_vertices=num_vertices),
    )
    assert TemporalGraph(log).num_vertices == OracleGraph(log).num_vertices


def test_builder_append_rewrites_like_the_oracle():
    """``append`` of ready-made records (not the methods) in non-strict mode."""
    records = [
        add_edge(0, 1, 1, 2.0),
        add_edge(0, 1, 2, 0.0),  # live: logged as modE
        del_edge(2, 3, 2),  # dead: dropped
        mod_edge(2, 3, 3, 4.0),  # dead: dropped
        del_edge(0, 1, 3),
        add_edge(0, 1, 3, 5.0),  # same timestamp as its delete
        add_vertex(3, 4),
        add_vertex(3, 4),  # non-strict: kept
    ]
    builder, oracle = TemporalGraphBuilder(strict=False), OracleBuilder(strict=False)
    for record in records:
        builder.append(record)
        oracle.append(record)
    assert len(builder) == len(oracle) == 6
    assert_same_graph(builder.build(), oracle.build())


# --------------------------------------------------------------------- #
# the streaming head, the WAL bytes and the fingerprint
# --------------------------------------------------------------------- #


def assert_same_head(store, head, floor):
    assert store.num_activities == len(head)
    assert store.last_time == head.last_time
    assert store._head._edge_live == head._edge_live
    arrived = activities_of(make_records(*store._head._columns))
    assert arrived == tuple(head._activities)
    oracle = oracle_head_graph(head, floor)
    assert_same_columns(store.graph(), oracle)
    assert tuple(store.graph().activities) == tuple(oracle.activities)
    assert store.graph().num_vertices == oracle.num_vertices
    assert store.fingerprint() == oracle_fingerprint(oracle)


def _tied(head):
    """Whether two logged records of one edge share a timestamp."""
    seen = [(a.src, a.dst, a.time) for a in head._activities if a.dst >= 0]
    return len(seen) != len(set(seen))


def _stream_through_store(path, batches, extra):
    head = OracleBuilder(strict=False)
    with StreamingStore(path, fsync="os") as store:
        for batch in batches:
            store.append(batch)
            for activity in batch:
                head.append(activity)
        assert (path / walmod.WAL_NAME).read_bytes() == oracle_wal_bytes(batches)
        if not len(head):  # an all-dropped stream leaves nothing to read
            return
        assert_same_head(store, head, 0)
        fingerprint = store.fingerprint()

    reopened, floor = oracle_open(path)
    with StreamingStore(path, fsync="os") as store:
        assert store.recovery.replayed_records == sum(map(len, batches))
        assert_same_head(store, reopened, floor)
        store.compact()
        seq = store.last_seq

    with StreamingStore(path, fsync="os") as store:
        assert store.recovery.base_records == len(head)
        # A base is loaded as it was written, whatever ties it holds.
        assert store.fingerprint() == fingerprint
        if _tied(head):
            return
        reopened, floor = oracle_open(path)
        assert_same_head(store, reopened, floor)
        later = [
            Activity(a.time + store.last_time, a.kind, a.src, a.dst, a.weight)
            for a in extra
        ]
        if later:
            store.append(later)
            for activity in later:
                reopened.append(activity)
            assert (path / walmod.WAL_NAME).read_bytes() == oracle_wal_bytes(
                [later], first_seq=seq + 1
            )
            assert_same_head(store, reopened, floor)


@st.composite
def streams(draw):
    """A raw, time-ordered stream in append batches, and one more batch."""
    _, ops = draw(op_lists(WEIGHTS))
    log = _raw_log(ops)
    assume(log)
    cuts = sorted(
        draw(st.lists(st.integers(0, len(log)), max_size=3, unique=True))
    )
    batches = [
        log[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(log)]) if lo < hi
    ]
    _, more = draw(op_lists(WEIGHTS))
    return batches, _raw_log(more)


@settings(max_examples=100, deadline=None)
@given(streams())
def test_streaming_head_wal_and_fingerprint_match_the_oracle(case):
    batches, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        _stream_through_store(Path(tmp) / "s", batches, extra)


def test_larger_stream_round_trips_like_the_oracle(tmp_path):
    """Several snapshot groups, deletes and weights, one explicit vertex."""
    graph = random_temporal_graph(seed=11, num_vertices=40, num_events=900)
    log = [add_vertex(39, graph.activities[0].time), *graph.activities]
    batches = [log[i : i + 64] for i in range(0, len(log), 64)]
    extra = [add_edge(1, 2, 1, 0.0), del_edge(1, 2, 2), mod_edge(5, 6, 3, 2.0)]
    store_dir = tmp_path / "s"
    with StreamingStore(store_dir, redundancy_ratio=0.9):
        pass
    _stream_through_store(store_dir, batches, extra)
    with StreamingStore(store_dir) as store:
        assert store.recovery.base_groups > 2


# --------------------------------------------------------------------- #
# the store extends its graph's log instead of rebuilding it
# --------------------------------------------------------------------- #


def _assert_same_log(got, want):
    """Every ``LogColumns`` field, dtype and bytes."""
    for field in dataclasses.fields(LogColumns):
        name = field.name
        if name == "events":
            assert got.events.stop is want.events.stop is None
            for column in ("src", "dst", "time", "kind", "weight"):
                a, b = getattr(got.events, column), getattr(want.events, column)
                assert a.dtype == b.dtype, column
                assert a.tobytes() == b.tobytes(), f"events.{column}"
        else:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name


def _append_and_check(store, head, floor, batch):
    """Append ``batch`` to the store and the oracle head; the store's graph
    must be the full build of every head record, and its fingerprint the
    oracle's (``head=None``: no oracle to ask)."""
    store.append(batch)
    if head is not None:
        for activity in batch:
            head.append(activity)
    if not len(store._head):  # every record so far dropped: nothing to read
        return
    _assert_same_log(store.graph().columns(), log_columns(store._head.records()))
    if head is not None:
        oracle = oracle_head_graph(head, floor)
        assert store.fingerprint() == oracle_fingerprint(oracle)


@st.composite
def tied_appends(draw):
    """A raw stream in up to eight append batches, ending in a delete and
    re-add of one edge at one time, with at least one cut between two
    records of equal time; and after how many batches to compact (0:
    never)."""
    _, ops = draw(op_lists(WEIGHTS))
    log = _raw_log(ops)
    last = log[-1].time if log else 0
    log += [
        add_edge(0, 1, last, 0.5),
        add_vertex(1, last + 1),
        del_edge(0, 1, last + 1),
        add_edge(0, 1, last + 1, 2.0),
    ]
    ties = [i for i in range(1, len(log)) if log[i - 1].time == log[i].time]
    cuts = draw(st.lists(st.integers(1, len(log) - 1), max_size=6))
    cuts = sorted({draw(st.sampled_from(ties)), *cuts})
    batches = [log[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(log)])]
    return batches, draw(st.integers(0, len(batches)))


@settings(max_examples=50, deadline=None)
@given(tied_appends())
def test_store_graph_extends_like_a_full_build(case):
    """After every append, before and after ``compact()`` and across a
    reopen, ``graph()``'s log equals ``log_columns`` of every head record
    field for field, and the fingerprint equals the oracle's."""
    batches, split = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s"
        head = OracleBuilder(strict=False)
        with StreamingStore(path, fsync="os") as store:
            for batch in batches[:split]:
                _append_and_check(store, head, 0, batch)
            compacted = len(store._head) > 0
            if compacted:
                fingerprint = store.fingerprint()
                store.compact()
                _assert_same_log(
                    store.graph().columns(), log_columns(store._head.records())
                )
                assert store.fingerprint() == fingerprint
            for batch in batches[split:]:
                _append_and_check(store, head, 0, batch)
            fingerprint = store.fingerprint()
        with StreamingStore(path, fsync="os") as store:
            _assert_same_log(
                store.graph().columns(), log_columns(store._head.records())
            )
            assert store.fingerprint() == fingerprint
            # A base reopens in its own tie order, which the oracle's
            # replay of the base does not share.
            tied_base = compacted and _tied(head)
            reopened, floor = (None, 0) if tied_base else oracle_open(path)
            shift = store.last_time
            for batch in batches:
                later = [
                    Activity(a.time + shift, a.kind, a.src, a.dst, a.weight)
                    for a in batch
                ]
                _append_and_check(store, reopened, floor, later)


@st.composite
def retouching_batches(draw):
    """A raw log and up to three later batches, in no particular order
    within a batch, that delete, re-add and modify edges the log already
    holds; each batch's first record ties with the last time before it."""
    _, ops = draw(op_lists(WEIGHTS))
    log = _raw_log(ops)
    edges = sorted({(a.src, a.dst) for a in log if a.dst >= 0})
    assume(edges)
    batches, last = [log], log[-1].time
    for _ in range(draw(st.integers(1, 3))):
        batch = []
        for step in [0, *draw(st.lists(st.integers(0, 1), max_size=5))]:
            last += step
            u, v = draw(st.sampled_from(edges))
            op = draw(st.sampled_from(["delE", "addE", "modE"]))
            batch.append(MAKE[op](u, v, last, draw(st.sampled_from(WEIGHTS))))
        batches.append(draw(st.permutations(batch)))
    return batches


@settings(max_examples=100, deadline=None)
@given(retouching_batches())
def test_extending_a_log_retouches_old_chains_like_a_full_build(batches):
    """``log_columns(batch, after=...)`` recomputes the chain facts of the
    edges a batch touches and keeps the rest: every field equals a full
    build of all records so far and the oracle's columns."""
    columns, logged = None, []
    for batch in batches:
        columns = log_columns(records_of(batch), after=columns)
        logged += batch
        _assert_same_log(columns, log_columns(records_of(logged)))
        assert_same_columns(TemporalGraph.from_columns(columns), OracleGraph(logged))


# --------------------------------------------------------------------- #
# the loops are gone, not moved
# --------------------------------------------------------------------- #


def test_no_activity_objects_between_the_api_edges(tmp_path, monkeypatch):
    """``Activity`` objects are made by callers and for callers only:
    building, reopening, reading and compacting construct none (but for
    the storage layer's decode of the manifest's explicit vertex
    records, one each)."""
    graph = random_temporal_graph(seed=5, num_vertices=30, num_events=500)
    explicit = [add_vertex(29, 1), del_vertex(29, graph.time_range[1])]
    log = [explicit[0], *graph.activities, explicit[1]]
    builder = TemporalGraphBuilder(strict=False)
    for activity in log:
        builder.append(activity)
    with StreamingStore(tmp_path / "s") as store:
        for i in range(0, len(log), 100):
            store.append(log[i : i + 100])

    made = []
    original = Activity.__post_init__

    def counting(self):
        made.append(self)
        original(self)

    monkeypatch.setattr(Activity, "__post_init__", counting)

    built = builder.build()
    built.series(built.evenly_spaced_times(4))
    assert made == []
    times = built.evenly_spaced_times(4)
    with StreamingStore(tmp_path / "s") as store:  # reopen from the WAL
        assert store.recovery.replayed_records == len(log)
        store.graph()
        store.series(times)
        fingerprint = store.fingerprint()
        store.compact()
        assert made == []
    with StreamingStore(tmp_path / "s") as store:  # reopen from the base
        assert store.recovery.base_records == len(log)
        assert made == explicit
        assert store.fingerprint() == fingerprint
        store.series(times)
        store.compact()
    assert made == explicit


@pytest.mark.parametrize("strict", [True, False])
def test_build_sorts_same_timestamp_records_canonically(strict):
    """Arrival order within a timestamp is the caller's; the log's is
    ``(time, kind, src, dst)``."""
    builder = TemporalGraphBuilder(strict=strict)
    builder.add_edge(3, 4, 5).add_edge(1, 2, 5).add_vertex(7, 5)
    assert list(builder.build().activities) == [
        add_vertex(7, 5), add_edge(1, 2, 5), add_edge(3, 4, 5)
    ]
