"""Series lineage: group views carried across a streaming log extension.

After an append, ``StreamingStore.graph()`` extends its last graph and
the new graph remembers (weakly) the most recent series built before it
and the earliest appended time. ``build_series`` adopts that series'
memoised group views that end strictly before the appended time, when
the vertex count and weight-matrix presence agree. The properties here:

- every view a series serves — adopted or built — equals a freshly built
  ``GroupView`` of the same series array for array and in
  ``group_fingerprint``, and adoption happens exactly under the rule;
- ``run(..., reuse="incremental")`` over the series equals a scratch run
  bitwise, and equals, in values, every ``EngineCounters`` field and
  ``cached_groups``, the same run over a series built without lineage;
- a lineage keeps no series alive that its caller dropped.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_program
from repro.cache.fingerprint import group_fingerprint
from repro.cache.result_cache import reset_process_caches
from repro.engine import EngineConfig, run
from repro.storage.store import TemporalGraphStore
from repro.streaming import StreamingStore
from repro.temporal import (
    TemporalGraph,
    add_edge,
    add_vertex,
    del_edge,
    del_vertex,
    mod_edge,
)
from repro.temporal.series import GroupView

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

OPS = ("addV", "delV", "addE", "addE", "addE", "delE", "modE")
MAKE = {
    "addV": lambda u, v, t, w: add_vertex(u, t),
    "delV": lambda u, v, t, w: del_vertex(u, t),
    "addE": lambda u, v, t, w: add_edge(u, v, t, w),
    "delE": lambda u, v, t, w: del_edge(u, v, t),
    "modE": lambda u, v, t, w: mod_edge(u, v, t, w),
}
PROGRAMS = (("sssp", {"source": 0}), ("pagerank", {}))
VIEW_ARRAYS = (
    "out_src", "out_dst", "out_bitmap", "out_weight", "out_index",
    "in_src", "in_dst", "in_bitmap", "in_weight", "in_index",
    "out_degrees", "vertex_exists",
)


@st.composite
def lineage_cases(draw):
    """A raw time-ordered stream in append batches, and how to query it.

    Weights stay 1.0 up to a drawn record and may differ after it; ties
    straddle at least one cut; a delete and re-add of one edge shares a
    timestamp. Also drawn: a vertex-id floor carried in from a base store
    (0: no base), the batch after which to ``compact()`` and reopen (0:
    never), the snapshot-time grid and, per query, how far past the log's
    last time it reaches and whether one grid time is left out. The grid
    holds every cut's time.
    """
    num_vertices = draw(st.integers(2, 6))
    vertex = st.integers(0, num_vertices - 1)
    count = draw(st.integers(4, 36))
    unit_until = draw(st.integers(0, count))
    t = draw(st.integers(1, 3))
    log = [add_edge(0, 1, t)]  # so the first batch leaves a record
    for i in range(count):
        t += draw(st.integers(0, 2))
        op, u, v = draw(st.sampled_from(OPS)), draw(vertex), draw(vertex)
        w = 1.0 if i < unit_until else draw(st.sampled_from((1.0, 0.5, 3.0)))
        if op in ("addV", "delV") or u != v:
            log.append(MAKE[op](u, v, t, w))
    log += [add_edge(0, 1, t + 1), del_edge(0, 1, t + 2), add_edge(0, 1, t + 2)]
    ties = [i for i in range(1, len(log)) if log[i - 1].time == log[i].time]
    cuts = set(draw(st.lists(st.integers(1, len(log) - 1), max_size=5)))
    cuts.add(draw(st.sampled_from(ties)))
    bounds = [0, *sorted(cuts), len(log)]
    batches = [log[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    last = log[-1].time
    grid = draw(
        st.lists(st.integers(0, last + 1), min_size=1, max_size=40, unique=True)
    )
    # A snapshot at every cut's time: groups end exactly at an appended time.
    grid = set(grid) | {log[cut].time for cut in cuts}
    queries = [
        (draw(st.integers(0, 1)), draw(st.booleans())) for _ in batches
    ]
    return {
        "num_vertices": num_vertices,
        "batches": batches,
        "floor": draw(st.sampled_from((0, 0, num_vertices + 2))),
        "reopen_after": draw(st.integers(0, len(batches) - 1)),
        "grid": sorted(grid),
        "queries": queries,
        "batch_size": draw(st.integers(1, 4)),
        "program": draw(st.sampled_from(PROGRAMS)),
    }


def _open(path, case, first_batch):
    """The store, seeded with ``first_batch``; with a floor, through a
    base store created with that vertex count."""
    if case["floor"]:
        graph = TemporalGraph(first_batch, num_vertices=case["floor"])
        TemporalGraphStore.create(path, graph)
        return StreamingStore(path, fsync="os")
    store = StreamingStore(path, fsync="os")
    store.append(first_batch)
    return store


def _times(case, store, query):
    reach, drop = query
    times = [t for t in case["grid"] if t <= store.last_time + reach][:64]
    if drop and len(times) > 1:
        del times[len(times) // 2]
    return times or [store.last_time]


def _assert_same_view(got, want):
    for name in VIEW_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.num_vertices, got.start, got.stop, got.times) == (
        want.num_vertices, want.start, want.stop, want.times
    )
    assert group_fingerprint(got) == group_fingerprint(want)


def _expected_adoptions(donor, series, t_new):
    """The donor views the adoption rule admits into ``series``."""
    if donor is None or donor.num_vertices != series.num_vertices:
        return {}
    if (donor.out_weight is None) != (series.out_weight is None):
        return {}
    return {
        key: view
        for key, view in donor._group_cache.items()
        if key[1] <= series.num_snapshots
        and series.times[key[1] - 1] < t_new
        and series.times[key[0] : key[1]] == donor.times[key[0] : key[1]]
    }


def _query(store, case, query, caches, donor):
    """One fresh query; returns the series so it can be the next donor."""
    times = _times(case, store, query)
    graph = store.graph()
    lineage = graph.lineage
    series = graph.series(times)
    if lineage is None:
        assert not series._group_cache
    else:
        if lineage.series() is not None:
            assert lineage.series() is donor
        expected = _expected_adoptions(
            lineage.series(), series, lineage.t_new
        )
        assert set(series._group_cache) == set(expected)
        for key, view in expected.items():
            assert series._group_cache[key] is view
    series.groups(case["batch_size"])
    for view in series._group_cache.values():
        _assert_same_view(view, GroupView(series, view.start, view.stop))

    # The same run over a series of the same log built without lineage.
    twin = TemporalGraph.from_columns(graph.columns(), graph.num_vertices)
    twin_series = twin.series(times)
    name, kwargs = case["program"]
    program = make_program(name, **kwargs)
    scratch = run(series, program, EngineConfig(batch_size=case["batch_size"]))
    results = [
        run(s, program, EngineConfig(
            batch_size=case["batch_size"], reuse="incremental", cache_dir=d,
        ))
        for s, d in ((series, caches[0]), (twin_series, caches[1]))
    ]
    for result in results:
        assert result.values.tobytes() == scratch.values.tobytes()
    lineage_run, twin_run = results
    assert lineage_run.cached_groups == twin_run.cached_groups
    assert dataclasses.asdict(lineage_run.counters) == dataclasses.asdict(
        twin_run.counters
    )
    return series


@settings(max_examples=40, deadline=None)
@given(lineage_cases())
def test_served_views_equal_fresh_ones_and_runs_are_unchanged(case):
    reset_process_caches()
    batches = case["batches"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s"
        caches = (str(Path(tmp) / "lineage"), str(Path(tmp) / "twin"))
        store = _open(path, case, batches[0])
        try:
            series = _query(store, case, case["queries"][0], caches, None)
            for k, batch in enumerate(batches[1:], start=1):
                store.append(batch)
                if k == case["reopen_after"]:
                    store.compact()
                    store.close()
                    store = StreamingStore(path, fsync="os")
                series = _query(store, case, case["queries"][k], caches, series)
        finally:
            store.close()


def test_lineage_keeps_no_dropped_series_alive(tmp_path):
    """Three extend-and-series cycles later the first series is gone,
    though its prefix view lives on, adopted, in the latest series."""
    times = [2, 4, 6, 8]
    with StreamingStore(tmp_path / "s") as store:
        store.append([add_edge(i % 5, (i + 1) % 5, i + 1) for i in range(8)])
        first = store.series(times)
        view = first.group(0, 2)
        first_ref = weakref.ref(first)
        series = first
        del first
        for cycle in range(3):
            base = 9 + 4 * cycle
            store.append(
                [add_edge(i % 5, (i + 2) % 5, base + i) for i in range(4)]
            )
            times = times + [base + 2, base + 3]
            series = store.series(times)
            series.groups(2)
        gc.collect()
        assert first_ref() is None
        assert series.group(0, 2) is view


def test_a_group_ending_at_the_appended_time_is_rebuilt(tmp_path):
    """``append()`` accepts records at the head's last time, so a view
    whose last snapshot is that time is not adopted; the ones before are."""
    with StreamingStore(tmp_path / "s") as store:
        store.append([add_edge(0, 1, 1), add_edge(1, 2, 2), add_edge(2, 3, 3)])
        first = store.series([1, 2, 3])
        views = [first.group(s, s + 1) for s in range(3)]
        store.append([add_edge(3, 0, 3)])
        series = store.series([1, 2, 3])
        assert series.group(0, 1) is views[0]
        assert series.group(1, 2) is views[1]
        rebuilt = series.group(2, 3)
        assert rebuilt is not views[2]
        assert rebuilt.num_edges == views[2].num_edges + 1


def test_a_graph_pickles_without_its_series(tmp_path):
    """The weak references stay behind: a copy starts with no lineage."""
    with StreamingStore(tmp_path / "s") as store:
        store.append([add_edge(0, 1, 1), add_edge(1, 2, 2)])
        series = store.series([1, 2])
        store.append([add_edge(2, 0, 3)])
        graph = store.graph()
        graph.series([1, 2, 3])
        assert graph.lineage.series() is series
        copy = pickle.loads(pickle.dumps(graph))
        assert copy.lineage is None and copy.latest_series is None
        assert copy.columns().records.tobytes() == (
            graph.columns().records.tobytes()
        )


def test_a_point_snapshot_between_queries_keeps_the_lineage(tmp_path):
    """``snapshot_at`` reads one state off the log; it is no series the
    next extension should adopt from."""
    with StreamingStore(tmp_path / "s") as store:
        store.append([add_edge(i % 5, (i + 1) % 5, i + 1) for i in range(8)])
        first = store.series([2, 4, 6, 8])
        first.groups(2)
        store.graph().snapshot_at(3)
        store.append([add_edge(1, 3, 9)])
        series = store.series([2, 4, 6, 8, 9])
        assert series.group(0, 2) is first.group(0, 2)
        assert series.group(2, 4) is first.group(2, 4)
