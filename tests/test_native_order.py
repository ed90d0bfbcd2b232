"""A fresh query after an append sorts nothing and counts no unread degrees.

Every edge order is the native counting sort (``native.pair_order``,
checked against ``np.lexsort`` in ``tests/test_reconstruct_parity.py``),
so extending a store's log by a batch in canonical order and building the
series over it call no comparison sort at all. Out-degrees are memoised
properties built by ``native.out_degrees`` on first read: they must equal
the per-snapshot loop of ``tests/degree_oracle.py``, and a push SSSP run,
which reads none, must leave every one unbuilt.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import PageRank, SingleSourceShortestPath
from repro.datasets import wiki_like
from repro.engine import EngineConfig, run
from repro.streaming import StreamingStore
from repro.temporal import add_edge, del_edge, mod_edge
from tests.degree_oracle import oracle_out_degrees


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"np.{name} called on a fresh query")

    return refused


def test_a_fresh_query_after_an_append_sorts_nothing(tmp_path, monkeypatch):
    graph = wiki_like(60, 900, seed=2)
    log = list(graph.activities)
    last = log[-1].time
    # A canonical batch that re-touches old edges, as append() logs it.
    (u, v), (x, y) = sorted({(a.src, a.dst) for a in log[:50]})[:2]
    batch = sorted([
        del_edge(u, v, last + 1),
        add_edge(u, v, last + 2, 3.0),
        mod_edge(x, y, last + 2, 0.5),
        add_edge(x, 59, last + 3),
    ])
    times = [log[len(log) // 2].time, last, last + 3]
    with StreamingStore(tmp_path / "s") as store:
        store.append(log)
        store.graph().series(times[:2])
        store.append(batch)
        for name in ("argsort", "lexsort", "sort"):
            monkeypatch.setattr(np, name, _refuse(name))
        extended = store.graph()
        assert extended.lineage is not None  # extended, not rebuilt
        series = extended.series(times)
        result = run(series, SingleSourceShortestPath(u), EngineConfig(batch_size=2))
        monkeypatch.undo()
        fresh = store.graph().series(times)
    assert series.out_weight is not None
    for name in ("out_src", "out_dst", "out_bitmap", "out_weight", "in_src", "in_bitmap"):
        assert getattr(series, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert result.values.shape == (60, 3)


def _degree_views(series):
    return [series, *series.groups(3), series.group(1, 2)]


def test_out_degrees_are_built_on_first_read_and_equal_the_oracle():
    graph = wiki_like(80, 1500, seed=4)
    times = graph.evenly_spaced_times(7)
    series = graph.series(times)
    run(series, SingleSourceShortestPath(0), EngineConfig(mode="push", batch_size=3))
    for view in _degree_views(series):
        assert "out_degrees" not in vars(view)  # push SSSP reads none
    for view in _degree_views(series):
        S = view.num_snapshots
        want = oracle_out_degrees(view.out_src, view.out_bitmap, 80, S)
        assert view.out_degrees.dtype == np.int64
        assert view.out_degrees.tobytes() == want.tobytes()
    # A group's degrees are the series' columns [start, stop).
    for group in series.groups(3):
        np.testing.assert_array_equal(
            group.out_degrees, series.out_degrees[:, group.start : group.stop]
        )


@pytest.mark.parametrize("mode", ["push", "pull"])
def test_pagerank_reads_each_groups_degrees_once(mode):
    graph = wiki_like(50, 800, seed=6)
    series = graph.series(graph.evenly_spaced_times(4))
    run(series, PageRank(iterations=3), EngineConfig(mode=mode, batch_size=2))
    assert "out_degrees" not in vars(series)
    for group in series.groups(2):
        assert "out_degrees" in vars(group)
