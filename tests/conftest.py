"""Shared fixtures: small deterministic temporal graphs and series."""

from __future__ import annotations

import numpy as np
import pytest

from repro.temporal import TemporalGraphBuilder
from tests.scatter_oracle import oracle_run


#: The counters the walk computes on every run (the rest are simulation-only).
LOGICAL_COUNTERS = (
    "iterations",
    "edge_array_accesses",
    "acc_updates",
    "vertex_value_reads",
    "dirty_checks",
    "update_entries",
)


def assert_matches_oracle(got, series, program, config, label=""):
    """A run equals the per-edge scatter oracle's run of the same cell
    (:func:`tests.scatter_oracle.oracle_run` under ``config``): values
    byte for byte and all six logical counters."""
    want = oracle_run(series, program, config)
    assert got.values.tobytes() == want.values.tobytes(), (
        f"values differ from the scatter oracle {label}"
    )
    for name in LOGICAL_COUNTERS:
        assert getattr(got.counters, name) == getattr(want.counters, name), (
            f"{name} differs from the scatter oracle {label}"
        )


def random_temporal_graph(
    num_vertices: int = 50,
    num_events: int = 600,
    seed: int = 0,
    symmetric: bool = False,
    with_deletes: bool = True,
    weighted: bool = True,
):
    """A small random temporal graph with adds, deletes, and weight mods."""
    rng = np.random.default_rng(seed)
    builder = TemporalGraphBuilder(strict=False)
    live = []
    for t in range(1, num_events + 1):
        u = int(rng.integers(num_vertices))
        v = int(rng.integers(num_vertices))
        if u == v:
            continue
        if with_deletes and live and rng.random() < 0.15:
            uu, vv = live.pop(int(rng.integers(len(live))))
            builder.del_edge(uu, vv, t)
            if symmetric:
                builder.del_edge(vv, uu, t)
        else:
            w = float(rng.integers(1, 9)) if weighted else 1.0
            builder.add_edge(u, v, t, w)
            if symmetric:
                builder.add_edge(v, u, t, w)
            live.append((u, v))
    return builder.build(num_vertices=num_vertices)


@pytest.fixture
def small_graph():
    return random_temporal_graph(seed=1)


@pytest.fixture
def small_series(small_graph):
    return small_graph.series(small_graph.evenly_spaced_times(5))


@pytest.fixture
def symmetric_graph():
    return random_temporal_graph(seed=2, symmetric=True)


@pytest.fixture
def symmetric_series(symmetric_graph):
    return symmetric_graph.series(symmetric_graph.evenly_spaced_times(5))


@pytest.fixture
def insert_only_graph():
    return random_temporal_graph(seed=3, with_deletes=False, weighted=False)


@pytest.fixture
def tiny_graph():
    """A hand-built graph with known structure for exact assertions."""
    builder = TemporalGraphBuilder()
    builder.add_edge(0, 1, 1, weight=2.0)
    builder.add_edge(1, 2, 2, weight=1.0)
    builder.add_edge(0, 2, 3, weight=5.0)
    builder.mod_edge(0, 1, 4, weight=3.0)
    builder.del_edge(1, 2, 5)
    builder.add_edge(2, 3, 6, weight=1.0)
    return builder.build(num_vertices=4)
