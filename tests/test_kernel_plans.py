"""Property tests: the plan-driven scatter is bit-identical to a per-edge fold.

The vectorised scatter (:mod:`repro.engine.kernels`) promises *bitwise*
identical values and *identical* logical counters versus the per-edge
simulated engine (:mod:`repro.engine.traced`, ``trace=True``) — an
independent implementation of the same fold order — for every mode,
layout, gather kind, and semantics; the fold itself is checked against a
sequential ``ufunc.at``. These tests state that promise as properties
over random temporal graphs and random COO streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_program
from repro.algorithms.program import GatherKind, Semantics, VertexProgram
from repro.engine import kernels
from repro.engine.config import EngineConfig, Mode
from repro.engine.kernels import GatherPlan
from repro.engine.runner import run
from repro.layout.vertex_array import LayoutKind
from repro.temporal.builder import TemporalGraphBuilder
from tests.conftest import assert_matches_traced, random_temporal_graph

MODES = [Mode.PUSH, Mode.PULL, Mode.STREAM]
LAYOUTS = [LayoutKind.TIME_LOCALITY, LayoutKind.STRUCTURE_LOCALITY]


class ReachabilityOr(VertexProgram):
    """A logical-OR flood program (exercises the reduceat bool dispatch)."""

    name = "reach-or"
    semantics = Semantics.REGATHER
    gather = GatherKind.OR
    max_iterations = 3

    def initial_values(self, group):
        seeds = (np.arange(group.num_vertices) % 3 == 0).astype(np.float64)
        return self.masked_initial_array(group, seeds[:, None])

    def masked_initial_array(self, group, vals):
        out = np.full(
            (group.num_vertices, group.num_snapshots), np.nan, dtype=np.float64
        )
        return np.where(group.vertex_exists, vals, out)

    def scatter(self, values, weights, src_degrees):
        return values

    def apply(self, old, acc, group):
        return np.maximum(old, acc.astype(np.float64))


def _program(app: str) -> VertexProgram:
    if app == "reach-or":
        return ReachabilityOr()
    if app in ("pagerank", "spmv"):
        return make_program(app, iterations=3)
    return make_program(app)


def _assert_kernels_agree(series, app, mode, layout, batch):
    cfg = EngineConfig(mode=mode, layout=layout, batch_size=batch)
    assert_matches_traced(
        run(series, _program(app), cfg),
        run(series, _program(app), cfg.with_(trace=True)),
        f"for {app}/{mode}/{layout}/batch {batch}",
    )


@given(
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(MODES),
    layout=st.sampled_from(LAYOUTS),
    batch=st.sampled_from([1, 3, 8]),
    # additive REGATHER (weighted and unweighted), min MONOTONE (weighted
    # and unweighted), min REGATHER, logical OR
    app=st.sampled_from(["pagerank", "sssp", "wcc", "spmv", "mis", "reach-or"]),
)
@settings(max_examples=25, deadline=None)
def test_plan_matches_ufunc_at_on_random_graphs(seed, mode, layout, batch, app):
    graph = random_temporal_graph(num_vertices=16, num_events=80, seed=seed)
    series = graph.series(graph.evenly_spaced_times(6))
    _assert_kernels_agree(series, app, mode, layout, batch)


@given(
    seed=st.integers(0, 10_000),
    num_edges=st.integers(0, 60),
    num_vertices=st.integers(1, 12),
    num_snapshots=st.integers(1, 7),
    kind=st.sampled_from(list(GatherKind)),
    layout=st.sampled_from(LAYOUTS),
)
@settings(max_examples=60, deadline=None)
def test_fold_matches_ufunc_at_on_random_streams(
    seed, num_edges, num_vertices, num_snapshots, kind, layout
):
    """The fold itself, for every gather ufunc, vs a sequential ufunc.at."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    bitmap = rng.integers(
        0, 1 << num_snapshots, size=num_edges, dtype=np.uint64
    )
    plan = GatherPlan(
        src, dst, bitmap, num_vertices, num_snapshots, layout=layout
    )
    if kind in (GatherKind.OR, GatherKind.AND):
        msg = rng.integers(0, 2, size=plan.length).astype(np.float64)
    else:
        msg = rng.normal(size=plan.length)
    shape = (
        (num_vertices, num_snapshots)
        if layout is LayoutKind.TIME_LOCALITY
        else (num_snapshots, num_vertices)
    )
    acc_plan = np.full(shape, kind.identity, dtype=np.float64)
    acc_at = acc_plan.copy()
    n = plan.fold(acc_plan.reshape(-1), kind.ufunc, msg, None)
    kind.ufunc.at(acc_at.reshape(-1), plan.flat.astype(np.intp), msg)
    assert n == plan.length
    assert acc_plan.tobytes() == acc_at.tobytes()


@pytest.mark.parametrize("factor", [0, 10**9])
def test_monotone_selection_branches_agree(monkeypatch, factor):
    """Both frontier-selection strategies (full mask vs per-source CSR)
    produce identical results; the factor only moves the crossover."""
    graph = random_temporal_graph(num_vertices=25, num_events=200, seed=5)
    series = graph.series(graph.evenly_spaced_times(8))
    baseline = run(
        series, _program("sssp"), EngineConfig(mode=Mode.PUSH, trace=True)
    )
    monkeypatch.setattr(kernels, "_CSR_SELECT_FACTOR", factor)
    got = run(series, _program("sssp"), EngineConfig(mode=Mode.PUSH))
    assert_matches_traced(got, baseline)


def test_push_counts_dirty_checks_when_frontier_has_no_out_edges():
    """Push scans its own O(|V|) dirty bits every iteration — also the last
    one of a monotone run, whose frontier is all sinks and scatters nothing."""
    builder = TemporalGraphBuilder()
    for leaf in (1, 2):
        builder.add_edge(0, leaf, leaf)  # a star: both leaves are sinks
    series = builder.build().series([2, 3])
    program = make_program("sssp", source=0)
    got = run(series, program, EngineConfig(mode=Mode.PUSH))
    traced = run(series, program, EngineConfig(mode=Mode.PUSH, trace=True))
    assert_matches_traced(got, traced)
    V, S = series.num_vertices, series.num_snapshots
    assert got.counters.dirty_checks == got.counters.iterations * V * S
