"""Property-based parity: incremental computation vs from-scratch execution.

Seeded runs (``incremental_labs`` and ``run(..., reuse="incremental")``)
and their vectorized helpers must be *exactly* as correct as running
every snapshot from scratch — bitwise for MONOTONE programs, within the
convergence tolerance for warm-started REGATHER.  These tests draw random
temporal graphs with interleaved inserts and deletes and assert that
parity. ``incremental_labs`` must also equal the driver it replaced
(``tests/incremental_oracle.py``) in values and in every counter.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    PageRank,
    SingleSourceShortestPath,
    WeaklyConnectedComponents,
)
from repro.engine import EngineConfig, Simulation, incremental_labs, run
from repro.engine.incremental import (
    _tense_sources,
    is_insert_only,
    is_insert_only_range,
)
from repro.memsim import HierarchyConfig
from repro.obs import runtime as obs
from tests.conftest import random_temporal_graph
from tests.incremental_oracle import oracle_incremental_labs


def _series(seed, with_deletes=True, symmetric=False, snapshots=7, weighted=True):
    graph = random_temporal_graph(
        num_vertices=30,
        num_events=250,
        seed=seed,
        symmetric=symmetric,
        with_deletes=with_deletes,
        weighted=weighted,
    )
    return graph.series(graph.evenly_spaced_times(snapshots))


class TestMonotoneParity:
    """MONOTONE incremental results are bitwise-identical to scratch."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        batch=st.integers(1, 6),
        activation=st.sampled_from(["all", "tense"]),
        with_deletes=st.booleans(),
    )
    def test_sssp(self, seed, batch, activation, with_deletes):
        # A weighted graph without deletes can still fail the insert-only
        # check (a re-add can raise a weight), so the "no intersection
        # fallback" claim is only made for unweighted growth-only series.
        series = _series(seed, with_deletes=with_deletes, weighted=with_deletes)
        prog = SingleSourceShortestPath(0)
        scratch = run(series, prog, EngineConfig())
        observation = obs.observe(trace=False)
        try:
            inc = incremental_labs(
                series, prog, batch=batch, activation=activation
            )
        finally:
            obs.disable()
        np.testing.assert_array_equal(inc.values, scratch.values)
        if not with_deletes:
            counters = observation.registry.snapshot()["counters"]
            assert counters["reuse.intersection_bases"] == 0

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        batch=st.integers(1, 6),
        activation=st.sampled_from(["all", "tense"]),
    )
    def test_wcc(self, seed, batch, activation):
        series = _series(seed, symmetric=True)
        prog = WeaklyConnectedComponents()
        scratch = run(series, prog, EngineConfig())
        inc = incremental_labs(series, prog, batch=batch, activation=activation)
        np.testing.assert_array_equal(inc.values, scratch.values)


class TestRegatherParity:
    """Warm-started REGATHER matches scratch within the tolerance.

    The programs here use a tight tolerance and an iteration cap high
    enough that every run *actually converges by tolerance* — warm
    starting is only tolerance-equal under real convergence, never when
    the iteration cap cuts runs short.
    """

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000), batch=st.integers(1, 5))
    def test_pagerank(self, seed, batch):
        series = _series(seed)
        scratch = run(
            series, PageRank(iterations=500, tol=1e-12), EngineConfig()
        )
        warm = run(
            series,
            PageRank(iterations=500, tol=1e-12),
            EngineConfig(batch_size=batch, reuse="incremental"),
        )
        assert np.allclose(
            scratch.values, warm.values, atol=1e-8, equal_nan=True
        )


class TestVectorizedHelpers:
    """The batched helpers agree with their one-snapshot formulations."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        with_deletes=st.booleans(),
        data=st.data(),
    )
    def test_is_insert_only_range_matches_loop(self, seed, with_deletes, data):
        series = _series(seed, with_deletes=with_deletes)
        S = series.num_snapshots
        s_from = data.draw(st.integers(0, S - 2))
        start = data.draw(st.integers(s_from + 1, S - 1))
        stop = data.draw(st.integers(start + 1, S))
        expected = all(
            self._is_insert_only_reference(series, s_from, s)
            for s in range(start, stop)
        )
        assert is_insert_only_range(series, s_from, start, stop) == expected
        # The scalar entry point is the range applied to one snapshot.
        assert is_insert_only(series, s_from, start) == is_insert_only_range(
            series, s_from, start, start + 1
        )

    @staticmethod
    def _is_insert_only_reference(series, s_from, s_to):
        """Edge-by-edge restatement of the insert-only condition."""
        for e in range(series.out_src.shape[0]):
            bits = int(series.out_bitmap[e])
            live_from = bool((bits >> s_from) & 1)
            live_to = bool((bits >> s_to) & 1)
            if live_from and not live_to:
                return False
            if (
                live_from
                and live_to
                and series.out_weight is not None
                and series.out_weight[e, s_to] > series.out_weight[e, s_from]
            ):
                return False
        return True

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_tense_sources_matches_loop(self, seed, data):
        series = _series(seed, with_deletes=True)
        S = series.num_snapshots
        seed_snap = data.draw(st.integers(0, S - 2))
        start = seed_snap + 1
        stop = data.draw(st.integers(start + 1, S))
        seed_mask = (
            (series.out_bitmap >> np.uint64(seed_snap)) & np.uint64(1)
        ).astype(bool)
        seed_w = (
            series.out_weight[:, seed_snap]
            if series.out_weight is not None
            else None
        )
        got = _tense_sources(series, start, stop, seed_mask, seed_w)
        expected = np.zeros_like(got)
        for col, s in enumerate(range(start, stop)):
            for e in range(series.out_src.shape[0]):
                live = bool((int(series.out_bitmap[e]) >> s) & 1)
                if not live:
                    continue
                tense = not seed_mask[e]
                if not tense and seed_w is not None:
                    tense = series.out_weight[e, s] < seed_w[e]
                if tense:
                    expected[series.out_src[e], col] = True
        np.testing.assert_array_equal(got, expected)


class TestOracleParity:
    """``incremental_labs`` on ``run``'s loop equals the driver it replaced:
    values and every ``EngineCounters`` field, simulated cycles and
    per-core cycles included."""

    @staticmethod
    def _check(series, app, config, batch, activation, sim=None):
        prog = (
            WeaklyConnectedComponents()
            if app == "wcc"
            else SingleSourceShortestPath(0)
        )
        got = incremental_labs(
            series, prog, config(), batch=batch, activation=activation, sim=sim
        )
        want = oracle_incremental_labs(
            series, prog, config(), batch=batch, activation=activation, sim=sim
        )
        assert got.values.tobytes() == want.values.tobytes()
        assert dataclasses.asdict(got.counters) == dataclasses.asdict(
            want.counters
        )
        assert got.seeded_groups == len(want.group_iterations) - 1

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        app=st.sampled_from(["sssp", "wcc"]),
        mode=st.sampled_from(["push", "pull", "stream"]),
        batch=st.integers(1, 8),
        activation=st.sampled_from(["all", "tense"]),
        with_deletes=st.booleans(),
    )
    def test_untraced(self, seed, app, mode, batch, activation, with_deletes):
        series = _series(
            seed, with_deletes=with_deletes, symmetric=app == "wcc"
        )
        self._check(
            series, app, lambda: EngineConfig(mode=mode), batch, activation
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        app=st.sampled_from(["sssp", "wcc"]),
        mode=st.sampled_from(["push", "pull", "stream"]),
        batch=st.integers(1, 8),
        activation=st.sampled_from(["all", "tense"]),
        cores=st.sampled_from([1, 2]),
    )
    def test_traced(self, seed, app, mode, batch, activation, cores):
        graph = random_temporal_graph(
            num_vertices=20,
            num_events=150,
            seed=seed,
            symmetric=app == "wcc",
            with_deletes=True,
        )
        series = graph.series(graph.evenly_spaced_times(6))

        sim = Simulation(
            hierarchy=HierarchyConfig.experiment_scale(), num_cores=cores
        )
        self._check(
            series, app, lambda: EngineConfig(mode=mode), batch, activation, sim
        )


class TestIncrementalReport:
    """``incremental_labs`` and warm starts report like any run."""

    def test_report_shape(self):
        series = _series(3, with_deletes=False)
        observation = obs.observe(trace=False)
        try:
            inc = incremental_labs(series, SingleSourceShortestPath(0), batch=3)
            rep = inc.report()
        finally:
            obs.disable()
        assert observation.registry is not None
        assert rep["program"] == "sssp"
        assert rep["config"]["reuse"] is None
        assert rep["seeded_groups"] == inc.seeded_groups == 2  # [1,4), [4,7)
        assert rep["cache"]["seeded_groups"] == inc.seeded_groups
        assert rep["counters"]["iterations"] == inc.counters.iterations

    def test_warm_start_report_driver(self):
        series = _series(4)
        warm = run(
            series,
            PageRank(iterations=200, tol=1e-8),
            EngineConfig(batch_size=3, reuse="incremental"),
        )
        rep = warm.report()
        assert rep["config"]["reuse"] == "incremental"
        assert rep["seeded_groups"] == warm.seeded_groups == 2
