"""Cross-mode and cross-configuration engine invariants."""

import numpy as np
import pytest

from repro.algorithms import PageRank, SingleSourceShortestPath, SpMV
from repro.engine import EngineConfig, Mode, run, simulate
from repro.temporal import TemporalGraphBuilder


class TestSnapshotFreezing:
    def test_converged_snapshot_stops_costing(self):
        """A snapshot that converges early freezes while others continue:
        with tolerance-based convergence, total iterations stay bounded by
        the slowest snapshot, and the frozen column's values are final."""
        b = TemporalGraphBuilder()
        # Snapshot 0: a single edge; snapshot 1: a chain (more iterations).
        b.add_edge(0, 1, 1)
        for i in range(1, 8):
            b.add_edge(i, i + 1, 2)
        series = b.build().series([1, 3])
        prog = PageRank(iterations=100, tol=1e-12)
        res = run(series, prog, EngineConfig())
        # Bitwise identical to running each snapshot alone.
        alone0 = run(b.build().series([1]), PageRank(iterations=100, tol=1e-12), EngineConfig())
        np.testing.assert_array_equal(res.values[:, 0], alone0.values[:, 0])

    def test_empty_snapshot_converges_immediately(self):
        b = TemporalGraphBuilder()
        b.add_edge(0, 1, 10)
        series = b.build().series([1, 11])
        res = run(series, SingleSourceShortestPath(0), EngineConfig())
        # Snapshot 0 has no live vertices at all; run must not loop.
        assert res.counters.iterations <= 3


class TestCounterRelations:
    def test_pull_edge_accesses_are_iterations_times_edges(self, small_series):
        res = run(
            small_series,
            PageRank(iterations=4),
            EngineConfig(mode=Mode.PULL, batch_size=None),
        )
        assert res.counters.edge_array_accesses == (
            small_series.num_edges * res.counters.iterations
        )

    def test_push_regather_matches_pull_edge_accesses(self, small_series):
        """For REGATHER programs every vertex scatters, so push enumerates
        the same edge set pull gathers."""
        push = run(
            small_series,
            PageRank(iterations=4),
            EngineConfig(mode=Mode.PUSH, batch_size=None),
        )
        pull = run(
            small_series,
            PageRank(iterations=4),
            EngineConfig(mode=Mode.PULL, batch_size=None),
        )
        assert (
            push.counters.edge_array_accesses
            == pull.counters.edge_array_accesses
        )

    def test_acc_updates_equal_across_modes(self, small_series):
        counts = []
        for mode in (Mode.PUSH, Mode.PULL, Mode.STREAM):
            res = run(
                small_series,
                SpMV(iterations=3),
                EngineConfig(mode=mode, batch_size=2),
            )
            counts.append(res.counters.acc_updates)
        assert counts[0] == counts[1] == counts[2]

    def test_monotone_work_decreases_over_iterations(self, small_series):
        """SSSP's frontier shrinks: total edge accesses are far below
        iterations * E under push."""
        res = run(
            small_series,
            SingleSourceShortestPath(0),
            EngineConfig(mode=Mode.PUSH, batch_size=None),
        )
        assert res.counters.edge_array_accesses < (
            small_series.num_edges * res.counters.iterations
        )


class TestLayoutIndependence:
    @pytest.mark.parametrize("mode", [Mode.PUSH, Mode.PULL, Mode.STREAM])
    def test_layout_never_changes_results_or_counters(self, small_series, mode):
        prog = SingleSourceShortestPath(0)
        a = run(small_series, prog, EngineConfig(mode=mode, layout="time"))
        b = run(small_series, prog, EngineConfig(mode=mode, layout="structure"))
        np.testing.assert_array_equal(a.values, b.values)
        assert a.counters.edge_array_accesses == b.counters.edge_array_accesses
        assert a.counters.acc_updates == b.counters.acc_updates


class TestDeterminism:
    def test_repeated_runs_bitwise_identical(self, small_series):
        cfg = EngineConfig(mode=Mode.PUSH, batch_size=2)
        a = run(small_series, PageRank(iterations=5), cfg)
        b = run(small_series, PageRank(iterations=5), cfg)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.counters.edge_array_accesses == b.counters.edge_array_accesses

    def test_traced_counters_deterministic(self, small_series):
        cfg = EngineConfig(mode=Mode.PUSH)
        a = simulate(small_series, SingleSourceShortestPath(0), cfg)
        b = simulate(small_series, SingleSourceShortestPath(0), cfg)
        assert a.memory.l1d_misses == b.memory.l1d_misses
        assert a.counters.sim_cycles == b.counters.sim_cycles
