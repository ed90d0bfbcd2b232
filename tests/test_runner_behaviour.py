"""Edge-case and API-behaviour tests for the engine runner."""

import numpy as np
import pytest

from repro.algorithms import (
    MaximalIndependentSet,
    PageRank,
    SingleSourceShortestPath,
    WeaklyConnectedComponents,
)
from repro.engine import EngineConfig, Mode, Simulation, run, run_group, simulate
from repro.temporal import TemporalGraphBuilder


def make_series(edges, times, num_vertices=None):
    b = TemporalGraphBuilder(strict=False)
    for u, v, t in edges:
        b.add_edge(u, v, t)
    return b.build(num_vertices=num_vertices).series(times)


class TestDegenerateGraphs:
    def test_single_edge(self):
        series = make_series([(0, 1, 1)], [2])
        res = run(series, SingleSourceShortestPath(0), EngineConfig())
        assert res.values[0, 0] == 0.0
        assert res.values[1, 0] == 1.0

    def test_isolated_source(self):
        series = make_series([(1, 2, 1)], [2], num_vertices=3)
        res = run(series, SingleSourceShortestPath(0), EngineConfig())
        # Vertex 0 was never touched: dead -> NaN.
        assert np.isnan(res.values[0, 0])

    def test_source_with_no_outgoing_path(self):
        series = make_series([(1, 0, 1)], [2])
        res = run(series, SingleSourceShortestPath(0), EngineConfig())
        assert res.values[0, 0] == 0.0
        assert np.isinf(res.values[1, 0])

    def test_self_contained_snapshot_gap(self):
        """A vertex that exists in snapshot 0 but not snapshot 1."""
        b = TemporalGraphBuilder()
        b.add_vertex(0, 1).add_vertex(1, 1)
        b.add_edge(0, 1, 2)
        b.del_vertex(1, 5)
        series = b.build().series([3, 6])
        res = run(series, WeaklyConnectedComponents(), EngineConfig())
        assert res.values[1, 0] == 0.0  # labelled by component min
        assert np.isnan(res.values[1, 1])

    def test_empty_snapshot(self):
        """Snapshot before any edge exists: every vertex dead."""
        b = TemporalGraphBuilder()
        b.add_edge(0, 1, 10)
        series = b.build().series([5, 11])
        res = run(series, PageRank(iterations=2), EngineConfig())
        assert np.all(np.isnan(res.values[:, 0]))
        assert not np.any(np.isnan(res.values[:, 1]))


class TestIterationControl:
    def test_max_iterations_override(self, small_series):
        res = run(
            small_series,
            SingleSourceShortestPath(0),
            EngineConfig(max_iterations=1),
        )
        assert res.counters.iterations == 1

    def test_mis_converges_without_cap(self, symmetric_series):
        res = run(symmetric_series, MaximalIndependentSet(), EngineConfig())
        decoded = res.decoded()
        # Every live vertex decided (no vertex left undecided).
        exists = symmetric_series.vertex_exists_matrix()
        assert np.all(~np.isnan(decoded[exists]))

    def test_iterations_counted_per_group(self, small_series):
        full = run(small_series, PageRank(iterations=3), EngineConfig())
        split = run(
            small_series, PageRank(iterations=3), EngineConfig(batch_size=1)
        )
        # Batch-1 repeats the iterations once per snapshot.
        assert split.counters.iterations == (
            full.counters.iterations * small_series.num_snapshots
        )


class TestOnlySnapshots:
    def test_restricted_run_updates_one_column(self, small_series):
        group = small_series.group(0, small_series.num_snapshots)
        prog = PageRank(iterations=3)
        vals, counters = run_group(
            group, prog, EngineConfig(), only_snapshots=[1]
        )
        full = run(small_series, prog, EngineConfig())
        np.testing.assert_array_equal(vals[:, 1], full.values[:, 1])
        # Untouched columns keep their initial values (1.0 where live).
        live0 = group.vertex_exists[:, 0]
        assert np.all(vals[live0, 0] == 1.0)


class TestSeeding:
    def test_initial_values_seed(self, small_series):
        group = small_series.group(0, 1)
        prog = SingleSourceShortestPath(0)
        # Seed with the converged result: nothing should change.
        base, _ = run_group(group, prog, EngineConfig())
        seeded, counters = run_group(
            group,
            prog,
            EngineConfig(),
            initial_values=base,
            initial_active=np.zeros_like(group.vertex_exists),
        )
        np.testing.assert_array_equal(base, seeded)
        assert counters.iterations <= 1


class TestRunResult:
    def test_decoded_passthrough(self, small_series):
        res = run(small_series, PageRank(iterations=1), EngineConfig())
        np.testing.assert_array_equal(res.decoded(), res.values)

    def test_snapshot_values(self, small_series):
        res = run(small_series, PageRank(iterations=1), EngineConfig())
        np.testing.assert_array_equal(
            res.snapshot_values(2), res.values[:, 2]
        )

    def test_memory_none_without_trace(self, small_series):
        res = run(small_series, PageRank(iterations=1), EngineConfig())
        assert res.memory is None and res.hierarchy is None

    def test_per_core_cycles_with_trace(self, small_series):
        res = simulate(small_series, PageRank(iterations=1), EngineConfig())
        assert len(res.counters.per_core_cycles) == 1
        assert res.counters.per_core_cycles[0] > 0


class TestConfigHelpers:
    def test_with_copies(self):
        cfg = EngineConfig(mode=Mode.PUSH, batch_size=4)
        cfg2 = cfg.with_(batch_size=8)
        assert cfg.batch_size == 4 and cfg2.batch_size == 8
        assert cfg2.mode is Mode.PUSH

    def test_resolve_core_of_default_blocks(self):
        core_of = Simulation(num_cores=4).resolve_core_of(10)
        assert core_of.min() == 0 and core_of.max() == 3
        assert list(core_of) == sorted(core_of)

    def test_resolve_core_of_validates(self):
        import numpy as np

        from repro.errors import EngineError

        sim = Simulation(num_cores=2, core_of=np.array([0, 5]))
        with pytest.raises(EngineError):
            sim.resolve_core_of(2)
        sim2 = Simulation(num_cores=2, core_of=np.array([0]))
        with pytest.raises(EngineError):
            sim2.resolve_core_of(2)

    def test_simulation_compares_and_hashes_by_identity(self):
        import numpy as np

        a = Simulation(num_cores=2, core_of=np.array([0, 1]))
        b = Simulation(num_cores=2, core_of=np.array([0, 1]))
        assert a == a and a != b
        machines = {a: "a", b: "b"}
        assert machines[a] == "a" and machines[b] == "b"

    def test_effective_batch_size(self):
        cfg = EngineConfig(batch_size=10)
        assert cfg.effective_batch_size(4) == 4
        assert EngineConfig().effective_batch_size(7) == 7
