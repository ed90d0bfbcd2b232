"""Edge cases for the simulated multi-core runners."""

import numpy as np
import pytest

from repro.algorithms import PageRank, SingleSourceShortestPath
from repro.engine import EngineConfig, Mode, Simulation, run
from repro.errors import EngineError
from repro.memsim import HierarchyConfig
from repro.parallel import run_multicore

HC = HierarchyConfig.experiment_scale()
PUSH = EngineConfig(mode=Mode.PUSH)


def sim(num_cores, core_of=None):
    return Simulation(hierarchy=HC, num_cores=num_cores, core_of=core_of)


class TestSnapshotParallelEdgeCases:
    def test_more_cores_than_snapshots(self, small_series):
        prog = PageRank(iterations=2)
        res = run_multicore(
            small_series,
            prog,
            PUSH,
            sim(16),
            strategy="snapshot",
        )
        ref = run(small_series, prog, EngineConfig())
        np.testing.assert_array_equal(res.values, ref.values)
        # Only as many cores as snapshots ever do work.
        busy = sum(1 for s in res.per_core_seconds if s > 0)
        assert busy == min(16, small_series.num_snapshots)

    def test_single_core_snapshot_parallel(self, small_series):
        prog = SingleSourceShortestPath(0)
        res = run_multicore(
            small_series, prog, PUSH, sim(1), strategy="snapshot"
        )
        ref = run(small_series, prog, EngineConfig())
        np.testing.assert_array_equal(res.values, ref.values)

    def test_round_robin_assignment(self, small_series):
        res = run_multicore(
            small_series,
            PageRank(iterations=1),
            PUSH,
            sim(2),
            strategy="snapshot",
        )
        # 5 snapshots over 2 cores: 3 on core 0, 2 on core 1 — both busy.
        assert all(s > 0 for s in res.per_core_seconds)

    def test_vertex_core_map_is_rejected(self, small_series):
        """Snapshot-parallelism pins whole snapshots to cores; a vertex ->
        core map would be dropped, so it is an error, not ignored."""
        core_of = np.zeros(small_series.num_vertices, dtype=np.int64)
        with pytest.raises(EngineError, match="core_of"):
            run_multicore(
                small_series,
                PageRank(iterations=1),
                PUSH,
                sim(2, core_of),
                strategy="snapshot",
            )

    @pytest.mark.parametrize("strategy", ["partition", "snapshot"])
    def test_reuse_is_rejected(self, small_series, strategy):
        """A simulated run charges every group, so neither strategy takes
        a result-reuse policy."""
        with pytest.raises(EngineError, match="cannot reuse results"):
            run_multicore(
                small_series,
                PageRank(iterations=1),
                EngineConfig(reuse="cache"),
                sim(2),
                strategy=strategy,
            )


class TestPartitionParallelEdgeCases:
    def test_all_vertices_on_one_core(self, small_series):
        core_of = np.zeros(small_series.num_vertices, dtype=np.int64)
        prog = PageRank(iterations=2)
        res = run_multicore(small_series, prog, PUSH, sim(2, core_of))
        ref = run(small_series, prog, EngineConfig())
        np.testing.assert_array_equal(res.values, ref.values)
        # No cross-partition edges: contention-free.
        assert res.counters.lock_contention_cycles == 0

    def test_sixteen_cores(self, small_series):
        prog = SingleSourceShortestPath(0)
        res = run_multicore(small_series, prog, PUSH, sim(16))
        ref = run(small_series, prog, EngineConfig())
        np.testing.assert_array_equal(res.values, ref.values)

    def test_pull_and_stream_parallel(self, small_series):
        prog = PageRank(iterations=2)
        ref = run(small_series, prog, EngineConfig())
        for mode in (Mode.PULL, Mode.STREAM):
            res = run_multicore(small_series, prog, EngineConfig(mode=mode), sim(4))
            np.testing.assert_array_equal(res.values, ref.values)
            assert res.counters.locks_acquired == 0

    def test_barrier_time_at_most_sum_of_cores(self, small_series):
        res = run_multicore(
            small_series, PageRank(iterations=2), PUSH, sim(4)
        )
        assert res.sim_seconds <= sum(res.per_core_seconds) + 1e-12
        assert res.sim_seconds >= max(res.per_core_seconds) - 1e-12
