"""Tests for simulated multi-core execution (Section 3.4 / 6.2)."""

import numpy as np
import pytest

from repro.algorithms import PageRank, SingleSourceShortestPath
from repro.engine import EngineConfig, Mode, Simulation, run
from repro.memsim import CostModel, HierarchyConfig
from repro.parallel import LockTable, run_multicore
from repro.partition import partition_series

HC = HierarchyConfig.experiment_scale()


def machine(num_cores, core_of=None):
    return Simulation(hierarchy=HC, num_cores=num_cores, core_of=core_of)


class TestLockTable:
    def test_uncontended_has_no_extra(self):
        locks = LockTable(CostModel())
        locks.acquire(1, core=0)
        locks.acquire(2, core=0)
        extra, total = locks.finish_iteration()
        assert extra == {} and total == 0
        assert locks.total_acquisitions == 2

    def test_contention_charged_to_both_writers(self):
        cm = CostModel()
        locks = LockTable(cm)
        locks.acquire(7, core=0)
        locks.acquire(7, core=1)
        locks.acquire(7, core=1)
        extra, total = locks.finish_iteration()
        assert extra[0] == cm.lock_contended_cycles
        assert extra[1] == 2 * cm.lock_contended_cycles
        assert total == 3 * cm.lock_contended_cycles
        assert locks.contended_acquisitions == 3

    def test_iteration_state_resets(self):
        locks = LockTable(CostModel())
        locks.acquire(7, core=0)
        locks.acquire(7, core=1)
        locks.finish_iteration()
        locks.acquire(7, core=0)
        extra, total = locks.finish_iteration()
        assert total == 0


class TestPartitionParallel:
    def test_results_match_single_core(self, small_series):
        prog = PageRank(iterations=3)
        single = run(small_series, prog, EngineConfig())
        multi = run_multicore(
            small_series, prog, EngineConfig(mode=Mode.PUSH), machine(4)
        )
        np.testing.assert_array_equal(single.values, multi.values)

    def test_push_acquires_locks(self, small_series):
        res = run_multicore(
            small_series,
            PageRank(iterations=2),
            EngineConfig(mode=Mode.PUSH), machine(2),
        )
        assert res.counters.locks_acquired > 0
        assert res.counters.lock_base_cycles > 0

    def test_pull_needs_no_locks(self, small_series):
        res = run_multicore(
            small_series,
            PageRank(iterations=2),
            EngineConfig(mode=Mode.PULL), machine(2),
        )
        assert res.counters.locks_acquired == 0

    def test_labs_batches_locks(self, small_series):
        """Batch size N takes ~N times fewer locks than batch size 1 —
        the '1 lock for N snapshots' effect of Section 3.4."""
        batched = run_multicore(
            small_series,
            PageRank(iterations=2),
            EngineConfig(mode=Mode.PUSH, batch_size=None), machine(2),
        )
        unbatched = run_multicore(
            small_series,
            PageRank(iterations=2),
            EngineConfig(mode=Mode.PUSH, batch_size=1), machine(2),
        )
        assert batched.counters.locks_acquired < unbatched.counters.locks_acquired

    def test_intercore_transfers_counted(self, small_series):
        res = run_multicore(
            small_series,
            PageRank(iterations=2),
            EngineConfig(mode=Mode.PUSH), machine(4),
        )
        assert res.memory.intercore_transfers > 0

    def test_metis_partition_reduces_contention(self):
        """A structure-aware partition crosses fewer edges than hash, so
        it contends less (the reason the paper partitions with Metis)."""
        from tests.conftest import random_temporal_graph
        from repro.partition import hash_partition

        rng_graph = random_temporal_graph(
            num_vertices=200, num_events=3000, seed=21, with_deletes=False
        )
        series = rng_graph.series(rng_graph.evenly_spaced_times(4))
        prog = PageRank(iterations=2)
        good = run_multicore(
            series, prog, EngineConfig(mode=Mode.PUSH),
            machine(4, partition_series(series, 4)),
        )
        bad = run_multicore(
            series, prog, EngineConfig(mode=Mode.PUSH),
            machine(4, hash_partition(series.num_vertices, 4)),
        )
        assert (
            good.counters.lock_contention_cycles
            <= bad.counters.lock_contention_cycles
        )

    def test_requires_trace(self, small_series):
        """Multi-core runs are simulated: the Simulation is required."""
        with pytest.raises(TypeError):
            run_multicore(small_series, PageRank(), EngineConfig())


class TestSnapshotParallel:
    def test_results_match(self, small_series):
        prog = PageRank(iterations=3)
        single = run(small_series, prog, EngineConfig())
        sp = run_multicore(
            small_series,
            prog,
            EngineConfig(mode=Mode.PUSH), machine(2),
            strategy="snapshot",
        )
        np.testing.assert_array_equal(single.values, sp.values)

    def test_no_locks(self, small_series):
        sp = run_multicore(
            small_series,
            PageRank(iterations=2),
            EngineConfig(mode=Mode.PUSH), machine(2),
            strategy="snapshot",
        )
        assert sp.counters.locks_acquired == 0

    def test_sp_cannot_reduce_edge_accesses(self, small_series):
        """SP enumerates the shared union edge array once per snapshot per
        iteration — it cannot benefit from LABS batching (Section 6.2)."""
        sp = run_multicore(
            small_series,
            PageRank(iterations=1),
            EngineConfig(mode=Mode.PUSH), machine(2),
            strategy="snapshot",
        )
        expected = small_series.num_edges * small_series.num_snapshots
        assert sp.counters.edge_array_accesses == expected

    def test_monotone_program(self, small_series):
        prog = SingleSourceShortestPath(0)
        single = run(small_series, prog, EngineConfig())
        sp = run_multicore(
            small_series,
            prog,
            EngineConfig(mode=Mode.PUSH), machine(3),
            strategy="snapshot",
        )
        np.testing.assert_array_equal(single.values, sp.values)

    def test_chronos_faster_than_sp(self):
        """Partition-parallel LABS beats snapshot-parallelism (Fig 7/8)."""
        from tests.conftest import random_temporal_graph

        graph = random_temporal_graph(
            num_vertices=600, num_events=5000, seed=17, with_deletes=False,
            weighted=False,
        )
        series = graph.series(graph.evenly_spaced_times(8))
        prog = PageRank(iterations=2)
        chronos = run_multicore(
            series, prog, EngineConfig(mode=Mode.PUSH),
            machine(4, partition_series(series, 4)),
        )
        sp = run_multicore(
            series,
            prog,
            EngineConfig(mode=Mode.PUSH), machine(4),
            strategy="snapshot",
        )
        assert chronos.sim_seconds < sp.sim_seconds
