"""Tests for the engine's software counters — the LABS batching effects.

These pin down the quantitative claims behind Table 3 (edge-array access
reduction) and the locality narrative of Section 3.3.
"""

import numpy as np
import pytest

from repro.algorithms import PageRank, SingleSourceShortestPath
from repro.engine import EngineConfig, Mode, Simulation, run, simulate
from repro.memsim import HierarchyConfig


class TestEdgeArrayAccesses:
    def test_regather_batch1_counts_per_snapshot_edges(self, small_series):
        """Batch size 1 enumerates each snapshot's compact edge array."""
        res = run(
            small_series,
            PageRank(iterations=1),
            EngineConfig(mode=Mode.PUSH, batch_size=1),
        )
        expected = sum(
            small_series.edges_in_snapshot(s)
            for s in range(small_series.num_snapshots)
        )
        assert res.counters.edge_array_accesses == expected

    def test_regather_full_batch_counts_union_once(self, small_series):
        """One LABS batch enumerates the union edge array once."""
        res = run(
            small_series,
            PageRank(iterations=1),
            EngineConfig(mode=Mode.PUSH, batch_size=None),
        )
        assert res.counters.edge_array_accesses == small_series.num_edges

    def test_batching_reduces_accesses_monotonically(self, small_series):
        """Larger batches never increase edge-array traffic (Table 3)."""
        counts = []
        for batch in (1, 2, 5):
            res = run(
                small_series,
                PageRank(iterations=3),
                EngineConfig(mode=Mode.PUSH, batch_size=batch),
            )
            counts.append(res.counters.edge_array_accesses)
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[0] > counts[2]

    def test_pull_scans_all_edges_each_iteration(self, small_series):
        """Pull mode pays O(|E|) per iteration regardless of frontier."""
        res = run(
            small_series,
            SingleSourceShortestPath(0),
            EngineConfig(mode=Mode.PULL, batch_size=None),
        )
        expected = small_series.num_edges * res.counters.iterations
        assert res.counters.edge_array_accesses == expected

    def test_push_frontier_smaller_than_pull(self, small_series):
        """Push only enumerates active vertices' edges (SSSP frontier)."""
        push = run(
            small_series,
            SingleSourceShortestPath(0),
            EngineConfig(mode=Mode.PUSH, batch_size=None),
        )
        pull = run(
            small_series,
            SingleSourceShortestPath(0),
            EngineConfig(mode=Mode.PULL, batch_size=None),
        )
        assert (
            push.counters.edge_array_accesses
            < pull.counters.edge_array_accesses
        )


class TestDirtyChecks:
    def test_pull_dirty_checks_exceed_push(self, small_series):
        """Pull checks each neighbour's dirty bit: O(|E|) vs push's O(|V|)."""
        push = run(
            small_series,
            SingleSourceShortestPath(0),
            EngineConfig(mode=Mode.PUSH, batch_size=None),
        )
        pull = run(
            small_series,
            SingleSourceShortestPath(0),
            EngineConfig(mode=Mode.PULL, batch_size=None),
        )
        assert pull.counters.dirty_checks > push.counters.dirty_checks


class TestStreamUpdates:
    def test_update_entries_match_acc_updates(self, small_series):
        res = run(
            small_series,
            PageRank(iterations=2),
            EngineConfig(mode=Mode.STREAM),
        )
        assert res.counters.update_entries == res.counters.acc_updates
        assert res.counters.update_entries > 0


class TestMissCountsFallWithBatch:
    """The reproduction's Table 2: simulated L1d/LLC/dTLB misses decrease
    as the LABS batch grows (time-locality layout)."""

    @pytest.mark.parametrize("mode", [Mode.PUSH, Mode.PULL])
    def test_misses_decrease(self, mode):
        from tests.conftest import random_temporal_graph

        # One snapshot's vertex data (V * 8 bytes) must exceed the scaled
        # TLB reach and L1 so batch-1 random access actually misses — the
        # regime the paper's billion-edge graphs were in.
        graph = random_temporal_graph(
            num_vertices=1500, num_events=6000, seed=9, with_deletes=False,
            weighted=False,
        )
        series = graph.series(graph.evenly_spaced_times(8))
        hc = HierarchyConfig.experiment_scale()
        misses = []
        for batch in (1, 8):
            cfg = EngineConfig(mode=mode, batch_size=batch, max_iterations=1)
            res = simulate(
                series, PageRank(iterations=1), cfg, Simulation(hierarchy=hc)
            )
            misses.append(
                (
                    res.memory.l1d_misses,
                    res.memory.llc_misses,
                    res.memory.dtlb_misses,
                )
            )
        assert misses[1][0] < misses[0][0], "L1d misses should fall"
        assert misses[1][2] < misses[0][2], "dTLB misses should fall"
