"""Stream-mode specific behaviour (X-Stream style execution)."""

import numpy as np
import pytest

from repro.algorithms import PageRank, SingleSourceShortestPath
from repro.engine import EngineConfig, Mode, Simulation, run, simulate
from repro.memsim import HierarchyConfig


class TestBuckets:
    @pytest.mark.parametrize("num_cores", [1, 2, 7])
    def test_bucket_count_does_not_change_results(self, small_series, num_cores):
        """A simulated run shuffles into ``max(num_cores, 4)`` buckets."""
        base = run(
            small_series,
            SingleSourceShortestPath(0),
            EngineConfig(mode=Mode.STREAM),
        )
        got = simulate(
            small_series,
            SingleSourceShortestPath(0),
            EngineConfig(mode=Mode.STREAM),
            Simulation(
                hierarchy=HierarchyConfig.experiment_scale(),
                num_cores=num_cores,
            ),
        )
        np.testing.assert_array_equal(base.values, got.values)

    def test_traced_matches_vectorized_with_buckets(self, small_series):
        cfg = EngineConfig(mode=Mode.STREAM)
        sim = Simulation(hierarchy=HierarchyConfig.experiment_scale(), num_cores=6)
        prog = PageRank(iterations=2)
        a = run(small_series, prog, cfg)
        b = simulate(small_series, prog, cfg, sim)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.counters.update_entries == b.counters.update_entries


class TestStreamCharacter:
    def test_full_edge_scan_every_iteration(self, small_series):
        """X-Stream has no edge index: it streams all edges each iteration,
        even with a tiny SSSP frontier."""
        res = run(
            small_series,
            SingleSourceShortestPath(0),
            EngineConfig(mode=Mode.STREAM, batch_size=None),
        )
        assert res.counters.edge_array_accesses == (
            small_series.num_edges * res.counters.iterations
        )

    def test_stream_tlb_friendlier_than_push_at_batch1(self):
        from tests.conftest import random_temporal_graph

        graph = random_temporal_graph(
            num_vertices=1200, num_events=5000, seed=33, with_deletes=False,
            weighted=False,
        )
        series = graph.series(graph.evenly_spaced_times(6))
        hc = HierarchyConfig.experiment_scale()
        misses = {}
        for mode in (Mode.PUSH, Mode.STREAM):
            cfg = EngineConfig(
                mode=mode, batch_size=1, layout="structure", max_iterations=1,
            )
            res = simulate(
                series, PageRank(iterations=1), cfg, Simulation(hierarchy=hc)
            )
            misses[mode] = res.memory.dtlb_misses
        assert misses[Mode.STREAM] < misses[Mode.PUSH]
