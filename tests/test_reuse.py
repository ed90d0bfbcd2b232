"""Tests for reuse-distance analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memsim import Cache, CacheConfig
from repro.memsim.reuse import (
    TraceRecorder,
    lru_miss_ratio,
    mean_reuse_distance,
    record_trace,
    reuse_distance_profile,
    reuse_distances,
)


class TestReuseDistances:
    def test_cold_accesses(self):
        assert list(reuse_distances([1, 2, 3])) == [-1, -1, -1]

    def test_immediate_reuse(self):
        assert list(reuse_distances([5, 5])) == [-1, 0]

    def test_classic_example(self):
        # a b c b a : a's reuse skips {b, c} -> distance 2
        assert list(reuse_distances([1, 2, 3, 2, 1])) == [-1, -1, -1, 1, 2]

    def test_duplicates_between_reuses_count_once(self):
        # a b b b a : only one distinct line between the two a's.
        assert list(reuse_distances([1, 2, 2, 2, 1]))[-1] == 1

    @given(st.lists(st.integers(0, 20), min_size=0, max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_stack(self, trace):
        from collections import OrderedDict

        stack = OrderedDict()
        expected = []
        for line in trace:
            if line in stack:
                d = 0
                for k in reversed(stack):
                    if k == line:
                        break
                    d += 1
                expected.append(d)
                stack.move_to_end(line)
            else:
                expected.append(-1)
                stack[line] = None
        assert list(reuse_distances(trace)) == expected


class TestLruMissRatio:
    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=200),
        st.sampled_from([1, 2, 4, 8, 16]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_fully_associative_cache(self, trace, ways):
        """The stack property: LRU misses are exactly the accesses with
        reuse distance >= cache size."""
        cache = Cache(
            CacheConfig(size_bytes=ways * 64, line_bytes=64, associativity=ways)
        )
        for line in trace:
            cache.access(line)
        assert cache.misses / len(trace) == pytest.approx(
            lru_miss_ratio(trace, ways)
        )

    def test_empty_trace(self):
        assert lru_miss_ratio([], 8) == 0.0


class TestProfile:
    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(1)
        trace = rng.integers(0, 500, size=3000).tolist()
        profile = reuse_distance_profile(trace)
        assert sum(profile.values()) == pytest.approx(1.0)

    def test_sequential_scan_is_all_cold_then_near(self):
        trace = list(range(64)) * 3
        profile = reuse_distance_profile(trace)
        assert profile["cold"] == pytest.approx(64 / 192)

    def test_mean_reuse_distance(self):
        assert mean_reuse_distance([1, 1]) == 0.0
        assert mean_reuse_distance([1, 2]) is None


class TestRecorder:
    def test_records_line_granular(self):
        rec = TraceRecorder(line_bytes=64)
        rec.record(0, 8)
        rec.record(60, 8)  # spans two lines
        assert rec.lines == [0, 0, 1]

    def test_record_trace_wraps_hierarchy(self):
        from repro.memsim import HierarchyConfig, MemoryHierarchy

        hier = MemoryHierarchy(1, HierarchyConfig.experiment_scale())
        rec = record_trace(hier)
        hier.access(0, 8)
        hier.access(128, 8)
        assert len(rec) == 2
        # The hierarchy still counts normally.
        assert hier.counters.per_core[0].accesses == 2

    def test_labs_reduces_line_traffic_and_misses(self):
        """The core locality claim, measured on the raw address trace:
        LABS touches fewer cache lines overall (batched snapshot values
        share lines) and incurs fewer LRU misses at a fixed cache size."""
        from tests.conftest import random_temporal_graph
        from repro.algorithms import PageRank
        from repro.engine import EngineConfig, Simulation
        from repro.engine.runner import run_group
        from repro.layout.address_space import AddressSpace
        from repro.memsim import HierarchyConfig

        graph = random_temporal_graph(
            num_vertices=600, num_events=3000, seed=71, with_deletes=False,
            weighted=False,
        )
        series = graph.series(graph.evenly_spaced_times(8))
        traces = {}
        for batch, layout in ((1, "structure"), (None, "time")):
            cfg = EngineConfig(
                mode="push", batch_size=batch, layout=layout, max_iterations=1,
            )
            sim = Simulation(hierarchy=HierarchyConfig.experiment_scale())
            hier = sim.machine()
            rec = record_trace(hier)
            space = AddressSpace()
            size = cfg.effective_batch_size(series.num_snapshots)
            for group in series.groups(size):
                run_group(
                    group,
                    PageRank(iterations=1),
                    cfg,
                    sim=sim,
                    hierarchy=hier,
                    address_space=space,
                )
            traces[batch] = rec.lines
        assert len(traces[None]) < len(traces[1])
        cache_lines = 32
        labs_misses = lru_miss_ratio(traces[None], cache_lines) * len(traces[None])
        base_misses = lru_miss_ratio(traces[1], cache_lines) * len(traces[1])
        assert labs_misses < base_misses
