"""Tests for incremental computation (standard and LABS-enhanced).

The paper's standard incremental approach is ``incremental_labs`` at
``batch=1``.
"""

import numpy as np
import pytest

from repro.algorithms import PageRank, SingleSourceShortestPath, WeaklyConnectedComponents
from repro.engine import (
    EngineConfig,
    incremental_labs,
    intersection_base_values,
    is_insert_only,
    run,
)
from repro.errors import EngineError
from repro.obs import runtime as obs
from tests.conftest import random_temporal_graph


def _intersection_bases(series, prog, batch):
    """``incremental_labs`` and its ``reuse.intersection_bases`` count."""
    observation = obs.observe(trace=False)
    try:
        result = incremental_labs(series, prog, batch=batch)
    finally:
        obs.disable()
    counters = observation.registry.snapshot()["counters"]
    return result, counters["reuse.intersection_bases"]


@pytest.fixture
def insert_only_series(insert_only_graph):
    return insert_only_graph.series(insert_only_graph.evenly_spaced_times(8))


@pytest.fixture
def churny_series():
    graph = random_temporal_graph(seed=11, with_deletes=True)
    return graph.series(graph.evenly_spaced_times(8))


class TestInsertOnlyCheck:
    def test_growth_only_graph(self, insert_only_series):
        for s in range(1, insert_only_series.num_snapshots):
            assert is_insert_only(insert_only_series, s - 1, s)

    def test_detects_deletions(self, churny_series):
        flags = [
            is_insert_only(churny_series, s - 1, s)
            for s in range(1, churny_series.num_snapshots)
        ]
        assert not all(flags)

    def test_detects_weight_increase(self):
        from repro.temporal import TemporalGraphBuilder

        b = TemporalGraphBuilder()
        b.add_edge(0, 1, 1, weight=1.0)
        b.mod_edge(0, 1, 5, weight=9.0)
        series = b.build().series([2, 6])
        assert not is_insert_only(series, 0, 1)

    def test_weight_decrease_is_fine(self):
        from repro.temporal import TemporalGraphBuilder

        b = TemporalGraphBuilder()
        b.add_edge(0, 1, 1, weight=9.0)
        b.mod_edge(0, 1, 5, weight=1.0)
        series = b.build().series([2, 6])
        assert is_insert_only(series, 0, 1)


class TestCorrectness:
    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_sssp_insert_only(self, insert_only_series, batch):
        prog = SingleSourceShortestPath(0)
        scratch = run(insert_only_series, prog, EngineConfig())
        inc, bases = _intersection_bases(insert_only_series, prog, batch)
        np.testing.assert_array_equal(inc.values, scratch.values)
        assert bases == 0

    @pytest.mark.parametrize("batch", [1, 4])
    def test_sssp_with_deletions_uses_intersection(self, churny_series, batch):
        prog = SingleSourceShortestPath(0)
        scratch = run(churny_series, prog, EngineConfig())
        inc, bases = _intersection_bases(churny_series, prog, batch)
        assert np.allclose(inc.values, scratch.values, equal_nan=True)
        assert bases > 0

    def test_wcc_with_deletions(self):
        graph = random_temporal_graph(seed=13, symmetric=True, with_deletes=True)
        series = graph.series(graph.evenly_spaced_times(6))
        prog = WeaklyConnectedComponents()
        scratch = run(series, prog, EngineConfig())
        inc = incremental_labs(series, prog, batch=3)
        np.testing.assert_array_equal(inc.values, scratch.values)

    def test_standard_equals_batch1(self, insert_only_series):
        """Standard incremental seeds the groups of ``run``'s batch size 1."""
        prog = SingleSourceShortestPath(0)
        std = run(
            insert_only_series,
            prog,
            EngineConfig(batch_size=1, reuse="incremental"),
        )
        labs1 = incremental_labs(insert_only_series, prog, batch=1)
        np.testing.assert_array_equal(std.values, labs1.values)
        assert labs1.seeded_groups == insert_only_series.num_snapshots - 1


class TestWorkSavings:
    def test_incremental_cheaper_than_scratch_per_snapshot(
        self, insert_only_series
    ):
        """Seeded snapshots should converge in far fewer edge visits than
        recomputing each snapshot from scratch."""
        prog = SingleSourceShortestPath(0)
        scratch = run(
            insert_only_series, prog, EngineConfig(batch_size=1)
        )
        inc = incremental_labs(
            insert_only_series, prog, batch=1, activation="tense"
        )
        assert (
            inc.counters.edge_array_accesses
            < scratch.counters.edge_array_accesses
        )

    def test_labs_batching_reduces_edge_traffic(self, insert_only_series):
        prog = SingleSourceShortestPath(0)
        std = incremental_labs(insert_only_series, prog, batch=1)
        labs = incremental_labs(insert_only_series, prog, batch=4)
        assert (
            labs.counters.edge_array_accesses
            <= std.counters.edge_array_accesses
        )


class TestIntersectionBase:
    def test_base_values_upper_bound(self, churny_series):
        """Distances on the intersection graph bound each snapshot's."""
        prog = SingleSourceShortestPath(0)
        snaps = [2, 3, 4]
        base_vals, in_base, _ = intersection_base_values(
            churny_series, snaps, prog, EngineConfig()
        )
        scratch = run(churny_series, prog, EngineConfig())
        for s in snaps:
            both = ~np.isnan(base_vals) & ~np.isnan(scratch.values[:, s])
            assert np.all(base_vals[both] >= scratch.values[both, s] - 1e-12)

    def test_base_edges_subset_of_all_snapshots(self, churny_series):
        _, in_base, _ = intersection_base_values(
            churny_series, [1, 2], SingleSourceShortestPath(0), EngineConfig()
        )
        for s in (1, 2):
            live = (
                (churny_series.out_bitmap >> np.uint64(s)) & np.uint64(1)
            ).astype(bool)
            assert np.all(live[in_base])


class TestValidation:
    def test_regather_program_rejected(self, insert_only_series):
        with pytest.raises(EngineError):
            incremental_labs(insert_only_series, PageRank())

    def test_bad_batch_rejected(self, insert_only_series):
        with pytest.raises(EngineError):
            incremental_labs(
                insert_only_series, SingleSourceShortestPath(0), batch=0
            )

    @pytest.mark.parametrize("reuse", ["cache", "incremental"])
    def test_reuse_rejected(self, insert_only_series, reuse):
        """The result cache would mix its own seeds into the protocol."""
        with pytest.raises(EngineError, match="reuse"):
            incremental_labs(
                insert_only_series,
                SingleSourceShortestPath(0),
                EngineConfig(reuse=reuse),
            )


class TestActivationStrategies:
    @pytest.mark.parametrize("activation", ["all", "tense"])
    def test_both_strategies_exact(self, churny_series, activation):
        prog = SingleSourceShortestPath(0)
        scratch = run(churny_series, prog, EngineConfig())
        inc = incremental_labs(
            churny_series, prog, batch=3, activation=activation
        )
        assert np.allclose(inc.values, scratch.values, equal_nan=True)

    def test_tense_does_less_work(self, insert_only_series):
        prog = SingleSourceShortestPath(0)
        full = incremental_labs(
            insert_only_series, prog, batch=4, activation="all"
        )
        tense = incremental_labs(
            insert_only_series, prog, batch=4, activation="tense"
        )
        np.testing.assert_array_equal(full.values, tense.values)
        assert (
            tense.counters.edge_array_accesses
            < full.counters.edge_array_accesses
        )

    def test_unknown_strategy_rejected(self, insert_only_series):
        with pytest.raises(EngineError):
            incremental_labs(
                insert_only_series,
                SingleSourceShortestPath(0),
                activation="lazy",
            )
