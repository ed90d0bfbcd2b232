"""Tests for per-group engine state and its simulated address regions."""

import numpy as np
import pytest

from repro.algorithms import PageRank, SingleSourceShortestPath
from repro.engine.state import GroupState
from repro.layout import LayoutKind


@pytest.fixture
def group(small_series):
    return small_series.group(0, 3)


class TestPhysicalOrientation:
    def test_time_locality_rows_contiguous(self, group):
        state = GroupState(group, LayoutKind.TIME_LOCALITY, PageRank())
        assert state.values.shape == (group.num_vertices, 3)
        assert state.values.flags["C_CONTIGUOUS"]

    def test_structure_locality_is_transposed_view(self, group):
        state = GroupState(group, LayoutKind.STRUCTURE_LOCALITY, PageRank())
        assert state.values.shape == (group.num_vertices, 3)
        # The physical array is (S, V); the (V, S) view is its transpose.
        assert not state.values.flags["C_CONTIGUOUS"]
        state.values[2, 1] = 42.0
        assert state._values_phys[1, 2] == 42.0


class TestInitialisation:
    def test_values_initialised_by_program(self, group):
        state = GroupState(group, LayoutKind.TIME_LOCALITY, PageRank())
        assert np.all(state.values[group.vertex_exists] == 1.0)
        assert np.all(np.isnan(state.values[~group.vertex_exists]))

    def test_acc_starts_at_identity(self, group):
        sum_state = GroupState(group, LayoutKind.TIME_LOCALITY, PageRank())
        assert np.all(sum_state.acc == 0.0)
        min_state = GroupState(
            group, LayoutKind.TIME_LOCALITY, SingleSourceShortestPath(0)
        )
        assert np.all(np.isinf(min_state.acc))

    def test_monotone_active_from_program(self, group):
        state = GroupState(
            group, LayoutKind.TIME_LOCALITY, SingleSourceShortestPath(0)
        )
        # Only the source's live cells start in the frontier words.
        state.activate()
        exists = group.vertex_exists
        assert state.front[1:].tolist() == [0] * (group.num_vertices - 1)
        assert int(state.front[0]) == sum(1 << s for s in np.flatnonzero(exists[0]))
        assert state.running == (1 << group.num_snapshots) - 1

    def test_reset_acc(self, group):
        state = GroupState(group, LayoutKind.TIME_LOCALITY, PageRank())
        state.acc[:] = 7.0
        state.reset_acc()
        assert np.all(state.acc == 0.0)


class TestTracedRegions:
    def test_layouts_absent_without_trace(self, group):
        state = GroupState(group, LayoutKind.TIME_LOCALITY, PageRank())
        assert state.values_layout is None
        assert state.edge_layout is None

    def test_regions_disjoint(self, group):
        state = GroupState(
            group, LayoutKind.TIME_LOCALITY, PageRank(), trace=True
        )
        regions = state.space.regions
        spans = sorted(
            (r.base, r.base + r.nbytes) for r in regions.values() if r.nbytes
        )
        for (a0, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 <= b0, "allocated regions must not overlap"

    def test_stream_buffers_allocated_on_demand(self, group):
        state = GroupState(
            group, LayoutKind.TIME_LOCALITY, PageRank(), trace=True
        )
        assert state.update_buffer_base < 0
        state.alloc_stream_buffers(4)
        assert state.update_buffer_base >= 0
        assert state.bucket_bases is not None and len(state.bucket_bases) == 4

    def test_weight_regions_when_weighted(self, group):
        state = GroupState(
            group, LayoutKind.TIME_LOCALITY, SingleSourceShortestPath(0),
            trace=True,
        )
        if group.out_weight is not None:
            assert state.edge_layout.weight_base >= 0
