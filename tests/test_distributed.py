"""Tests for the simulated distributed engine (Sections 3.6 / 6.3)."""

import numpy as np
import pytest

from repro.algorithms import PageRank, SingleSourceShortestPath
from repro.distributed import run_distributed
from repro.engine import EngineConfig, Mode, run
from repro.errors import EngineError
from repro.memsim import HierarchyConfig
from tests.conftest import random_temporal_graph

HC = HierarchyConfig.experiment_scale()


@pytest.fixture(scope="module")
def series():
    graph = random_temporal_graph(
        num_vertices=300, num_events=4000, seed=31, with_deletes=False,
        weighted=False,
    )
    return graph.series(graph.evenly_spaced_times(6))


class TestCorrectness:
    def test_matches_single_machine(self, series):
        prog = SingleSourceShortestPath(0)
        single = run(series, prog, EngineConfig())
        dist = run_distributed(series, prog, num_machines=4)
        np.testing.assert_array_equal(single.values, dist.values)

    def test_pagerank(self, series):
        prog = PageRank(iterations=3)
        single = run(series, prog, EngineConfig())
        dist = run_distributed(
            series, prog, num_machines=3,
            config=EngineConfig(mode=Mode.PUSH),
            hierarchy=HC,
        )
        np.testing.assert_array_equal(single.values, dist.values)

    def test_baseline_batch1_matches(self, series):
        prog = SingleSourceShortestPath(0)
        single = run(series, prog, EngineConfig())
        dist = run_distributed(
            series, prog, num_machines=4,
            config=EngineConfig(mode=Mode.PUSH, batch_size=1),
        )
        np.testing.assert_array_equal(single.values, dist.values)


class TestMessaging:
    def test_messages_only_for_cross_machine_edges(self, series):
        """A single machine never sends messages."""
        dist = run_distributed(series, PageRank(iterations=2), num_machines=1)
        assert dist.messages == 0
        assert dist.network_seconds == 0.0

    def test_labs_batches_messages(self, series):
        """Batching N snapshots sends ~N times fewer (larger) messages —
        'batching across snapshots makes communication more effective'."""
        prog = PageRank(iterations=2)
        machine_of = None
        batched = run_distributed(series, prog, num_machines=4)
        unbatched = run_distributed(
            series, prog, num_machines=4,
            config=EngineConfig(mode=Mode.PUSH, batch_size=1),
        )
        assert batched.messages < unbatched.messages
        # Bytes are comparable (same payloads), only message count shrinks.
        assert batched.message_bytes <= unbatched.message_bytes

    def test_chronos_beats_baseline_end_to_end(self, series):
        """The Table 6 headline: LABS wins in the distributed setting."""
        prog = PageRank(iterations=3)
        chronos = run_distributed(series, prog, num_machines=4)
        baseline = run_distributed(
            series, prog, num_machines=4,
            config=EngineConfig(
                mode=Mode.PUSH, batch_size=1, layout="structure"
            ),
        )
        assert chronos.sim_seconds < baseline.sim_seconds

    def test_no_locks_across_machines(self, series):
        dist = run_distributed(series, PageRank(iterations=2), num_machines=4)
        assert dist.counters.locks_acquired == 0


class TestValidation:
    def test_pull_mode_rejected(self, series):
        with pytest.raises(EngineError):
            run_distributed(
                series,
                PageRank(),
                config=EngineConfig(mode=Mode.PULL),
            )

    def test_zero_machines_rejected(self, series):
        with pytest.raises(EngineError):
            run_distributed(series, PageRank(), num_machines=0)

    def test_custom_machine_assignment(self, series):
        machine_of = np.arange(series.num_vertices) % 2
        dist = run_distributed(
            series,
            SingleSourceShortestPath(0),
            num_machines=2,
            machine_of=machine_of,
        )
        single = run(series, SingleSourceShortestPath(0), EngineConfig())
        np.testing.assert_array_equal(single.values, dist.values)
