"""Network-model behaviour of the distributed engine."""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.distributed import run_distributed
from repro.engine import EngineConfig, Mode
from repro.memsim import CostModel
from tests.conftest import random_temporal_graph


@pytest.fixture(scope="module")
def series():
    graph = random_temporal_graph(
        num_vertices=200, num_events=2500, seed=61, with_deletes=False,
        weighted=False,
    )
    return graph.series(graph.evenly_spaced_times(4))


class TestNetworkModel:
    def test_network_time_scales_with_latency(self, series):
        slow = run_distributed(
            series,
            PageRank(iterations=2),
            num_machines=4,
            config=EngineConfig(mode=Mode.PUSH),
            cost_model=CostModel(network_latency_s=1e-4),
        )
        fast = run_distributed(
            series,
            PageRank(iterations=2),
            num_machines=4,
            config=EngineConfig(mode=Mode.PUSH),
            cost_model=CostModel(network_latency_s=1e-7),
        )
        assert slow.network_seconds > fast.network_seconds
        assert slow.messages == fast.messages

    def test_message_bytes_include_batched_snapshots(self, series):
        dist = run_distributed(series, PageRank(iterations=1), num_machines=2)
        # Every message carries a 4-byte destination plus >= one 8-byte value.
        assert dist.message_bytes >= dist.messages * 12

    def test_network_dilutes_gains(self, series):
        """With an expensive network, the Chronos-vs-baseline gap narrows —
        Section 6.3's 'we expect the benefit to be less visible in a more
        network-constrained environment'."""

        def speedup(latency):
            chronos = run_distributed(
                series, PageRank(iterations=2), num_machines=4,
                config=EngineConfig(mode=Mode.PUSH),
                cost_model=CostModel(network_latency_s=latency),
            )
            base = run_distributed(
                series, PageRank(iterations=2), num_machines=4,
                config=EngineConfig(
                    mode=Mode.PUSH, batch_size=1, layout="structure"
                ),
                cost_model=CostModel(network_latency_s=latency),
            )
            return base.sim_seconds / chronos.sim_seconds

        cheap_net = speedup(1e-7)
        pricey_net = speedup(3e-3)
        assert cheap_net > 1.0
        # The network charges per message; the baseline sends ~S times more
        # messages, so an expensive network can even widen the ratio — the
        # paper's dilution argument concerns bandwidth-bound networks where
        # bytes dominate. Model that: equal bytes -> ratio shrinks toward
        # the compute ratio as bandwidth collapses.
        def bandwidth_speedup(bw):
            chronos = run_distributed(
                series, PageRank(iterations=2), num_machines=4,
                config=EngineConfig(mode=Mode.PUSH),
                cost_model=CostModel(
                    network_latency_s=0.0, network_bandwidth_bytes_per_s=bw
                ),
            )
            base = run_distributed(
                series, PageRank(iterations=2), num_machines=4,
                config=EngineConfig(
                    mode=Mode.PUSH, batch_size=1, layout="structure"
                ),
                cost_model=CostModel(
                    network_latency_s=0.0, network_bandwidth_bytes_per_s=bw
                ),
            )
            return base.sim_seconds / chronos.sim_seconds

        fat_pipe = bandwidth_speedup(1e10)
        thin_pipe = bandwidth_speedup(1e5)
        assert thin_pipe < fat_pipe

    def test_per_machine_seconds_reported(self, series):
        dist = run_distributed(series, PageRank(iterations=1), num_machines=3)
        assert len(dist.per_machine_seconds) == 3
        assert all(s >= 0 for s in dist.per_machine_seconds)
