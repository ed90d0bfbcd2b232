"""Tests for REGATHER warm starting under ``run(..., reuse="incremental")``."""

from collections import Counter

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.cache import reset_process_caches
from repro.engine import EngineConfig, run
from repro.obs import runtime as obs
from tests.conftest import random_temporal_graph


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Warm groups must execute, not come back from an earlier test."""
    reset_process_caches()
    yield
    reset_process_caches()


@pytest.fixture(scope="module")
def series():
    graph = random_temporal_graph(seed=51, with_deletes=True)
    return graph.series(graph.evenly_spaced_times(8))


def _warm(batch):
    return EngineConfig(batch_size=batch, reuse="incremental")


class TestWarmStart:
    def test_matches_scratch_within_tolerance(self, series):
        prog = PageRank(iterations=200, tol=1e-10)
        scratch = run(series, prog, EngineConfig())
        warm = run(series, PageRank(iterations=200, tol=1e-10), _warm(3))
        assert warm.seeded_groups == 2
        assert np.allclose(
            scratch.values, warm.values, atol=1e-6, equal_nan=True
        )

    def test_uses_fewer_iterations_than_cold_per_group(self):
        """Each warm-started group converges in no more iterations than the
        same group run cold, and strictly fewer in total (on a slowly
        growing graph where consecutive snapshots are similar)."""
        from repro.engine import run_group

        graph = random_temporal_graph(
            seed=52, with_deletes=False, num_events=1200
        )
        # Closely-spaced snapshots near the end of the history, so
        # consecutive snapshots are nearly identical and the warm seed is
        # close to the fixed point.
        t0, t1 = graph.time_range
        times = sorted(
            {int(t1 - (t1 - t0) * 0.1 * (7 - i) / 7) for i in range(8)}
        )
        series = graph.series(times)
        observation = obs.observe()
        try:
            run(series, PageRank(iterations=500, tol=1e-10), _warm(2))
        finally:
            obs.disable()
        # One iteration span per executed iteration, tagged with its group.
        spans = Counter(
            e["args"]["group"]
            for e in observation.tracer.events
            if e["cat"] == "iteration"
        )
        warm_iters, cold_iters = [], []
        for start in range(0, series.num_snapshots, 2):
            stop = min(start + 2, series.num_snapshots)
            _, counters = run_group(
                series.group(start, stop),
                PageRank(iterations=500, tol=1e-10),
                EngineConfig(),
            )
            cold_iters.append(counters.iterations)
            warm_iters.append(spans[start])
        assert warm_iters[0] == cold_iters[0]  # nothing to seed from
        for w, c in zip(warm_iters[1:], cold_iters[1:]):
            assert w <= c
        assert sum(warm_iters[1:]) < sum(cold_iters[1:])

    def test_requires_tolerance(self, series):
        """A REGATHER program without a tolerance runs every group cold."""
        prog = PageRank(iterations=5, tol=0.0)
        scratch = run(series, prog, EngineConfig(batch_size=3))
        warm = run(series, PageRank(iterations=5, tol=0.0), _warm(3))
        assert warm.seeded_groups == 0
        assert warm.values.tobytes() == scratch.values.tobytes()
