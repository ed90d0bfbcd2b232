"""The engine-vs-reference correctness matrix.

Every (algorithm, mode, layout, batch size) combination must produce the
same per-snapshot results as the straight-line reference implementations —
exactly for min-gather programs, to float tolerance for sum-gather ones.
"""

import numpy as np
import pytest

from repro.algorithms import (
    MaximalIndependentSet,
    PageRank,
    SingleSourceShortestPath,
    SpMV,
    WeaklyConnectedComponents,
)
from repro.engine import EngineConfig, Mode, Simulation, run, simulate
from repro.errors import EngineError
from repro.layout import LayoutKind
from repro.parallel import run_multicore
from repro.reference import (
    reference_mis,
    reference_pagerank,
    reference_spmv,
    reference_sssp,
    reference_wcc,
)
from tests.conftest import assert_matches_oracle

MODES = [Mode.PUSH, Mode.PULL, Mode.STREAM]
LAYOUTS = [LayoutKind.TIME_LOCALITY, LayoutKind.STRUCTURE_LOCALITY]
BATCHES = [1, 2, None]


def reference_matrix(series, ref_fn):
    return np.stack(
        [ref_fn(series.snapshot(s)) for s in range(series.num_snapshots)],
        axis=1,
    )


def assert_matches(series, program, refs, rtol=1e-9):
    for mode in MODES:
        for layout in LAYOUTS:
            for batch in BATCHES:
                cfg = EngineConfig(mode=mode, layout=layout, batch_size=batch)
                got = program.decode(run(series, program, cfg).values)
                assert np.allclose(
                    got, refs, rtol=rtol, atol=1e-12, equal_nan=True
                ), f"mismatch for {program.name} {mode} {layout} batch={batch}"


class TestDirectedPrograms:
    def test_pagerank(self, small_series):
        refs = reference_matrix(
            small_series, lambda s: reference_pagerank(s, iterations=8)
        )
        assert_matches(small_series, PageRank(iterations=8), refs)

    def test_sssp_weighted(self, small_series):
        refs = reference_matrix(small_series, lambda s: reference_sssp(s, 0))
        assert_matches(small_series, SingleSourceShortestPath(0), refs)

    def test_sssp_unweighted(self, insert_only_graph):
        series = insert_only_graph.series(insert_only_graph.evenly_spaced_times(4))
        refs = reference_matrix(series, lambda s: reference_sssp(s, 0))
        assert_matches(series, SingleSourceShortestPath(0), refs)

    def test_sssp_different_source(self, small_series):
        refs = reference_matrix(small_series, lambda s: reference_sssp(s, 5))
        assert_matches(small_series, SingleSourceShortestPath(5), refs)

    def test_spmv(self, small_series):
        refs = reference_matrix(small_series, lambda s: reference_spmv(s, 4))
        assert_matches(small_series, SpMV(iterations=4), refs)


class TestUndirectedPrograms:
    def test_wcc(self, symmetric_series):
        refs = reference_matrix(symmetric_series, reference_wcc)
        assert_matches(symmetric_series, WeaklyConnectedComponents(), refs)

    def test_mis(self, symmetric_series):
        refs = reference_matrix(symmetric_series, reference_mis)
        assert_matches(symmetric_series, MaximalIndependentSet(), refs)

    def test_mis_is_valid_independent_set(self, symmetric_series):
        res = run(symmetric_series, MaximalIndependentSet(), EngineConfig())
        member = res.decoded() == 1.0
        for s in range(symmetric_series.num_snapshots):
            snap = symmetric_series.snapshot(s)
            for u, v in snap.edge_set():
                assert not (member[u, s] and member[v, s]), (
                    f"adjacent vertices {u},{v} both in MIS at snapshot {s}"
                )


class TestModesAgreeExactly:
    """Push, pull, and stream preserve per-destination message order, so
    their float results are bitwise identical (not just close)."""

    @pytest.mark.parametrize("program_factory", [
        lambda: PageRank(iterations=6),
        lambda: SingleSourceShortestPath(0),
        lambda: SpMV(iterations=3),
    ])
    def test_bitwise_equal_across_modes(self, small_series, program_factory):
        results = []
        for mode in MODES:
            res = run(small_series, program_factory(), EngineConfig(mode=mode))
            results.append(res.values)
        for other in results[1:]:
            np.testing.assert_array_equal(results[0], other)

    def test_bitwise_equal_across_batches(self, small_series):
        base = run(
            small_series, SingleSourceShortestPath(0), EngineConfig(batch_size=1)
        ).values
        for batch in (2, 3, None):
            got = run(
                small_series,
                SingleSourceShortestPath(0),
                EngineConfig(batch_size=batch),
            ).values
            np.testing.assert_array_equal(base, got)


class TestTracedEqualsVectorized:
    """Traced and untraced runs both equal the per-edge scatter oracle
    (``tests/scatter_oracle.py``); only the traced one is charged."""

    @pytest.mark.parametrize("mode", MODES)
    def test_values_and_counters(self, small_series, mode):
        prog = SingleSourceShortestPath(0)
        cfg = EngineConfig(mode=mode, batch_size=2)
        fast = run(small_series, prog, cfg)
        traced = simulate(small_series, prog, cfg)
        assert_matches_oracle(fast, small_series, prog, cfg)
        assert_matches_oracle(traced, small_series, prog, cfg)
        assert traced.sim_seconds is not None and traced.sim_seconds > 0
        assert fast.sim_seconds is None

    @pytest.mark.parametrize("mode", MODES)
    def test_regather_program_traced(self, small_series, mode):
        prog = PageRank(iterations=3)
        cfg = EngineConfig(mode=mode)
        fast = run(small_series, prog, cfg)
        traced = simulate(small_series, prog, cfg)
        assert_matches_oracle(fast, small_series, prog, cfg)
        assert_matches_oracle(traced, small_series, prog, cfg)


class TestDeadVertices:
    def test_dead_vertices_are_nan(self, small_series):
        res = run(small_series, PageRank(iterations=2), EngineConfig())
        exists = small_series.vertex_exists_matrix()
        assert np.all(np.isnan(res.values[~exists]))
        assert not np.any(np.isnan(res.values[exists]))


class TestConfigValidation:
    def test_bad_batch(self):
        with pytest.raises(EngineError):
            EngineConfig(batch_size=0)

    def test_multicore_requires_trace(self):
        """Cores are simulated: the core count is the Simulation's, and
        the value config cannot express one."""
        with pytest.raises(TypeError):
            EngineConfig(num_cores=2)
        with pytest.raises(EngineError, match="num_cores must be positive"):
            Simulation(num_cores=0)

    def test_unknown_parallel(self, small_series):
        with pytest.raises(EngineError, match="unknown parallel strategy"):
            run_multicore(
                small_series,
                PageRank(),
                EngineConfig(),
                Simulation(num_cores=2),
                strategy="waves",
            )

    def test_string_mode_coerced(self):
        cfg = EngineConfig(mode="pull", layout="structure")
        assert cfg.mode is Mode.PULL
        assert cfg.layout is LayoutKind.STRUCTURE_LOCALITY
