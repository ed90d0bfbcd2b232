"""Real shared-memory multiprocess execution: parity and robustness.

The process executor (:mod:`repro.parallel.shm`) promises *bitwise*
identical values and *identical* logical counters versus the serial
executor — owner-computes plan sharding keeps every accumulator cell's
fold order unchanged, and apply/convergence run through the serial code
path in the parent. These tests state that promise over the full
application matrix, and pin the failure-handling contract: a worker that
raises mid-iteration propagates its exception without deadlocking and
without leaking a single ``/dev/shm`` segment.
"""

import glob
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import PageRank, make_program
from repro.algorithms.program import GatherKind, Semantics, VertexProgram
from repro.engine.config import EngineConfig
from repro.engine.runner import run, run_group
from repro.errors import EngineError
from repro.parallel import shm
from repro.parallel.plan_shard import shard_boundaries
from tests.conftest import random_temporal_graph

#: Overridable so the CI multi-worker smoke job can run the same tests
#: at workers=4 (see .github/workflows/ci.yml).
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
ALGOS = ["pagerank", "wcc", "sssp", "mis", "spmv"]
MODES = ["push", "pull"]
BATCHES = [1, 4, 16]


@pytest.fixture(scope="module")
def series16():
    # Symmetric + weighted so the undirected programs (WCC, MIS) and the
    # weight-consuming ones (SSSP, SpMV) are all on their home turf.
    g = random_temporal_graph(
        num_vertices=40, num_events=360, seed=7, symmetric=True, weighted=True
    )
    return g.series(g.evenly_spaced_times(16))


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pool_after():
    yield
    shm.shutdown_pool()


def assert_no_segment_leaks():
    assert glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}*") == []


# ---------------------------------------------------------------------- #
# parity: the full application matrix


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algo", ALGOS)
def test_process_executor_parity(series16, algo, mode, batch):
    program = make_program(algo)
    serial = run(series16, program, EngineConfig(mode=mode, batch_size=batch))
    parallel = run(
        series16,
        program,
        EngineConfig(
            mode=mode, batch_size=batch, executor="process", workers=WORKERS
        ),
    )
    # Bitwise identity, not approximate equality: same bytes, every cell.
    assert parallel.values.tobytes() == serial.values.tobytes()
    assert parallel.counters == serial.counters
    assert_no_segment_leaks()


@settings(deadline=None, max_examples=5)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_process_parity_random_graphs(seed):
    g = random_temporal_graph(
        num_vertices=25, num_events=150, seed=seed, symmetric=True
    )
    series = g.series(g.evenly_spaced_times(5))
    program = make_program("pagerank")
    serial = run(series, program, EngineConfig(mode="push", batch_size=4))
    parallel = run(
        series,
        program,
        EngineConfig(
            mode="push", batch_size=4, executor="process", workers=WORKERS
        ),
    )
    assert parallel.values.tobytes() == serial.values.tobytes()
    assert parallel.counters == serial.counters


def test_initial_values_seeding_parity(series16):
    """Incremental-style seeding goes through the same shared arrays."""
    program = make_program("sssp")
    group = series16.group(0, 8)
    rng = np.random.default_rng(11)
    seed_vals = rng.uniform(0.0, 5.0, size=(group.num_vertices, 8))
    seed_active = rng.random((group.num_vertices, 8)) < 0.4
    kwargs = dict(initial_values=seed_vals, initial_active=seed_active)
    vals_ser, counters_ser = run_group(
        group, program, EngineConfig(mode="push"), **kwargs
    )
    vals_par, counters_par = run_group(
        group,
        program,
        EngineConfig(mode="push", executor="process", workers=WORKERS),
        **kwargs,
    )
    assert vals_par.tobytes() == vals_ser.tobytes()
    assert counters_par == counters_ser
    assert_no_segment_leaks()


class RenamedPageRank(PageRank):
    """PageRank under another name: still needs source out-degrees."""

    name = "ppr"


def test_renamed_pagerank_subclass_gets_degrees(series16):
    """``needs_degrees`` is declared by the class, not inferred from the
    program's name, on the serial, simulated and process paths alike."""
    want = run(series16, PageRank(iterations=3), EngineConfig(batch_size=4))
    for kwargs in (
        {},
        {"trace": True},
        {"executor": "process", "workers": WORKERS},
    ):
        got = run(
            series16,
            RenamedPageRank(iterations=3),
            EngineConfig(batch_size=4, **kwargs),
        )
        assert got.values.tobytes() == want.values.tobytes(), kwargs
    assert_no_segment_leaks()


# ---------------------------------------------------------------------- #
# robustness: worker failure must not deadlock or leak


class ExplodingProgram(VertexProgram):
    """PageRank-shaped program whose scatter raises inside the workers."""

    name = "exploding"
    semantics = Semantics.REGATHER
    gather = GatherKind.SUM
    max_iterations = 5

    def initial_values(self, group):
        return np.where(group.vertex_exists, 1.0, np.nan)

    def scatter(self, values, weights, degrees):
        raise ValueError("boom from a worker")

    def apply(self, values, acc, group):
        return acc

    def changed(self, old, new):
        return ~np.isclose(old, new) & ~(np.isnan(old) & np.isnan(new))


def test_worker_exception_propagates_and_cleans_up(series16):
    config = EngineConfig(mode="push", executor="process", workers=WORKERS)
    with pytest.raises(ValueError, match="boom from a worker"):
        run(series16, ExplodingProgram(), config)
    # The pool was torn down, nothing leaked, and — crucially — we got
    # here at all: the failure surfaced instead of deadlocking the BSP
    # barrier.
    assert_no_segment_leaks()
    # The executor recovers: the next run builds a fresh pool and works.
    program = make_program("wcc")
    serial = run(series16, program, EngineConfig(mode="push", batch_size=4))
    parallel = run(
        series16,
        program,
        EngineConfig(mode="push", batch_size=4, executor="process", workers=WORKERS),
    )
    assert parallel.values.tobytes() == serial.values.tobytes()
    assert_no_segment_leaks()


def test_no_resource_tracker_warnings_at_exit():
    """A clean interpreter exit after process runs emits no tracker noise."""
    script = textwrap.dedent(
        """
        import sys
        sys.path.insert(0, "src")
        sys.path.insert(0, ".")
        from tests.conftest import random_temporal_graph
        from repro.algorithms import make_program
        from repro.engine.config import EngineConfig
        from repro.engine.runner import run

        g = random_temporal_graph(num_vertices=25, num_events=120, seed=3)
        series = g.series(g.evenly_spaced_times(4))
        run(series, make_program("pagerank"),
            EngineConfig(mode="push", executor="process", workers=2))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "leaked" not in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


# ---------------------------------------------------------------------- #
# fallbacks and configuration


def test_workers_one_falls_back_to_serial(series16):
    program = make_program("pagerank")
    serial = run(series16, program, EngineConfig(mode="push", batch_size=4))
    with pytest.warns(RuntimeWarning, match="falling back to the serial"):
        result = run(
            series16,
            program,
            EngineConfig(mode="push", batch_size=4, executor="process", workers=1),
        )
    assert result.values.tobytes() == serial.values.tobytes()


def test_process_executor_rejects_trace():
    with pytest.raises(EngineError, match="wall-clock-only"):
        EngineConfig(executor="process", trace=True)


def test_process_executor_rejects_snapshot_parallel():
    # Snapshot-parallelism is simulated only; the error names that path.
    with pytest.raises(EngineError, match=r"trace=True, num_cores>1"):
        EngineConfig(executor="process", workers=2, parallel="snapshot")
    EngineConfig(trace=True, num_cores=2, parallel="snapshot")  # still fine


def test_invalid_executor_and_workers():
    with pytest.raises(EngineError):
        EngineConfig(executor="threads")
    with pytest.raises(EngineError):
        EngineConfig(workers=0)


def test_resolve_core_of_memoized():
    config = EngineConfig(trace=True, num_cores=4)
    a = config.resolve_core_of(100)
    b = config.resolve_core_of(100)
    assert a is b  # same object: computed once per (config, V)
    c = config.resolve_core_of(50)
    assert c is not a and c.shape == (50,)


# ---------------------------------------------------------------------- #
# shard boundaries: owner-computes invariants


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=1, max_value=8),
)
def test_shard_boundaries_cut_only_at_segment_starts(seed, workers):
    rng = np.random.default_rng(seed)
    length = int(rng.integers(0, 200))
    flat = np.sort(rng.integers(0, 30, size=length)).astype(np.int64)
    bounds = shard_boundaries(flat, workers)
    assert bounds.shape == (workers + 1,)
    assert bounds[0] == 0 and bounds[-1] == length
    assert np.all(np.diff(bounds) >= 0)
    for b in bounds[1:-1]:
        if 0 < b < length:
            # A cut position starts a new destination segment: no cell is
            # split across two workers.
            assert flat[b - 1] != flat[b]
