"""The thread executor (``executor="process"``): parity and robustness.

:mod:`repro.parallel.shm` walks each LABS group's destination ranges on
a persistent pool of worker threads. It promises *bitwise* identical
values and *identical* logical counters versus the serial executor —
owner-computes destination ranges keep every accumulator cell's fold order
unchanged, and apply/convergence run through the serial code path in the
calling thread. These tests state that promise over the application
matrix (apps × modes × layouts × batch sizes × worker counts), every
threaded run proving its ranges owner-safe before its first write,
and pin the rest of the executor's contract: an exception in one thread
propagates as itself and leaves the pool usable, resume from the result
cache works on threads, and shards are cut once per group.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import PageRank, make_program
from repro.algorithms.program import GatherKind, Semantics, VertexProgram
from repro.cache import reset_process_caches
from repro.engine.config import EngineConfig, Simulation
from repro.engine.runner import run, run_group, simulate
from repro.errors import EngineError
from repro.layout.vertex_array import LayoutKind
from repro.parallel import shm
from repro.parallel.shm import shard_boundaries
from tests.conftest import random_temporal_graph

#: Overridable so the CI multi-worker smoke job can run the same tests
#: at workers=4 (see .github/workflows/ci.yml).
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
#: Every pool size the parity matrix runs: two shards, an odd count, and
#: whatever the environment asks for.
POOL_SIZES = sorted({2, 3, WORKERS})
ALGOS = ["pagerank", "wcc", "sssp", "mis", "spmv"]
MODES = ["push", "pull", "stream"]
LAYOUTS = [LayoutKind.TIME_LOCALITY, LayoutKind.STRUCTURE_LOCALITY]
#: 16 snapshots: one-snapshot groups, a ragged last group (3), and
#: two / four / one whole-series group(s).
BATCHES = [1, 3, 4, 8, 16]
REPO = Path(__file__).resolve().parent.parent


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


def assert_same_run(got, want, label=""):
    """Bitwise identity, not approximate equality: same bytes, every cell,
    and every counter."""
    assert got.values.tobytes() == want.values.tobytes(), label
    assert got.counters == want.counters, label


def threaded(workers=WORKERS, **kwargs):
    return EngineConfig(executor="process", workers=workers, **kwargs)


# ---------------------------------------------------------------------- #
# parity: the full application matrix


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algo", ALGOS)
def test_process_executor_parity(series16, algo, mode, batch):
    program = make_program(algo)
    for layout in LAYOUTS:
        base = dict(mode=mode, layout=layout, batch_size=batch)
        serial = run(series16, program, EngineConfig(**base))
        for workers in POOL_SIZES:
            got = run(series16, program, threaded(workers, **base))
            assert_same_run(got, serial, f"{layout.value} x{workers}")


def test_many_threads_with_fast_switching_stay_bitwise(series16):
    """More shards than cores, with the interpreter switching threads as
    often as it can: a lost or doubled accumulator update would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for algo, mode in (("pagerank", "pull"), ("sssp", "push")):
            program = make_program(algo)
            base = dict(mode=mode, batch_size=8)
            serial = run(series16, program, EngineConfig(**base))
            got = run(series16, program, threaded(8, **base))
            assert_same_run(got, serial, algo)
    finally:
        sys.setswitchinterval(interval)


@settings(deadline=None, max_examples=5)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_process_parity_random_graphs(seed):
    g = random_temporal_graph(
        num_vertices=25, num_events=150, seed=seed, symmetric=True
    )
    series = g.series(g.evenly_spaced_times(5))
    program = make_program("pagerank")
    serial = run(series, program, EngineConfig(mode="push", batch_size=4))
    parallel = run(series, program, threaded(mode="push", batch_size=4))
    assert_same_run(parallel, serial)


def test_initial_values_seeding_parity(series16):
    """Incremental-style seeding goes through the same sharded scatter."""
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
        group, program, threaded(mode="push"), **kwargs
    )
    assert vals_par.tobytes() == vals_ser.tobytes()
    assert counters_par == counters_ser


class RenamedPageRank(PageRank):
    """PageRank under another name: still needs source out-degrees."""

    name = "ppr"


def test_renamed_pagerank_subclass_gets_degrees(series16):
    """``needs_degrees`` is declared by the class, not inferred from the
    program's name, on the serial, simulated and threaded paths alike."""
    want = run(series16, PageRank(iterations=3), EngineConfig(batch_size=4))
    for execute, kwargs in (
        (run, {}),
        (simulate, {}),
        (run, {"executor": "process", "workers": WORKERS}),
    ):
        got = execute(
            series16,
            RenamedPageRank(iterations=3),
            EngineConfig(batch_size=4, **kwargs),
        )
        assert got.values.tobytes() == want.values.tobytes(), kwargs


# ---------------------------------------------------------------------- #
# robustness: a failing thread must not deadlock or break the pool


class ExplodingProgram(VertexProgram):
    """PageRank-shaped program whose first scatter call raises.

    Exactly one shard of the first iteration fails; the others complete.
    """

    name = "exploding"
    semantics = Semantics.REGATHER
    gather = GatherKind.SUM
    max_iterations = 5

    def __init__(self):
        self._lock = threading.Lock()
        self.armed = True
        self.exploded_in = None

    def initial_values(self, group):
        return np.where(group.vertex_exists, 1.0, np.nan)

    def scatter(self, values, weights, degrees):
        with self._lock:
            armed, self.armed = self.armed, False
        if armed:
            self.exploded_in = threading.current_thread().name
            raise ValueError("boom from a worker")
        return values

    def apply(self, values, acc, group):
        return acc


def test_worker_exception_propagates_and_cleans_up(series16):
    program = make_program("wcc")
    serial = run(series16, program, EngineConfig(mode="push", batch_size=4))
    run(series16, program, threaded(mode="push", batch_size=4))  # warm pool
    spawns = shm.POOL_SPAWNS
    exploding = ExplodingProgram()
    with pytest.raises(ValueError, match="boom from a worker"):
        run(series16, exploding, threaded(mode="push"))
    # The raise came from a pool thread, and surfaced as itself instead of
    # deadlocking the barrier.
    assert exploding.exploded_in.startswith("repro-worker")
    # The same pool serves the next run, correctly.
    parallel = run(series16, program, threaded(mode="push", batch_size=4))
    assert shm.POOL_SPAWNS == spawns
    assert_same_run(parallel, serial)


def test_clean_interpreter_exit_after_threaded_runs():
    """Exiting with a live pool joins its threads: no hang, no traceback."""
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
        cwd=str(REPO),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "", proc.stderr


# ---------------------------------------------------------------------- #
# once per group: shard cuts; and checkpoint resume on threads


def test_shard_boundaries_cut_once_per_group(series16, monkeypatch):
    """Each group's destinations are cut into ranges once, before its
    first scatter — never once per iteration."""
    calls = []
    real = shm.shard_boundaries

    def counting(index, workers):
        calls.append(workers)
        return real(index, workers)

    monkeypatch.setattr(shm, "shard_boundaries", counting)
    result = run(
        series16, make_program("pagerank"), threaded(mode="push", batch_size=2)
    )
    groups = -(-series16.num_snapshots // 2)
    assert calls == [WORKERS] * groups
    assert result.counters.iterations > groups  # else the check is vacuous


def _cache_config(tmp_path, **kwargs):
    return threaded(reuse="cache", cache_dir=str(tmp_path), **kwargs)


def test_checkpoint_resume_on_threads(series16, tmp_path):
    program = make_program("wcc")
    config = _cache_config(tmp_path, mode="push", batch_size=2)
    serial = run(series16, program, EngineConfig(mode="push", batch_size=2))
    first = run(series16, program, config)
    assert first.cached_groups == 0
    reset_process_caches()  # the rerun reads the disk tier
    resumed = run(series16, program, config)
    assert resumed.cached_groups == -(-series16.num_snapshots // 2)
    for result in (first, resumed):
        assert_same_run(result, serial)


def test_restored_groups_complete_in_series_order(series16, tmp_path):
    """A partially persisted run interleaves served and recomputed groups;
    the group loop must complete them in series order (the cache store
    and the counter merge depend on it)."""
    program = make_program("pagerank")
    config = _cache_config(tmp_path, mode="push", batch_size=2)
    serial = run(series16, program, EngineConfig(mode="push", batch_size=2))
    full = run(series16, program, config)
    assert full.values.tobytes() == serial.values.tobytes()
    # Drop a middle group's entry: the rerun serves 7 groups and
    # recomputes exactly one, in place.
    sidecars = sorted(tmp_path.glob("entry_*.json"))
    assert len(sidecars) == 8
    (middle,) = [
        p for p in sidecars if json.loads(p.read_text())["meta"]["start"] == 6
    ]
    middle.unlink()
    middle.with_suffix(".npy").unlink()
    reset_process_caches()
    partial = run(series16, program, config)
    assert partial.cached_groups == 7
    assert_same_run(partial, serial)


# ---------------------------------------------------------------------- #
# fallbacks and configuration


def test_workers_one_falls_back_to_serial(series16):
    """One worker is one range, every destination, run inline."""
    program = make_program("pagerank")
    serial = run(series16, program, EngineConfig(mode="push", batch_size=4))
    result = run(series16, program, threaded(1, mode="push", batch_size=4))
    assert result.values.tobytes() == serial.values.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_simulated_run_on_the_pool_equals_serial(mode):
    """The walk runs on the pool and the simulator charges serially after
    it, so a simulated pooled run equals the one-range run on values,
    engine counters and memory counters (per core included)."""
    g = random_temporal_graph(
        num_vertices=20, num_events=160, seed=5, symmetric=True, weighted=True
    )
    series = g.series(g.evenly_spaced_times(6))
    sim = Simulation(num_cores=2)
    for algo in ("pagerank", "sssp"):
        program = make_program(algo)
        want = simulate(series, program, threaded(1, mode=mode, batch_size=4), sim)
        got = simulate(series, program, threaded(2, mode=mode, batch_size=4), sim)
        assert_same_run(got, want, algo)
        assert got.memory == want.memory, algo
        assert len(got.memory.per_core) == 2


def test_invalid_executor_and_workers():
    with pytest.raises(EngineError):
        EngineConfig(executor="threads")
    with pytest.raises(EngineError):
        EngineConfig(workers=0)


def test_resolve_core_of_memoized():
    sim = Simulation(num_cores=4)
    a = sim.resolve_core_of(100)
    b = sim.resolve_core_of(100)
    assert a is b  # same object: computed once per (simulation, V)
    c = sim.resolve_core_of(50)
    assert c is not a and c.shape == (50,)


# ---------------------------------------------------------------------- #
# shard boundaries: owner-computes invariants


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=1, max_value=8),
)
def test_shard_boundaries_cut_only_at_segment_starts(seed, workers):
    """Cuts are destination vertices, so each range's in-edges
    ``[index[b_w], index[b_w+1])`` start and end at vertex boundaries, tile
    the edges, and hold no more than an equal share plus one vertex's."""
    rng = np.random.default_rng(seed)
    length = int(rng.integers(0, 200))
    keys = np.sort(rng.integers(0, 30, size=length)).astype(np.int64)
    counts = np.bincount(keys, minlength=30)
    index = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    bounds = shard_boundaries(index, workers)
    assert bounds.shape == (workers + 1,)
    assert bounds[0] == 0 and bounds[-1] == 30
    assert np.all(np.diff(bounds) >= 0)
    edges = index[bounds]
    assert edges[0] == 0 and edges[-1] == length
    for w in range(workers):
        lo, hi = int(edges[w]), int(edges[w + 1])
        # No destination is split across two workers.
        assert np.all((keys[lo:hi] >= bounds[w]) & (keys[lo:hi] < bounds[w + 1]))
        assert hi - lo <= -(-length // workers) + int(counts.max(initial=0))
