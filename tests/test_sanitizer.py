"""The shard-race sanitizer (``EngineConfig(sanitize=True)``).

The thread executor's lock-free correctness rests on one invariant: the
destination-vertex-major plan stream is cut only at vertex boundaries, so
each worker thread folds into accumulator cells nobody else touches. The
sanitizer turns that invariant into a runtime check — the stream is
proven destination-sorted and the range cuts disjoint before the first
scatter, and every range's scatter validates the cells it selected
against a shadow ownership map before it folds — and these tests prove
both that clean runs stay bitwise identical and that corrupted plans are
caught with the offending group/worker identified, instead of silently
corrupting results.
"""

import os
import pickle

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.engine.config import EngineConfig
from repro.engine.kernels import GatherPlan, stream_scatter
from repro.engine.runner import run, run_group
from repro.engine.state import GroupState
from repro.errors import EngineError, ShardRaceError
from repro.parallel import shm
from repro.parallel.plan_shard import (
    assert_destination_sorted,
    ownership_map,
    shard_boundaries,
    verify_disjoint_ownership,
)
from tests.conftest import random_temporal_graph

#: Overridable so the CI multi-worker smoke job can run the same tests
#: at workers=4 (see .github/workflows/ci.yml).
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
ALGOS = ["pagerank", "wcc", "sssp", "mis", "spmv"]
MODES = ["push", "pull"]


@pytest.fixture(scope="module")
def series16():
    g = random_temporal_graph(
        num_vertices=40, num_events=360, seed=7, symmetric=True, weighted=True
    )
    return g.series(g.evenly_spaced_times(16))


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pool_after():
    yield
    shm.shutdown_pool()


# ---------------------------------------------------------------------- #
# primitives


def test_ownership_map_claims_cells_for_their_worker():
    flat = np.array([0, 0, 1, 3, 3, 5], dtype=np.int64)
    bounds = np.array([0, 3, 6], dtype=np.int64)
    claims = ownership_map(flat, bounds, 7)
    assert claims.dtype == np.uint8
    # Worker 0 owns cells {0, 1}, worker 1 owns {3, 5}; untouched cells
    # stay unclaimed (0).
    assert claims.tolist() == [1, 1, 0, 2, 0, 2, 0]


def test_ownership_map_rejects_too_many_workers():
    flat = np.zeros(1, dtype=np.int64)
    bounds = np.zeros(257, dtype=np.int64)  # 256 workers: claim overflows
    with pytest.raises(EngineError, match="at most 255"):
        ownership_map(flat, bounds, 1)


def test_verify_disjoint_accepts_snapped_boundaries():
    rng = np.random.default_rng(3)
    flat = np.sort(rng.integers(0, 50, size=200)).astype(np.int64)
    for workers in (1, 2, 3, 7):
        bounds = shard_boundaries(flat, workers)
        verify_disjoint_ownership(flat, bounds, group=0)  # must not raise


def test_verify_disjoint_rejects_mid_segment_cut():
    # Cutting segment 0 in half hands cell 0 to both workers.
    flat = np.array([0, 0, 0, 0, 2, 2], dtype=np.int64)
    bounds = np.array([0, 2, 6], dtype=np.int64)
    with pytest.raises(ShardRaceError) as ei:
        verify_disjoint_ownership(flat, bounds, group=4)
    err = ei.value
    assert err.group == 4
    assert err.worker == 1
    assert err.other == 0
    assert err.cell == 0
    assert "group 4" in str(err) and "cell 0" in str(err)


def test_verify_disjoint_rejects_non_tiling_bounds():
    flat = np.arange(6, dtype=np.int64)
    with pytest.raises(ShardRaceError):
        verify_disjoint_ownership(flat, np.array([0, 3, 5]), group=0)
    with pytest.raises(ShardRaceError):
        verify_disjoint_ownership(flat, np.array([1, 3, 6]), group=0)


def test_assert_destination_sorted():
    assert_destination_sorted(np.array([0, 1, 1, 4], dtype=np.int64), group=0)
    with pytest.raises(ShardRaceError) as ei:
        assert_destination_sorted(np.array([0, 2, 1, 4], dtype=np.int64), group=8)
    assert ei.value.group == 8


def _plan():
    """A 3-vertex, 2-snapshot weighted plan of the in-edges 1->0, 2->0,
    0->1, 0->2, 1->2, each live in both snapshots. Time-locality cells are
    ``dst * 2 + snapshot``, so stream positions 0-3 write cells {0, 1},
    4-5 cells {2, 3} and 6-9 cells {4, 5}."""
    src = np.array([1, 2, 0, 0, 1], dtype=np.int64)
    dst = np.array([0, 0, 1, 2, 2], dtype=np.int64)
    bitmap = np.full(5, 0b11, dtype=np.uint64)
    weights = np.arange(1.0, 11.0).reshape(5, 2)
    return GatherPlan(src, dst, bitmap, 3, 2, weights=weights)


def _scatter(plan, acc, lo, hi, claims=None, worker=0):
    """One SpMV range scatter of ``plan`` (value of cell c = c + 1)."""
    return stream_scatter(
        plan, lo, hi, make_program("spmv"), np.arange(1.0, 7.0), acc,
        np.ones((3, 2), dtype=bool), np.ones(2, dtype=bool),
        monotone=False, claims=claims, worker=worker, group=16,
    )


def test_plan_shard_rejects_write_into_another_workers_cell():
    claims = np.array([1, 1, 2, 2, 0, 0], dtype=np.uint8)  # cells 2, 3: w1's
    acc = np.zeros(6, dtype=np.float64)
    with pytest.raises(ShardRaceError) as ei:
        _scatter(_plan(), acc, 0, 6, claims, worker=0)
    err = ei.value
    assert err.worker == 0 and err.other == 1
    assert err.cell == 2 and err.group == 16
    assert acc.tolist() == [0.0] * 6  # nothing was written


def test_plan_shard_rejects_write_into_unclaimed_cell():
    claims = np.array([1, 1, 2, 2, 0, 0], dtype=np.uint8)  # cells 4, 5 unclaimed
    acc = np.zeros(6, dtype=np.float64)
    with pytest.raises(ShardRaceError) as ei:
        _scatter(_plan(), acc, 4, 10, claims, worker=1)
    assert ei.value.other is None and ei.value.cell == 4
    assert acc.tolist() == [0.0] * 6  # not even the owned cells 2, 3


def test_plan_shard_sanitized_fold_matches_unsanitized():
    plan = _plan()
    clean = np.zeros(6, dtype=np.float64)
    assert _scatter(plan, clean, 0, plan.length) == 10
    bounds = shard_boundaries(plan.dst_vertices(), 2)
    claims = ownership_map(plan.dst_flat, bounds, 6)
    sanitized = np.zeros(6, dtype=np.float64)
    for w in range(2):
        _scatter(plan, sanitized, int(bounds[w]), int(bounds[w + 1]), claims, w)
    assert sanitized.tobytes() == clean.tobytes()
    # message = source value * weight, summed per cell in stream order
    assert clean.tolist() == [18.0, 32.0, 5.0, 12.0, 34.0, 56.0]


def test_shard_race_error_survives_pickling():
    err = ShardRaceError("boom", group=3, worker=1, other=0, cell=42)
    back = pickle.loads(pickle.dumps(err))
    assert isinstance(back, ShardRaceError)
    assert (back.group, back.worker, back.other, back.cell) == (3, 1, 0, 42)
    assert str(back) == str(err)


# ---------------------------------------------------------------------- #
# end to end through the executors


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algo", ALGOS)
def test_sanitize_clean_runs_are_bitwise_identical(series16, algo, mode):
    program = make_program(algo)
    base = EngineConfig(mode=mode, batch_size=8)
    serial = run(series16, program, base)
    sanitized = run(series16, program, base.with_(sanitize=True))
    parallel = run(
        series16,
        program,
        base.with_(sanitize=True, executor="process", workers=WORKERS),
    )
    assert sanitized.values.tobytes() == serial.values.tobytes()
    assert sanitized.counters == serial.counters
    assert parallel.values.tobytes() == serial.values.tobytes()
    assert parallel.counters == serial.counters


def _mid_segment_boundaries(flat, workers):
    """Corrupted shard bounds: the first cut lands inside a segment."""
    bounds = shard_boundaries(flat, workers)
    dup = np.flatnonzero(np.asarray(flat[1:]) == np.asarray(flat[:-1])) + 1
    assert dup.size, "fixture needs a destination segment with >= 2 entries"
    bounds[1] = dup[0]
    return np.maximum.accumulate(bounds)


def test_parent_detects_corrupted_shard_plan(series16, monkeypatch):
    monkeypatch.setattr(shm, "shard_boundaries", _mid_segment_boundaries)
    config = EngineConfig(
        batch_size=8, executor="process", workers=WORKERS, sanitize=True
    )
    with pytest.raises(ShardRaceError) as ei:
        run(series16, make_program("pagerank"), config)
    err = ei.value
    assert err.group == 0
    assert {err.worker, err.other} == {0, 1}


def test_worker_detects_out_of_ownership_write(series16, monkeypatch):
    # An all-zeros claim map makes every write out-of-ownership: the
    # violation is raised *inside a worker thread*, before its fold, and
    # re-raised as itself from the scatter.
    monkeypatch.setattr(
        shm,
        "ownership_map",
        lambda flat, bounds, ncells: np.zeros(ncells, dtype=np.uint8),
    )
    config = EngineConfig(
        batch_size=8, executor="process", workers=WORKERS, sanitize=True
    )
    with pytest.raises(ShardRaceError) as ei:
        run(series16, make_program("pagerank"), config)
    err = ei.value
    assert err.worker is not None
    assert err.cell is not None
    assert err.other is None  # unclaimed cell, not another worker's


def test_serial_sanitize_detects_unsorted_plan(series16):
    group = series16.group(0, 8)
    program = make_program("pagerank")
    config = EngineConfig(batch_size=8, sanitize=True)
    state = GroupState(group, config.layout, program)
    plan = state.gather_plan()
    vertices = plan.dst_vertices()
    rising = np.flatnonzero(vertices[1:] > vertices[:-1])
    assert rising.size, "fixture plan must span more than one destination"
    i = int(rising[0])
    before = state.acc_flat.copy()
    plan.dst_flat[i], plan.dst_flat[i + 1] = plan.dst_flat[i + 1], plan.dst_flat[i]
    try:
        # One sanitizer arm: the threaded executor proves the order too.
        for cfg in (config, config.with_(executor="process", workers=WORKERS)):
            with pytest.raises(ShardRaceError) as ei:
                run_group(group, program, cfg, state=state)
            assert ei.value.group == 0
            assert ei.value.cell == int(vertices[i])
            assert state.acc_flat.tobytes() == before.tobytes()  # nothing folded
    finally:
        # Plans are cached on the group view; drop the corrupted one so
        # later tests over the same fixture rebuild it clean.
        group.plan_cache.clear()


def test_serial_sanitize_accepts_clean_plan(series16):
    group = series16.group(0, 8)
    program = make_program("pagerank")
    vals, _ = run_group(group, program, EngineConfig(batch_size=8, sanitize=True))
    ref, _ = run_group(group, program, EngineConfig(batch_size=8))
    assert vals.tobytes() == ref.tobytes()
