"""Batched process-executor dispatch: IPC amortization, counter-proven.

Per-group dispatch cost is amortized: setup IPC is O(groups /
``shm.DISPATCH_BATCH``) round-trips (one ``batch`` message publishes many
groups), plans are published once per run and referenced by token
thereafter, and shard boundaries are cut once per group. None of that
may be taken on faith — :mod:`repro.parallel.shm` counts round-trips and
payload bytes (``IPC_ROUND_TRIPS`` / ``IPC_PAYLOAD_BYTES``) and the
workers count plan-cache attaches vs hits, so every claim here is an
exact arithmetic assertion, alongside the usual bitwise-parity bar.
"""

import glob
import os

import pytest

from repro.algorithms import make_program
from repro.engine.config import EngineConfig
from repro.engine.runner import run
from repro.parallel import shm
from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from tests.conftest import random_temporal_graph

#: Overridable so the CI multi-worker smoke job can run the same tests
#: at workers=4 (see .github/workflows/ci.yml).
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


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


def assert_no_segment_leaks():
    assert glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}*") == []


def _process_config(**kwargs):
    return EngineConfig(
        mode="push", batch_size=2, executor="process", workers=WORKERS, **kwargs
    )


def _worker_stats():
    """The live pool's per-worker plan-cache counters."""
    assert shm._POOL is not None and not shm._POOL.broken
    return shm._POOL.call_all(("stats",))


# ---------------------------------------------------------------------- #
# round-trips: O(groups) -> O(batches), by exact formula


@pytest.mark.parametrize("batch", [1, 2])
def test_ipc_round_trips_match_batch_formula(series16, batch):
    """Per run: one ``batch`` + one ``batch_end`` per session, one
    ``scatter`` per iteration — so round-trips = 2*ceil(G/8) + iters.
    16 snapshots give 16 groups (2 sessions) at batch_size=1 and 8 groups
    (1 session) at batch_size=2."""
    assert shm.DISPATCH_BATCH == 8
    program = make_program("pagerank")
    serial = run(series16, program, EngineConfig(mode="push", batch_size=batch))
    groups = -(-series16.num_snapshots // batch)
    sessions = -(-groups // shm.DISPATCH_BATCH)
    assert sessions == {1: 2, 2: 1}[batch]

    shm.shutdown_pool()  # cold pool: no cross-test cache interference
    config = EngineConfig(
        mode="push", batch_size=batch, executor="process", workers=WORKERS
    )
    before = shm.IPC_ROUND_TRIPS
    result = run(series16, program, config)
    delta = shm.IPC_ROUND_TRIPS - before

    assert result.values.tobytes() == serial.values.tobytes()
    assert result.counters == serial.counters
    assert delta == 2 * sessions + serial.counters.iterations
    assert_no_segment_leaks()


def test_batching_reduces_round_trips(series16, monkeypatch):
    """Dispatch width 8 spends strictly fewer round-trips than width 1,
    with identical results — batching changes IPC shape, never values."""
    program = make_program("wcc")
    deltas = {}
    results = {}
    for dispatch in (1, 8):
        monkeypatch.setattr(shm, "DISPATCH_BATCH", dispatch)
        shm.shutdown_pool()
        before = shm.IPC_ROUND_TRIPS
        results[dispatch] = run(series16, program, _process_config())
        deltas[dispatch] = shm.IPC_ROUND_TRIPS - before
    assert deltas[8] < deltas[1]
    assert (
        results[8].values.tobytes() == results[1].values.tobytes()
    )
    assert results[8].counters == results[1].counters


def test_shard_boundaries_cut_once_per_group(series16, monkeypatch):
    """The parent cuts each group's plan into shards once, at session
    setup — never once per iteration."""
    calls = []
    real = shm.shard_boundaries

    def counting(keys, workers):
        calls.append(workers)
        return real(keys, workers)

    monkeypatch.setattr(shm, "shard_boundaries", counting)
    result = run(series16, make_program("pagerank"), _process_config())
    groups = -(-series16.num_snapshots // 2)
    assert len(calls) == groups
    assert result.counters.iterations > groups  # else the check is vacuous
    assert_no_segment_leaks()


# ---------------------------------------------------------------------- #
# plan-cache lifecycle: surviving workers reuse, respawned workers rebuild


def test_plan_cache_reused_across_runs_and_rebuilt_after_respawn(series16):
    program = make_program("pagerank")
    serial = run(series16, program, EngineConfig(mode="push", batch_size=2))
    config = _process_config()

    shm.shutdown_pool()
    first = run(series16, program, config)
    stats1 = _worker_stats()
    assert all(s["plan_attaches"] > 0 for s in stats1)

    # Same series object -> same cached plans -> same tokens: a surviving
    # pool must serve every plan from its worker caches (zero new attaches).
    second = run(series16, program, config)
    stats2 = _worker_stats()
    for s1, s2 in zip(stats1, stats2):
        assert s2["plan_attaches"] == s1["plan_attaches"]
        assert s2["plan_hits"] > s1["plan_hits"]
    assert second.values.tobytes() == serial.values.tobytes()
    assert second.counters == serial.counters

    # A respawned pool has fresh workers (empty caches) and a fresh parent
    # mirror: the next run must re-publish and re-attach, not trust tokens.
    shm.shutdown_pool()
    third = run(series16, program, config)
    stats3 = _worker_stats()
    assert all(s["plan_attaches"] > 0 for s in stats3)
    assert third.values.tobytes() == serial.values.tobytes()
    assert third.counters == serial.counters
    assert first.values.tobytes() == serial.values.tobytes()
    assert_no_segment_leaks()


def test_plan_cache_rebuilt_after_mid_run_worker_kill(series16):
    """A worker killed mid-run breaks the pool; the retry must land on a
    fresh pool that rebuilds its plan caches — and still match serial."""
    program = make_program("pagerank")
    serial = run(series16, program, EngineConfig(mode="push", batch_size=2))
    shm.shutdown_pool()
    spawns_before = shm.POOL_SPAWNS
    plan = FaultPlan(seed=5).kill_worker(group_start=4, worker=1)
    with faults.injected(plan):
        with pytest.warns(RuntimeWarning, match="respawning the pool"):
            result = run(series16, program, _process_config(retry_limit=2))
    assert plan.fired["kill"] == 1
    assert shm.POOL_SPAWNS - spawns_before == 2  # original + respawn
    stats = _worker_stats()  # the respawned pool: attaches happened again
    assert all(s["plan_attaches"] > 0 for s in stats)
    assert result.values.tobytes() == serial.values.tobytes()
    assert result.counters == serial.counters
    assert_no_segment_leaks()


# ---------------------------------------------------------------------- #
# batched dispatch composes with sanitize and checkpoint/resume


def test_batched_dispatch_with_sanitize_parity(series16):
    program = make_program("sssp")
    serial = run(series16, program, EngineConfig(mode="pull", batch_size=2))
    result = run(
        series16,
        program,
        EngineConfig(
            mode="pull",
            batch_size=2,
            executor="process",
            workers=WORKERS,
            sanitize=True,
        ),
    )
    assert result.values.tobytes() == serial.values.tobytes()
    assert result.counters == serial.counters
    assert_no_segment_leaks()


def test_checkpoint_resume_over_batched_dispatch(series16, tmp_path):
    program = make_program("wcc")
    config = _process_config()
    serial = run(series16, program, EngineConfig(mode="push", batch_size=2))
    first = run(series16, program, config, checkpoint_dir=tmp_path)
    assert first.resumed_groups == 0
    resumed = run(series16, program, config, checkpoint_dir=tmp_path)
    assert resumed.resumed_groups == -(-series16.num_snapshots // 2)
    for result in (first, resumed):
        assert result.values.tobytes() == serial.values.tobytes()
        assert result.counters == serial.counters
    assert_no_segment_leaks()


def test_restored_groups_complete_in_series_order(series16, tmp_path):
    """A partial checkpoint interleaves restored and recomputed groups;
    the batched loop must still complete groups in series order (the
    checkpoint store and counter merge depend on it)."""
    program = make_program("pagerank")
    config = _process_config()
    serial = run(series16, program, EngineConfig(mode="push", batch_size=2))
    full = run(series16, program, config, checkpoint_dir=tmp_path)
    assert full.values.tobytes() == serial.values.tobytes()
    # Drop a middle group's checkpoint: the rerun restores 7 groups and
    # recomputes exactly one, in place.
    ckpts = sorted(tmp_path.glob("group_*"))
    assert len(ckpts) == 8
    ckpts[3].unlink()
    with pytest.warns(RuntimeWarning, match="unreadable"):
        partial = run(series16, program, config, checkpoint_dir=tmp_path)
    assert partial.resumed_groups == 7
    assert partial.values.tobytes() == serial.values.tobytes()
    assert partial.counters == serial.counters
    assert_no_segment_leaks()


def test_payload_counts_only_growing(series16):
    """The counters are monotone globals: a run can only add to them."""
    before_rt, before_pb = shm.IPC_ROUND_TRIPS, shm.IPC_PAYLOAD_BYTES
    run(series16, make_program("spmv"), _process_config())
    assert shm.IPC_ROUND_TRIPS > before_rt
    assert shm.IPC_PAYLOAD_BYTES > before_pb
    assert_no_segment_leaks()
