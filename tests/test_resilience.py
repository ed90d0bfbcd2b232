"""Fault-tolerant execution: injection, retry, degradation, checkpoint/resume.

Pins the ISSUE-4 contract:

- a worker killed, hung past ``worker_timeout_s``, or raising an injected
  fault breaks the pool; the failed LABS group — and only that group — is
  retried on a freshly spawned pool, and the run's results stay bitwise
  identical to serial execution;
- persistent failure degrades to the serial executor (``fallback="serial"``,
  with a warning) or raises a :class:`~repro.errors.WorkerError` carrying
  worker index, group id, and attempt count (``fallback="raise"``);
- ``run(..., checkpoint_dir=...)`` persists each completed group and a rerun
  resumes at the first incomplete group without recomputation;
- no scenario leaks ``/dev/shm`` segments (also enforced session-wide by
  the ``no_shared_memory_leaks`` fixture in ``conftest.py``).
"""

import glob
import os
import pickle
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.engine import EngineConfig, run
from repro.engine.counters import EngineCounters
from repro.errors import EngineError, WorkerError
from repro.parallel import shm
from repro.resilience import faults
from repro.resilience.checkpoint import RunCheckpoint
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.resilience.retry import RetryPolicy, execute_with_retry
from tests.conftest import random_temporal_graph

pytestmark = pytest.mark.skipif(
    not shm.shared_memory_available(),
    reason="POSIX shared memory unavailable",
)

SEED = 77
SNAPSHOTS = 6
BATCH = 3  # -> groups starting at snapshots 0 and 3
REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def series():
    graph = random_temporal_graph(seed=SEED, num_vertices=40, num_events=500)
    return graph.series(graph.evenly_spaced_times(SNAPSHOTS))


@pytest.fixture(scope="module")
def program():
    return make_program("pagerank")


@pytest.fixture(scope="module")
def serial_result(series, program):
    return run(series, program, EngineConfig(batch_size=BATCH))


def process_config(**overrides):
    base = dict(
        batch_size=BATCH,
        executor="process",
        workers=2,
        worker_timeout_s=15.0,
        retry_backoff_s=0.01,
    )
    base.update(overrides)
    return EngineConfig(**base)


def run_with_plan(series, program, config, plan):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with faults.injected(plan):
            result = run(series, program, config)
    shm.shutdown_pool()
    return result, [str(w.message) for w in caught]


def assert_no_leaks():
    assert glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}*") == []


class TestWorkerFaultRecovery:
    def test_killed_worker_retries_and_matches_serial(
        self, series, program, serial_result
    ):
        spawns_before = shm.POOL_SPAWNS
        plan = FaultPlan().kill_worker(group_start=BATCH, worker=1)
        result, msgs = run_with_plan(series, program, process_config(), plan)
        assert plan.fired.get("kill") == 1
        assert result.values.tobytes() == serial_result.values.tobytes()
        assert result.counters == serial_result.counters
        # one initial spawn + exactly one respawn for the retry
        assert shm.POOL_SPAWNS - spawns_before == 2
        assert any("respawning the pool and retrying" in m for m in msgs)
        assert_no_leaks()

    def test_hung_worker_times_out_and_retries(
        self, series, program, serial_result
    ):
        spawns_before = shm.POOL_SPAWNS
        plan = FaultPlan().hang_worker(group_start=0, worker=0, seconds=60)
        result, msgs = run_with_plan(
            series, program, process_config(worker_timeout_s=1.0), plan
        )
        assert plan.fired.get("hang") == 1
        assert result.values.tobytes() == serial_result.values.tobytes()
        assert shm.POOL_SPAWNS - spawns_before == 2
        assert any("reply deadline" in m for m in msgs)
        assert_no_leaks()

    def test_hung_worker_ignoring_sigterm_is_killed(
        self, series, program, serial_result
    ):
        # The worker sleeps with SIGTERM ignored: pool shutdown must
        # escalate terminate -> kill instead of waiting out the sleep.
        plan = FaultPlan().hang_worker(
            group_start=0, worker=1, seconds=120, ignore_term=True
        )
        result, _ = run_with_plan(
            series, program, process_config(worker_timeout_s=1.0), plan
        )
        assert result.values.tobytes() == serial_result.values.tobytes()
        assert_no_leaks()

    def test_injected_scatter_error_is_retried(
        self, series, program, serial_result
    ):
        plan = FaultPlan().scatter_error(group_start=BATCH, worker=0)
        result, msgs = run_with_plan(series, program, process_config(), plan)
        assert plan.fired.get("error") == 1
        assert result.values.tobytes() == serial_result.values.tobytes()
        assert any("injected scatter fault" in m for m in msgs)
        assert_no_leaks()

    def test_faults_are_one_shot_per_declaration(self):
        plan = FaultPlan().kill_worker(group_start=0, worker=0)
        assert plan.take_worker_faults(0, 1) == []  # other worker untouched
        specs = plan.take_worker_faults(0, 0)
        assert [s["kind"] for s in specs] == ["kill"]
        assert plan.take_worker_faults(0, 0) == []  # consumed: retry is clean

    def test_application_exception_is_not_retried(self, series):
        class Exploding:
            pass

        # Existing contract (test_parallel_shm): a worker's app-level
        # exception propagates as itself. Here: it must ALSO not burn
        # retries — only WorkerError is retryable.
        policy = RetryPolicy(limit=3, backoff_s=0.0)
        calls = []

        def attempt():
            calls.append(1)
            raise ValueError("deterministic program bug")

        with pytest.raises(ValueError):
            execute_with_retry(attempt, policy, describe="app bug")
        assert len(calls) == 1


class TestDegradation:
    def test_persistent_fault_degrades_to_serial(
        self, series, program, serial_result
    ):
        plan = FaultPlan().scatter_error(group_start=0, worker=0, times=99)
        result, msgs = run_with_plan(
            series, program, process_config(retry_limit=1), plan
        )
        assert plan.fired["error"] == 2  # initial + 1 retry
        assert result.values.tobytes() == serial_result.values.tobytes()
        assert any("degrading to the serial executor" in m for m in msgs)
        assert_no_leaks()

    def test_fallback_raise_surfaces_worker_error(self, series, program):
        plan = FaultPlan().kill_worker(group_start=0, worker=1, times=99)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with faults.injected(plan):
                with pytest.raises(WorkerError) as exc_info:
                    run(
                        series,
                        program,
                        process_config(retry_limit=1, fallback="raise"),
                    )
        shm.shutdown_pool()
        err = exc_info.value
        assert err.group == 0
        assert err.attempt == 2
        assert err.worker == 1
        assert isinstance(err.__cause__, WorkerError)
        assert_no_leaks()

    def test_only_failed_group_is_retried(self, series, program):
        # The fault targets the second group; the first group must run
        # exactly once (no whole-run restart), and per-group counters must
        # equal the serial per-group counters exactly.
        from repro.engine.runner import run_group

        expected = [
            run_group(g, program, EngineConfig(batch_size=BATCH))[1]
            for g in series.groups(BATCH)
        ]
        spawns_before = shm.POOL_SPAWNS
        plan = FaultPlan().kill_worker(group_start=BATCH, worker=0)
        cfg = process_config()
        observed = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with faults.injected(plan):
                for group in series.groups(BATCH):
                    _, counters = run_group(group, program, cfg)
                    observed.append(counters)
        shm.shutdown_pool()
        assert plan.fired.get("kill") == 1
        assert observed == expected
        assert shm.POOL_SPAWNS - spawns_before == 2
        assert_no_leaks()


class TestWorkerErrorType:
    def test_attributes_and_str(self):
        err = WorkerError("pool broke", worker=3, group=8, attempt=2)
        assert (err.worker, err.group, err.attempt) == (3, 8, 2)
        s = str(err)
        assert "worker 3" in s and "group 8" in s and "attempt 2" in s

    def test_pickle_roundtrip(self):
        err = WorkerError("boom", worker=1, group=4, attempt=3)
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, WorkerError)
        assert (clone.worker, clone.group, clone.attempt) == (1, 4, 3)
        assert str(clone) == str(err)

    def test_injected_fault_is_retryable_worker_error(self):
        assert issubclass(InjectedFault, WorkerError)
        clone = pickle.loads(pickle.dumps(InjectedFault("x", worker=0)))
        assert isinstance(clone, InjectedFault)


class TestRetryPolicy:
    def test_backoff_doubles(self):
        policy = RetryPolicy(limit=3, backoff_s=0.5)
        assert [policy.backoff_for(i) for i in range(3)] == [0.5, 1.0, 2.0]

    def test_validation(self):
        with pytest.raises(EngineError):
            RetryPolicy(limit=-1)
        with pytest.raises(EngineError):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(EngineError):
            RetryPolicy(fallback="explode")

    def test_from_config(self):
        cfg = EngineConfig(retry_limit=5, retry_backoff_s=0.25, fallback="raise")
        policy = RetryPolicy.from_config(cfg)
        assert (policy.limit, policy.backoff_s, policy.fallback) == (
            5, 0.25, "raise",
        )

    def test_sleeps_follow_exponential_backoff(self):
        sleeps = []
        attempts = []

        def attempt():
            attempts.append(1)
            raise WorkerError("down")

        with warnings.catch_warnings(), pytest.raises(WorkerError):
            warnings.simplefilter("ignore")
            execute_with_retry(
                attempt,
                RetryPolicy(limit=3, backoff_s=0.5, fallback="raise"),
                describe="t",
                sleep=sleeps.append,
            )
        assert len(attempts) == 4  # initial + 3 retries
        assert sleeps == [0.5, 1.0, 2.0]

    def test_config_validation_of_new_fields(self):
        with pytest.raises(EngineError):
            EngineConfig(worker_timeout_s=0)
        with pytest.raises(EngineError):
            EngineConfig(retry_limit=-2)
        with pytest.raises(EngineError):
            EngineConfig(retry_backoff_s=-1)
        with pytest.raises(EngineError):
            EngineConfig(fallback="maybe")


class TestCheckpointResume:
    def test_roundtrip_and_resume(self, series, program, serial_result, tmp_path):
        cfg = EngineConfig(batch_size=BATCH)
        first = run(series, program, cfg, checkpoint_dir=tmp_path / "ck")
        assert first.resumed_groups == 0
        assert first.values.tobytes() == serial_result.values.tobytes()
        second = run(series, program, cfg, checkpoint_dir=tmp_path / "ck")
        assert second.resumed_groups == SNAPSHOTS // BATCH
        assert second.values.tobytes() == serial_result.values.tobytes()
        assert second.counters == serial_result.counters

    def test_corrupt_checkpoint_recomputes_with_warning(
        self, series, program, serial_result, tmp_path
    ):
        cfg = EngineConfig(batch_size=BATCH)
        ckdir = tmp_path / "ck"
        run(series, program, cfg, checkpoint_dir=ckdir)
        victim = sorted(ckdir.glob("group_*.chronosv"))[0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(series, program, cfg, checkpoint_dir=ckdir)
        assert result.resumed_groups == SNAPSHOTS // BATCH - 1
        assert result.values.tobytes() == serial_result.values.tobytes()
        assert any("recomputing the group" in str(w.message) for w in caught)

    def test_signature_mismatch_ignores_checkpoint(
        self, series, program, tmp_path
    ):
        ckdir = tmp_path / "ck"
        run(series, program, EngineConfig(batch_size=BATCH), checkpoint_dir=ckdir)
        other = make_program("wcc")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(
                series, other, EngineConfig(batch_size=BATCH),
                checkpoint_dir=ckdir,
            )
        assert result.resumed_groups == 0
        assert any("different" in str(w.message) for w in caught)

    def test_interrupted_run_resumes_without_recompute(
        self, program, serial_result, tmp_path
    ):
        # A subprocess dies hard (os._exit, like SIGKILL) right after
        # checkpointing its first group; the resumed run must restore that
        # group from disk and only compute the remainder.
        ckdir = tmp_path / "ck"
        script = textwrap.dedent(
            f"""
            from repro.algorithms import make_program
            from repro.engine import EngineConfig, run
            from repro.resilience import faults
            from repro.resilience.faults import FaultPlan
            from tests.conftest import random_temporal_graph

            graph = random_temporal_graph(
                seed={SEED}, num_vertices=40, num_events=500
            )
            series = graph.series(graph.evenly_spaced_times({SNAPSHOTS}))
            plan = FaultPlan().abort_run_after(group_start=0)
            with faults.injected(plan):
                run(
                    series,
                    make_program("pagerank"),
                    EngineConfig(batch_size={BATCH}),
                    checkpoint_dir={str(ckdir)!r},
                )
            raise SystemExit("abort fault did not fire")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 137, proc.stderr
        # One group was persisted before the crash; resume restores it.
        graph = random_temporal_graph(seed=SEED, num_vertices=40, num_events=500)
        series = graph.series(graph.evenly_spaced_times(SNAPSHOTS))
        resumed = run(
            series, program, EngineConfig(batch_size=BATCH), checkpoint_dir=ckdir
        )
        assert resumed.resumed_groups == 1
        assert resumed.values.tobytes() == serial_result.values.tobytes()
        assert resumed.counters == serial_result.counters

    def test_counters_roundtrip_through_manifest(self, series, program, tmp_path):
        ck = RunCheckpoint(
            tmp_path / "ck", series, program, EngineConfig(batch_size=BATCH)
        )
        group = next(iter(series.groups(BATCH)))
        values = np.random.default_rng(0).random(
            (series.num_vertices, group.stop - group.start)
        )
        counters = EngineCounters(iterations=7, edge_array_accesses=123)
        ck.store(group, values, counters)
        reloaded = RunCheckpoint(
            tmp_path / "ck", series, program, EngineConfig(batch_size=BATCH)
        )
        got = reloaded.load(group)
        assert got is not None
        got_values, got_counters = got
        assert got_values.tobytes() == values.tobytes()
        assert got_counters == counters

    def test_checkpointed_process_run_with_fault(
        self, series, program, serial_result, tmp_path
    ):
        # Everything at once: process executor + injected kill + checkpoint.
        plan = FaultPlan().kill_worker(group_start=0, worker=0)
        cfg = process_config()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with faults.injected(plan):
                result = run(
                    series, program, cfg, checkpoint_dir=tmp_path / "ck"
                )
        shm.shutdown_pool()
        assert result.values.tobytes() == serial_result.values.tobytes()
        assert_no_leaks()


class TestCheckpointAtomicity:
    """The write→fsync→rename discipline (repro.storage.atomic)."""

    def test_truncated_group_file_is_skipped_not_fatal(
        self, series, program, serial_result, tmp_path
    ):
        # A group file cut short (e.g. the disk filled mid-write on a
        # non-atomic writer) must degrade to recomputation, never crash.
        cfg = EngineConfig(batch_size=BATCH)
        ckdir = tmp_path / "ck"
        run(series, program, cfg, checkpoint_dir=ckdir)
        victim = sorted(ckdir.glob("group_*.chronosv"))[0]
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 3])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(series, program, cfg, checkpoint_dir=ckdir)
        assert result.resumed_groups == SNAPSHOTS // BATCH - 1
        assert result.values.tobytes() == serial_result.values.tobytes()
        assert any("recomputing the group" in str(w.message) for w in caught)

    def test_truncated_manifest_is_skipped_not_fatal(
        self, series, program, serial_result, tmp_path
    ):
        cfg = EngineConfig(batch_size=BATCH)
        ckdir = tmp_path / "ck"
        run(series, program, cfg, checkpoint_dir=ckdir)
        manifest = ckdir / "run_checkpoint.json"
        manifest.write_bytes(manifest.read_bytes()[:-20])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(series, program, cfg, checkpoint_dir=ckdir)
        assert result.resumed_groups == 0
        assert result.values.tobytes() == serial_result.values.tobytes()
        assert any("starting the run" in str(w.message) for w in caught)

    def test_stale_tmp_siblings_are_removed_on_open(
        self, series, program, tmp_path
    ):
        ckdir = tmp_path / "ck"
        cfg = EngineConfig(batch_size=BATCH)
        run(series, program, cfg, checkpoint_dir=ckdir)
        # Debris of a crash mid-publication: an unpublished temp sibling.
        debris = ckdir / "group_0000_0002.chronosv.tmp-group"
        debris.write_bytes(b"half a checkpoint")
        run(series, program, cfg, checkpoint_dir=ckdir)
        assert not debris.exists()

    def test_no_tmp_siblings_survive_a_checkpointed_run(
        self, series, program, tmp_path
    ):
        ckdir = tmp_path / "ck"
        run(
            series, program, EngineConfig(batch_size=BATCH),
            checkpoint_dir=ckdir,
        )
        assert not [p for p in ckdir.iterdir() if ".tmp-" in p.name]
        assert (ckdir / "run_checkpoint.json").exists()
