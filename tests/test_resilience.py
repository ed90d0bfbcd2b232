"""Fault-tolerant execution: resume from the result cache under injected faults.

Pins the contract:

- ``EngineConfig(reuse="cache", cache_dir=DIR)`` persists each computed
  group as it completes, and a rerun serves every persisted group without
  recomputing it, under the serial and the threaded executor alike;
- a run hard-killed mid-series (``FaultPlan.abort_run_after``) resumes from
  what it persisted, bitwise identical to an uninterrupted run in values
  and counters;
- a persisted group is served only to the same computation (program,
  graph content, config): anything else recomputes;
- damaged entries are skipped, never served, and stale temp siblings are
  swept when the directory is opened.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.algorithms import make_program
from repro.cache import reset_process_caches
from repro.engine import EngineConfig, run
from tests.conftest import random_temporal_graph

SEED = 77
SNAPSHOTS = 6
BATCH = 3  # -> groups starting at snapshots 0 and 3
GROUPS = SNAPSHOTS // BATCH
REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test starts (and leaves) with no process-wide cache tier, so a
    rerun in this process reads the disk tier like a restarted one."""
    reset_process_caches()
    yield
    reset_process_caches()


def _graph(seed=SEED):
    return random_temporal_graph(seed=seed, num_vertices=40, num_events=500)


@pytest.fixture(scope="module")
def series():
    graph = _graph()
    return graph.series(graph.evenly_spaced_times(SNAPSHOTS))


@pytest.fixture(scope="module")
def program():
    return make_program("pagerank")


@pytest.fixture(scope="module")
def serial_result(series, program):
    return run(series, program, EngineConfig(batch_size=BATCH))


def _cfg(cache_dir, **kw):
    return EngineConfig(
        batch_size=BATCH, reuse="cache", cache_dir=str(cache_dir), **kw
    )


def _rerun(series, program, config):
    """Run again as a restarted process would: disk tier only."""
    reset_process_caches()
    return run(series, program, config)


def run_aborted_after_first_group(cache_dir, extra=""):
    """Run the series in a subprocess that dies hard (``os._exit``, like
    SIGKILL) right after persisting its first group."""
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
        config = EngineConfig(
            batch_size={BATCH}, reuse="cache", cache_dir={str(cache_dir)!r},
            {extra}
        )
        with faults.injected(plan):
            run(series, make_program("pagerank"), config)
        raise SystemExit("abort fault did not fire")
        """
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
    )


class TestCheckpointResume:
    def test_roundtrip_and_resume(self, series, program, serial_result, tmp_path):
        cfg = _cfg(tmp_path / "ck")
        first = run(series, program, cfg)
        assert first.cached_groups == 0
        assert first.values.tobytes() == serial_result.values.tobytes()
        second = _rerun(series, program, cfg)
        assert second.cached_groups == GROUPS
        assert second.values.tobytes() == serial_result.values.tobytes()
        assert second.counters == serial_result.counters

    def test_signature_mismatch_ignores_checkpoint(
        self, series, program, tmp_path
    ):
        ckdir = tmp_path / "ck"
        run(series, program, _cfg(ckdir))
        other = make_program("wcc")
        result = _rerun(series, other, _cfg(ckdir))
        assert result.cached_groups == 0
        fresh = run(series, other, EngineConfig(batch_size=BATCH))
        assert result.values.tobytes() == fresh.values.tobytes()

    def test_another_graph_is_never_served(self, series, program, tmp_path):
        # Same V and snapshot count, different edges.
        ckdir = tmp_path / "ck"
        run(series, program, _cfg(ckdir))
        graph = _graph(seed=SEED + 1)
        other = graph.series(graph.evenly_spaced_times(SNAPSHOTS))
        assert other.num_vertices == series.num_vertices
        result = _rerun(other, program, _cfg(ckdir))
        fresh = run(other, program, EngineConfig(batch_size=BATCH))
        assert result.cached_groups == 0
        assert result.values.tobytes() == fresh.values.tobytes()

    def test_interrupted_run_resumes_without_recompute(
        self, program, serial_result, tmp_path
    ):
        # The resumed run must serve the persisted group from disk and
        # only compute the remainder.
        ckdir = tmp_path / "ck"
        proc = run_aborted_after_first_group(ckdir)
        assert proc.returncode == 137, proc.stderr
        graph = _graph()
        series = graph.series(graph.evenly_spaced_times(SNAPSHOTS))
        resumed = run(series, program, _cfg(ckdir))
        assert resumed.cached_groups == 1
        assert resumed.values.tobytes() == serial_result.values.tobytes()
        assert resumed.counters == serial_result.counters

    def test_checkpointed_process_run_with_fault(
        self, series, program, serial_result, tmp_path
    ):
        # Everything at once: the threaded executor, a hard kill after the
        # first group, and a resume on the threaded executor.
        ckdir = tmp_path / "ck"
        proc = run_aborted_after_first_group(
            ckdir, "executor='process', workers=2"
        )
        assert proc.returncode == 137, proc.stderr
        resumed = run(
            series, program, _cfg(ckdir, executor="process", workers=2)
        )
        assert resumed.cached_groups == 1
        assert resumed.values.tobytes() == serial_result.values.tobytes()
        assert resumed.counters == serial_result.counters


class TestCheckpointAtomicity:
    """The write→fsync→rename discipline (repro.storage.atomic)."""

    def test_truncated_group_file_is_skipped_not_fatal(
        self, series, program, serial_result, tmp_path
    ):
        # A value file cut short (e.g. the disk filled mid-write on a
        # non-atomic writer) must degrade to recomputation, never crash.
        ckdir = tmp_path / "ck"
        run(series, program, _cfg(ckdir))
        victim = sorted(ckdir.glob("entry_*.npy"))[0]
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 3])
        result = _rerun(series, program, _cfg(ckdir))
        assert result.cached_groups == GROUPS - 1
        assert result.values.tobytes() == serial_result.values.tobytes()
        assert result.counters == serial_result.counters

    def test_truncated_manifest_is_skipped_not_fatal(
        self, series, program, serial_result, tmp_path
    ):
        # The JSON sidecar carries an entry's CRC and counters.
        ckdir = tmp_path / "ck"
        run(series, program, _cfg(ckdir))
        sidecar = sorted(ckdir.glob("entry_*.json"))[0]
        sidecar.write_bytes(sidecar.read_bytes()[:-20])
        result = _rerun(series, program, _cfg(ckdir))
        assert result.cached_groups == GROUPS - 1
        assert result.values.tobytes() == serial_result.values.tobytes()
        assert result.counters == serial_result.counters

    def test_stale_tmp_siblings_are_removed_on_open(
        self, series, program, tmp_path
    ):
        ckdir = tmp_path / "ck"
        run(series, program, _cfg(ckdir))
        # Debris of a crash mid-publication: an unpublished temp sibling.
        debris = ckdir / "entry_0123.npy.tmp-npy"
        debris.write_bytes(b"half an entry")
        _rerun(series, program, _cfg(ckdir))
        assert not debris.exists()

    def test_no_tmp_siblings_survive_a_checkpointed_run(
        self, series, program, tmp_path
    ):
        ckdir = tmp_path / "ck"
        run(series, program, _cfg(ckdir))
        assert not [p for p in ckdir.iterdir() if ".tmp-" in p.name]
        assert len(list(ckdir.glob("entry_*.json"))) == GROUPS
        assert len(list(ckdir.glob("entry_*.npy"))) == GROUPS

