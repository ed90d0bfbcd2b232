"""Fault-tolerant execution: checkpoint/resume under injected faults.

Pins the contract:

- ``run(..., checkpoint_dir=...)`` persists each completed group and a rerun
  resumes at the first incomplete group without recomputation, under the
  serial and the threaded executor alike;
- a run hard-killed mid-series (``FaultPlan.abort_run_after``) resumes from
  what it checkpointed, bitwise identical to an uninterrupted run;
- damaged or foreign checkpoints are skipped with a warning, never served.
"""

import os
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
from repro.resilience.checkpoint import RunCheckpoint
from tests.conftest import random_temporal_graph

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


def run_aborted_after_first_group(ckdir, config_source):
    """Run the series in a subprocess that dies hard (``os._exit``, like
    SIGKILL) right after checkpointing its first group."""
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
                {config_source},
                checkpoint_dir={str(ckdir)!r},
            )
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
        # The resumed run must restore the checkpointed group from disk and
        # only compute the remainder.
        ckdir = tmp_path / "ck"
        proc = run_aborted_after_first_group(
            ckdir, f"EngineConfig(batch_size={BATCH})"
        )
        assert proc.returncode == 137, proc.stderr
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
        # Everything at once: the threaded executor, a hard kill after the
        # first group, and a resume on the threaded executor.
        ckdir = tmp_path / "ck"
        threaded = f"EngineConfig(batch_size={BATCH}, executor='process', workers=2)"
        proc = run_aborted_after_first_group(ckdir, threaded)
        assert proc.returncode == 137, proc.stderr
        resumed = run(
            series,
            program,
            EngineConfig(batch_size=BATCH, executor="process", workers=2),
            checkpoint_dir=ckdir,
        )
        assert resumed.resumed_groups == 1
        assert resumed.values.tobytes() == serial_result.values.tobytes()
        assert resumed.counters == serial_result.counters


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
