"""End to end at ``--smoke`` scale: the driver's contract, the result
schema, and that one seed reproduces inputs and every exact metric."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sysbench.catalogue import (
    END_TO_END,
    FAILED_OPS_SHARE,
    NAME_PATTERN,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    is_exact,
)

SYSTEM = Path(__file__).resolve().parents[1]
REPO = SYSTEM.parents[1]
RUN = str(SYSTEM / "run.py")


def run(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, RUN, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def driver_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_driver_contract(workload, tmp_path):
    out = tmp_path / "result.json"
    proc = run("--workload", workload, "--seed", "3", "--seconds", "30",
               "--trace", "0", "--smoke", "--out", str(out))
    line = driver_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    # The contract: every listed metric on every workload, none of them 0.
    assert set(line["metrics"]) == {m.name for m in END_TO_END}
    for metric in END_TO_END:
        entry = line["metrics"][metric.name]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric.unit
        assert entry["value"] > 0

    (result,) = json.loads(out.read_text())["runs"]
    assert result["smoke"] is True and result["seed"] == 3
    assert {"nproc", "cpu_model", "python", "numpy", "git_sha"} <= set(result["host"])
    assert result["sizes"] and result["samples"]
    assert result[FAILED_OPS_SHARE]["value"] == 0
    # The run itself reports only what the workload measures, each by name
    # with its unit; what it does not measure is padded in the driver line.
    measured = {m.name: m for m in END_TO_END if workload in m.workloads}
    assert set(result["end_to_end"]) == set(measured)
    for name, metric in measured.items():
        assert line["metrics"][name]["value"] == result["end_to_end"][name]["value"]
        assert any(
            row.startswith(name) and metric.unit in row
            for row in proc.stdout.splitlines()
        )
    pads = {"s": "query_p50_s", "1/s": "queries_per_s"}
    for metric in END_TO_END:
        if metric.name not in measured and metric.unit in pads:
            assert line["metrics"][metric.name] == line["metrics"][pads[metric.unit]]
    timings = [
        e for name, e in result["end_to_end"].items()
        if e["unit"] == "s" and name != "setup_s"
    ]
    assert timings and all(e["n"] >= 1 for e in timings)


def test_pool_workers_count_towards_peak_rss(tmp_path):
    """``RUSAGE_CHILDREN`` is blind to live workers; ``/proc`` is not."""
    from sysbench import env
    from sysbench.core import Context
    from sysbench.spans import Recorder
    from sysbench.workloads.analytics import ProcessAnalytics

    ctx = Context("process-analytics", 3, RUN_SECONDS, traced=False,
                  smoke=True, tmp=tmp_path)
    workload = ProcessAnalytics(ctx)
    if workload.workers < 2:
        pytest.skip("one CPU: the process executor degrades to serial")
    workload.set_up(Recorder())
    try:
        pids = workload.worker_pids()
        assert len(pids) == workload.workers
        assert env.peak_rss_mb(pids) > env.peak_rss_mb() + 5.0 * len(pids)
    finally:
        workload.tear_down()
    assert workload.shm_leaks == 0


def test_no_process_outlives_a_run():
    """The pool workers and the shared-memory resource tracker have ended by
    the time the run's own process has: nothing is left in its session."""
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "process-analytics", "--smoke"],
        cwd=REPO, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    _, stderr = proc.communicate(timeout=170)
    assert proc.returncode == 0, stderr
    left = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        state, _, _, session = stat.rsplit(")", 1)[1].split()[:4]
        if int(session) == proc.pid and state != "Z":
            left.append(entry)
    assert left == []


@pytest.mark.parametrize("workload", ["hot-analytics", "live-ingest"])
def test_traced_run_and_seed_reproducibility(workload, tmp_path):
    lines = []
    for attempt in range(2):
        spans = tmp_path / f"spans{attempt}.jsonl"
        proc = run("--workload", workload, "--seed", "5", "--traced", "--smoke",
                   "--spans", str(spans))
        lines.append(driver_line(proc))
    first, second = (line["metrics"] for line in lines)
    assert set(first) == {m.name for m in PER_LAYER}
    assert all(NAME_PATTERN.match(name) for name in first)
    for metric in PER_LAYER:
        assert first[metric.name]["unit"] == metric.unit
        if is_exact(metric):
            assert first[metric.name] == second[metric.name], metric.name
    assert first["bench.span_coverage"]["value"] >= 0.98
    assert first["obs.events"]["value"] > 0
    assert first["storage.bytes_read"]["value"] == 0 or workload == "live-ingest"
    if workload == "live-ingest":
        assert first["cache.prefix_hit_ratio"]["value"] == 1.0

    records = [json.loads(row) for row in spans.read_text().splitlines()]
    assert {"id", "op", "parent", "name", "start", "end", "phase"} <= set(records[0])
    assert {r["phase"] for r in records} == {"setup", "traced", "probes"}


def test_one_seed_gives_byte_identical_inputs():
    from repro.streaming.wal import pack_record
    from sysbench.core import Context
    from sysbench.spans import Recorder
    from sysbench.workloads.live_ingest import LiveIngest

    def stream_bytes(seed):
        ctx = Context("live-ingest", seed, RUN_SECONDS, traced=False, smoke=True, tmp=None)
        workload = LiveIngest(ctx)
        workload.set_up(Recorder())
        return b"".join(pack_record(a) for a in workload.stream), workload.times

    assert stream_bytes(7) == stream_bytes(7)
    assert stream_bytes(7)[0] != stream_bytes(8)[0]


def test_refuses_to_run_without_the_program(tmp_path):
    """The driver also runs the command where only the benchmark exists."""
    import shutil

    bare = tmp_path / "checkout"
    shutil.copytree(SYSTEM, bare / "benchmarks" / "system",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/system/run.py", "--workload", "store-scan",
         "--seed", "1", "--seconds", "30", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
