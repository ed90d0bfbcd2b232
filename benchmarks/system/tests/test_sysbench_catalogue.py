"""The names the benchmark fixes, and ``BENCHMARK.json``'s agreement."""

import json
from pathlib import Path

from sysbench.catalogue import (
    END_TO_END,
    NAME_PATTERN,
    PER_LAYER,
    WORKLOADS,
    benchmark_json,
)

REPO = Path(__file__).resolve().parents[3]


def test_benchmark_json_is_the_catalogue():
    on_disk = json.loads((REPO / "BENCHMARK.json").read_text())
    assert on_disk == benchmark_json()


def test_names_are_unique_and_well_formed():
    names = (
        [w.name for w in WORKLOADS]
        + [m.name for m in END_TO_END]
        + [m.name for m in PER_LAYER]
    )
    assert len(names) == len(set(names))
    assert all(NAME_PATTERN.match(n) for n in names)
    assert len(WORKLOADS) == 4 and len(PER_LAYER) == 83


def test_contract_limits():
    spec = benchmark_json()
    listed = [m["name"] for m in spec["end_to_end"]]
    assert listed == [m.name for m in END_TO_END] and len(listed) == 9
    assert 1 <= spec["run_seconds"] <= 60
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # The driver never rejects below the regression bound compare.py uses.
    assert all(m.driver_bound >= m.bound for m in END_TO_END)
    assert len(json.dumps(spec)) < 64 * 1024


def test_every_workload_measures_what_pads_the_rest():
    """``run.driver_line`` pads a metric a workload does not measure with
    its query latency or rate, which must be no looser than the padded."""
    by_name = {m.name: m for m in END_TO_END}
    names = {w.name for w in WORKLOADS}
    for pad in ("query_p50_s", "queries_per_s"):
        assert set(by_name[pad].workloads) == names
    for metric in END_TO_END:
        assert set(metric.workloads) <= names
        pad = {"s": "query_p50_s", "1/s": "queries_per_s"}.get(metric.unit)
        if pad and set(metric.workloads) != names:
            assert by_name[pad].driver_bound <= metric.driver_bound
            assert by_name[pad].better == metric.better
