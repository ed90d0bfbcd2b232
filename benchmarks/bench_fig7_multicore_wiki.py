"""Figure 7: multi-core performance on the Wiki graph.

Paper: nine panels (PageRank/WCC/SSSP x push/pull/stream) plotting
speedup over the single-thread baseline for Chronos
(partition-parallelism + LABS), SP (snapshot-parallelism), and
Grace (push/pull) or X-Stream (stream), at 1-16 cores. Expected shape:
Chronos on top at every core count, SP second, the per-snapshot static
engines last; Chronos's advantage comes from batched locks, batched remote
accesses, and the LABS locality.

Reproduction: simulated multi-core (16 snapshots, batch 16, iteration cap
6, Metis-style partitions) at 1/4/16 cores.
"""

from dataclasses import replace

import pytest

from repro.bench import report_table
from repro.bench.harness import (
    SIM,
    baseline_config,
    chronos_config,
    make_app,
    small_series,
    sweep_cap,
)
from repro.parallel import run_multicore
from repro.partition import partition_series

CORES = (1, 4, 16)
APPS = ["pagerank", "wcc", "sssp"]
MODES = ["push", "pull", "stream"]


def comparator_name(mode):
    return "X-Stream" if mode == "stream" else "Grace"


def panel(graph_name, app, mode, cores=CORES):
    series = small_series(graph_name, app, snapshots=16)
    cap = sweep_cap(app)
    prog = make_app(app)
    baseline = run_multicore(
        series,
        prog,
        baseline_config(mode, max_iterations=cap),
        SIM,
    )
    base_s = baseline.sim_seconds

    parts = {c: partition_series(series, c) for c in cores if c > 1}
    rows = []
    for c in cores:
        sim = replace(SIM, num_cores=c, core_of=parts.get(c))
        chronos = run_multicore(
            series, prog, chronos_config(mode, max_iterations=cap), sim
        )
        sp = run_multicore(
            series,
            prog,
            chronos_config(mode, max_iterations=cap),
            replace(SIM, num_cores=c),
            strategy="snapshot",
        )
        grace = run_multicore(
            series, prog, baseline_config(mode, max_iterations=cap), sim
        )
        rows.append(
            (
                c,
                round(base_s / chronos.sim_seconds, 2),
                round(base_s / sp.sim_seconds, 2),
                round(base_s / grace.sim_seconds, 2),
            )
        )
    return rows


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("mode", MODES)
def test_fig7_panel(benchmark, app, mode):
    rows = benchmark.pedantic(
        lambda: panel("wiki", app, mode), rounds=1, iterations=1
    )
    report_table(
        f"Fig 7 - multi-core speedup, {app} on wiki, {mode} mode "
        "(vs 1-core batch-1 baseline)",
        ["cores", "Chronos", "SP", comparator_name(mode)],
        rows,
        notes="Paper shape: Chronos >= SP >= Grace/X-Stream; grows with cores.",
    )
    last = rows[-1]
    assert last[1] > rows[0][1], "Chronos must scale with cores"
    assert last[1] >= last[3], "Chronos must beat the static comparator"
