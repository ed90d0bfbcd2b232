"""Table 4: inter-core communications, PageRank on Wiki, push and pull.

Paper: Chronos performs 1-2 orders of magnitude fewer inter-core
communications than Grace (e.g. push, 8 cores: 105 M vs 4244 M) because
remote reads/writes are batched across snapshots — consecutive snapshot
values of a vertex share cache lines.

Reproduction: the line-ownership directory's transfer counter over one
PageRank iteration at 2/4/8 simulated cores.
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
)
from repro.parallel import run_multicore
from repro.partition import partition_series

CORES = (2, 4, 8)

PAPER = {
    "push": {"chronos": (23.1, 58.6, 105.2), "grace": (977.6, 2471.6, 4244.2)},
    "pull": {"chronos": (31.0, 55.8, 71.5), "grace": (1740.4, 3047.9, 3923.8)},
}


def measure(mode):
    series = small_series("wiki", "pagerank", snapshots=16)
    rows = []
    for c in CORES:
        sim = replace(SIM, num_cores=c, core_of=partition_series(series, c))
        chronos = run_multicore(
            series, make_app("pagerank"), chronos_config(mode, max_iterations=1), sim
        )
        grace = run_multicore(
            series, make_app("pagerank"), baseline_config(mode, max_iterations=1), sim
        )
        rows.append(
            (
                c,
                chronos.memory.intercore_transfers,
                grace.memory.intercore_transfers,
            )
        )
    return rows


@pytest.mark.parametrize("mode", ["push", "pull"])
def test_table4(benchmark, mode):
    rows = benchmark.pedantic(lambda: measure(mode), rounds=1, iterations=1)
    paper = PAPER[mode]
    report_table(
        f"Table 4 - inter-core communications, PageRank on wiki, {mode} mode "
        "(1 iteration)",
        ["cores", "Chronos transfers", "Grace transfers"],
        rows,
        notes=(
            f"Paper ({mode}, millions): Chronos {paper['chronos']}, "
            f"Grace {paper['grace']} at 2/4/8 cores."
        ),
    )
    for c, chronos_t, grace_t in rows:
        assert chronos_t < grace_t, (
            f"Chronos must communicate less than Grace at {c} cores"
        )
