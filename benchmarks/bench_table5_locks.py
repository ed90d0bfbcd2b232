"""Table 5: spinlock time, PageRank on Wiki, push mode.

Paper: Chronos spends an order of magnitude less time in spinlocks than
Grace (e.g. 16 cores: 4.02 s vs 96.73 s) because LABS takes one lock per
edge per batch instead of one per edge per snapshot; contention grows with
core count in both systems.

Reproduction: the lock table's base + contention cycles converted to
simulated seconds, one PageRank iteration, 2-16 cores.
"""

from dataclasses import replace

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

CORES = (2, 4, 8, 16)

PAPER = {"chronos": (1.32, 1.34, 1.85, 4.02), "grace": (28.85, 34.25, 47.54, 96.73)}


def measure():
    series = small_series("wiki", "pagerank", snapshots=16)
    rows = []
    for c in CORES:
        sim = replace(SIM, num_cores=c, core_of=partition_series(series, c))
        cfg_c = chronos_config("push", max_iterations=1)
        cfg_g = baseline_config("push", max_iterations=1)
        chronos = run_multicore(series, make_app("pagerank"), cfg_c, sim)
        grace = run_multicore(series, make_app("pagerank"), cfg_g, sim)
        cm = sim.cost_model
        rows.append(
            (
                c,
                f"{cm.seconds(chronos.counters.spinlock_cycles) * 1e3:.3f} ms",
                f"{cm.seconds(grace.counters.spinlock_cycles) * 1e3:.3f} ms",
                chronos.counters.locks_acquired,
                grace.counters.locks_acquired,
            )
        )
    return rows


def test_table5(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report_table(
        "Table 5 - spinlock time, PageRank on wiki, push mode (1 iteration)",
        ["cores", "Chronos spinlock", "Grace spinlock",
         "Chronos locks", "Grace locks"],
        rows,
        notes=(
            f"Paper (seconds): Chronos {PAPER['chronos']}, Grace "
            f"{PAPER['grace']} at 2/4/8/16 cores — an order-of-magnitude gap."
        ),
    )
    for row in rows:
        assert row[4] > row[3], "Grace must take more locks than Chronos"
    # Lock counts differ by the batching factor (~#snapshots).
    assert rows[0][4] >= 8 * rows[0][3]
