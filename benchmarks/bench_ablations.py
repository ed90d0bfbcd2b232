"""Ablations of the design choices DESIGN.md calls out.

Not in the paper's tables, but they isolate *why* Chronos wins:

1. the layout x scheduling 2x2 — LABS batching and the time-locality
   layout must be co-designed (Section 3.3's argument);
2. partition quality — Metis-style partitions vs hash partitions under
   partition-parallelism (lock contention and inter-core traffic);
3. cache line size — the LABS gain tracks how many snapshot values share
   a line, the mechanism behind Figure 2.
"""

import dataclasses

import pytest

from repro.bench import report_table
from repro.bench.harness import SIM, make_app, small_series
from repro.engine import EngineConfig, Simulation, simulate
from repro.layout import LayoutKind
from repro.memsim import CacheConfig, HierarchyConfig
from repro.parallel import run_multicore
from repro.partition import hash_partition, partition_series


def test_ablation_layout_vs_scheduling(benchmark):
    """The 2x2: scheduling must match the layout to get the full win."""

    def measure():
        series = small_series("wiki", "pagerank", snapshots=16)
        prog = make_app("pagerank")
        rows = []
        for layout in (LayoutKind.TIME_LOCALITY, LayoutKind.STRUCTURE_LOCALITY):
            for batch in (1, 16):
                cfg = EngineConfig(mode="push", layout=layout, batch_size=batch)
                res = simulate(series, prog, cfg, SIM)
                rows.append(
                    (
                        layout.value,
                        "LABS (batch 16)" if batch == 16 else "per snapshot",
                        round(res.sim_seconds * 1e3, 3),
                        res.memory.l1d_misses,
                    )
                )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report_table(
        "Ablation - layout x scheduling (PageRank on wiki, sim ms)",
        ["layout", "scheduling", "sim time (ms)", "L1d misses"],
        rows,
        notes=(
            "Time-locality + LABS should be fastest; batching on the "
            "structure layout strides across snapshot planes and recovers "
            "only part of the win — the co-design argument of Section 3.3."
        ),
    )
    by_key = {(r[0], r[1]): r[2] for r in rows}
    best = by_key[("time", "LABS (batch 16)")]
    assert best <= min(by_key.values())
    assert best < by_key[("structure", "per snapshot")]


def test_ablation_partition_quality(benchmark):
    """Metis-style partitions vs hash partitions at 8 cores."""

    def measure():
        series = small_series("wiki", "pagerank", snapshots=16)
        prog = make_app("pagerank")
        rows = []
        for name, part in (
            ("multilevel", partition_series(series, 8)),
            ("hash", hash_partition(series.num_vertices, 8)),
        ):
            cfg = EngineConfig(mode="push", batch_size=None, max_iterations=2)
            sim = dataclasses.replace(SIM, num_cores=8, core_of=part)
            res = run_multicore(series, prog, cfg, sim)
            rows.append(
                (
                    name,
                    round(res.sim_seconds * 1e3, 3),
                    res.counters.locks_acquired,
                    res.counters.lock_contention_cycles,
                    res.memory.intercore_transfers,
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report_table(
        "Ablation - partition quality at 8 cores (PageRank on wiki)",
        ["partitioner", "sim time (ms)", "locks", "contention cycles",
         "inter-core transfers"],
        rows,
        notes="Structure-aware partitions cut contention and coherence traffic.",
    )
    multilevel, hashed = rows
    assert multilevel[3] <= hashed[3]
    assert multilevel[4] <= hashed[4]


def test_ablation_line_size(benchmark):
    """LABS's miss reduction tracks snapshot-values-per-cache-line."""

    def measure():
        series = small_series("wiki", "pagerank", snapshots=16)
        prog = make_app("pagerank")
        rows = []
        for line in (32, 64, 128):
            hc = HierarchyConfig(
                l1d=CacheConfig(size_bytes=2048, line_bytes=line, associativity=8),
                llc=CacheConfig(size_bytes=8192, line_bytes=line, associativity=16),
                tlb_entries=8,
                page_bytes=512,
            )
            misses = {}
            for batch in (1, 16):
                layout = (
                    LayoutKind.STRUCTURE_LOCALITY
                    if batch == 1
                    else LayoutKind.TIME_LOCALITY
                )
                cfg = EngineConfig(
                    mode="push", layout=layout, batch_size=batch, max_iterations=1
                )
                res = simulate(series, prog, cfg, Simulation(hierarchy=hc))
                misses[batch] = res.memory.l1d_misses
            rows.append(
                (line, line // 8, misses[1], misses[16],
                 round(misses[1] / misses[16], 2))
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report_table(
        "Ablation - cache line size vs LABS miss reduction "
        "(PageRank on wiki, 1 iteration)",
        ["line bytes", "values/line", "baseline L1d misses",
         "LABS L1d misses", "reduction"],
        rows,
        notes="Wider lines batch more snapshot values per fetch.",
    )
    reductions = [r[4] for r in rows]
    assert reductions[-1] >= reductions[0], (
        "wider lines must not reduce the LABS advantage"
    )
