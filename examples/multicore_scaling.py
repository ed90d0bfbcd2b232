"""Simulated multi-core scaling: Chronos vs snapshot-parallelism vs Grace.

Reproduces the character of the paper's Figure 7 on one small graph:
partition-parallel LABS ("Chronos"), lock-free snapshot-parallelism
("SP"), and the per-snapshot structure-locality engine ("Grace") across
core counts, with the lock and inter-core-transfer counters that explain
the gap (Tables 4 and 5).

Run:  python examples/multicore_scaling.py
"""

from repro import EngineConfig, HierarchyConfig, PageRank, Simulation, wiki_like
from repro.layout import LayoutKind
from repro.parallel import run_multicore
from repro.partition import partition_series

HC = HierarchyConfig.experiment_scale()


def config(batch, layout):
    return EngineConfig(
        mode="push", batch_size=batch, layout=layout, max_iterations=3
    )


def machine(cores, core_of=None):
    return Simulation(hierarchy=HC, num_cores=cores, core_of=core_of)


def main() -> None:
    graph = wiki_like(num_vertices=1200, num_activities=10_000, seed=9)
    series = graph.series(graph.evenly_spaced_times(16))
    prog = PageRank(iterations=3)
    print(
        f"wiki-like: {series.num_vertices} vertices, {series.num_edges} "
        f"edges, 16 snapshots, PageRank push mode\n"
    )

    systems = {
        "Chronos": lambda c: run_multicore(
            series, prog, config(None, LayoutKind.TIME_LOCALITY),
            machine(c, partition_series(series, c)),
        ),
        "SP": lambda c: run_multicore(
            series, prog, config(None, LayoutKind.TIME_LOCALITY), machine(c),
            strategy="snapshot",
        ),
        "Grace": lambda c: run_multicore(
            series, prog, config(1, LayoutKind.STRUCTURE_LOCALITY),
            machine(c, partition_series(series, c)),
        ),
    }

    print(f"{'system':>8} {'cores':>5} {'sim time':>10} {'locks':>8} "
          f"{'spin cyc':>10} {'intercore':>10}")
    for name, runner in systems.items():
        for cores in (1, 2, 4, 8):
            res = runner(cores)
            print(
                f"{name:>8} {cores:5d} {res.sim_seconds:9.4f}s "
                f"{res.counters.locks_acquired:8d} "
                f"{res.counters.spinlock_cycles:10d} "
                f"{res.memory.intercore_transfers if res.memory else 0:10d}"
            )
        print()
    print(
        "Chronos batches one lock and one accumulator write across all "
        "snapshots of an\nedge, so partition-parallelism stays ahead of "
        "lock-free snapshot-parallelism."
    )


if __name__ == "__main__":
    main()
