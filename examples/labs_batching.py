"""The LABS effect, twice over: wall clock and simulated memory system.

Runs the same temporal PageRank with batch size 1 (the snapshot-by-
snapshot baseline) and with LABS batches, showing

1. real Python wall-clock time falling as the batch grows (one edge-array
   pass serves the whole batch), and
2. simulated cache/TLB miss counts from the memory-hierarchy simulator —
   the reproduction of the paper's Table 2 locality argument.

Run:  python examples/labs_batching.py [--executor process --workers 4]

With ``--executor process`` the wall-clock section also times the same
runs on a pool of worker threads, each folding its own destination shard
of every LABS group (``repro.parallel.shm``) — bitwise-identical results,
and a speedup on hosts with enough free cores.
"""

import argparse
import time

from repro import (
    EngineConfig,
    HierarchyConfig,
    PageRank,
    Simulation,
    run,
    simulate,
    wiki_like,
)
from repro.layout import LayoutKind


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--executor", choices=["serial", "process"], default="serial"
    )
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()
    graph = wiki_like(num_vertices=2000, num_activities=25_000, seed=3)
    series = graph.series(graph.evenly_spaced_times(32))
    print(
        f"wiki-like graph: {series.num_vertices} vertices, "
        f"{series.num_edges} distinct edges, 32 snapshots\n"
    )

    print("Wall-clock (vectorised engine, real time):")
    base_wall = None
    for batch in (1, 4, 8, 32):
        layout = (
            LayoutKind.STRUCTURE_LOCALITY
            if batch == 1
            else LayoutKind.TIME_LOCALITY
        )
        cfg = EngineConfig(mode="push", batch_size=batch, layout=layout)
        t0 = time.perf_counter()
        run(series, PageRank(iterations=5), cfg)
        wall = time.perf_counter() - t0
        if base_wall is None:
            base_wall = wall
        print(
            f"    batch {batch:3d}: {wall:6.3f}s  "
            f"(speedup {base_wall / wall:4.1f}x)"
        )

    if args.executor == "process":
        print(
            f"\nWall-clock, thread executor ({args.workers} worker threads, "
            "one destination range each):"
        )
        for batch in (1, 4, 8, 32):
            layout = (
                LayoutKind.STRUCTURE_LOCALITY
                if batch == 1
                else LayoutKind.TIME_LOCALITY
            )
            cfg = EngineConfig(
                mode="push",
                batch_size=batch,
                layout=layout,
                executor="process",
                workers=args.workers,
            )
            t0 = time.perf_counter()
            run(series, PageRank(iterations=5), cfg)
            wall = time.perf_counter() - t0
            print(f"    batch {batch:3d}: {wall:6.3f}s")
        print(
            "    (values are bitwise identical to the serial runs above; "
            "speedup needs free cores)"
        )

    print("\nSimulated memory system (1 PageRank iteration, traced):")
    sim = Simulation(hierarchy=HierarchyConfig.experiment_scale())
    print(f"  {'batch':>5} {'L1d miss':>10} {'LLC miss':>10} {'dTLB miss':>10}")
    for batch in (1, 4, 8, 32):
        layout = (
            LayoutKind.STRUCTURE_LOCALITY if batch == 1 else LayoutKind.TIME_LOCALITY
        )
        cfg = EngineConfig(
            mode="push", batch_size=batch, layout=layout, max_iterations=1
        )
        res = simulate(series, PageRank(iterations=1), cfg, sim)
        m = res.memory
        print(
            f"  {batch:5d} {m.l1d_misses:10d} {m.llc_misses:10d} "
            f"{m.dtlb_misses:10d}"
        )
    print(
        "\nLarger batches touch each vertex's snapshot-contiguous values "
        "once per edge\nenumeration — the locality-aware batch scheduling "
        "of the paper's Section 3.3."
    )


if __name__ == "__main__":
    main()
