"""Table 6: distributed performance, Web and Weibo graphs.

Paper: 4 InfiniBand-connected servers, one thread each, push mode,
5 PageRank iterations (WCC/SSSP to convergence); Chronos beats the
snapshot-by-snapshot baseline on every application, with a larger gap on
Weibo (inter:intra partition edge ratio 3:1) than on Web (1:2), and the
gains are smaller than single-machine because network time dilutes them.

Reproduction: the simulated 4-machine cluster (private memory hierarchies,
LogP-style network); Web runs 12 monthly snapshots (batch 12), Weibo 32
snapshots (batch 32).
"""

import pytest

from repro.bench import report_table
from repro.bench.harness import make_app, small_graphs, sweep_cap
from repro.datasets import symmetrized
from repro.distributed import run_distributed
from repro.engine import EngineConfig
from repro.layout import LayoutKind
from repro.memsim import HierarchyConfig
from repro.partition import cross_partition_ratio, partition_series

PAPER = {
    ("web", "pagerank"): (472, 781),
    ("web", "wcc"): (332, 670),
    ("web", "sssp"): (124, 136),
    ("weibo", "pagerank"): (2002, 7318),
    ("weibo", "wcc"): (1250, 6405),
    ("weibo", "sssp"): (48, 518),
}

HC = HierarchyConfig.experiment_scale()


def series_for(graph_name, app):
    graph = small_graphs()[graph_name]
    if app == "wcc":
        graph = symmetrized(graph)
    snapshots = 12 if graph_name == "web" else 32
    return graph.series(graph.evenly_spaced_times(snapshots))


def measure(graph_name):
    rows = []
    ratio = None
    for app in ("pagerank", "wcc", "sssp"):
        series = series_for(graph_name, app)
        prog = make_app(app)
        cap = sweep_cap(app)
        machine_of = partition_series(series, 4)
        if ratio is None:
            ratio = cross_partition_ratio(series, machine_of)
        chronos = run_distributed(
            series,
            prog,
            num_machines=4,
            config=EngineConfig(mode="push", max_iterations=cap),
            machine_of=machine_of,
            hierarchy=HC,
        )
        baseline = run_distributed(
            series,
            prog,
            num_machines=4,
            config=EngineConfig(
                mode="push",
                batch_size=1,
                layout=LayoutKind.STRUCTURE_LOCALITY,
                max_iterations=cap,
            ),
            machine_of=machine_of,
            hierarchy=HC,
        )
        paper_c, paper_b = PAPER[(graph_name, app)]
        rows.append(
            (
                app,
                f"{chronos.sim_seconds * 1e3:.2f} ms",
                f"{baseline.sim_seconds * 1e3:.2f} ms",
                round(baseline.sim_seconds / chronos.sim_seconds, 2),
                f"{paper_c}s / {paper_b}s "
                f"({round(paper_b / paper_c, 2)}x)",
            )
        )
    return rows, ratio


@pytest.mark.parametrize("graph", ["web", "weibo"])
def test_table6(benchmark, graph):
    rows, ratio = benchmark.pedantic(
        lambda: measure(graph), rounds=1, iterations=1
    )
    report_table(
        f"Table 6 - distributed (4 machines), {graph} graph, push mode",
        ["app", "Chronos", "baseline", "speedup",
         "paper Chronos/baseline (speedup)"],
        rows,
        notes=(
            f"Inter:intra partition edge ratio of this graph: {ratio:.2f} "
            "(paper: 3:1 Weibo, 1:2 Web). Gains are diluted by network "
            "time, as the paper observes."
        ),
    )
    for row in rows:
        assert row[3] > 1.0, f"Chronos must beat the baseline for {row[0]}"
