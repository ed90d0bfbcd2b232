"""Shared experiment drivers for the benchmark suite.

Graph sizes follow the paper's experimental setup scaled to laptop size
(see DESIGN.md section 7) and can be scaled further via the
``CHRONOS_BENCH_SCALE`` environment variable (default 1.0; 0.5 halves all
activity counts, 2.0 doubles them).
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Dict, Optional

from repro.algorithms import make_program
from repro.algorithms.program import Semantics
from repro.datasets import symmetrized, twitter_like, web_like, weibo_like, wiki_like
from repro.engine import EngineConfig, RunResult, Simulation, simulate
from repro.layout import LayoutKind
from repro.memsim import HierarchyConfig
from repro.temporal.graph import TemporalGraph
from repro.temporal.series import SnapshotSeriesView

#: Snapshot counts the paper uses: 32 for the single-machine experiments,
#: 12 for the Web graph (one per month).
DEFAULT_SNAPSHOTS = 32

#: Apps whose neighbourhood semantics are undirected (run on symmetrised
#: graphs, as real engines would require for these algorithms).
UNDIRECTED_APPS = {"wcc", "mis"}


def bench_scale() -> float:
    try:
        return float(os.environ.get("CHRONOS_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


def _scaled(n: int) -> int:
    return max(200, int(n * bench_scale()))


@lru_cache(maxsize=None)
def standard_graphs() -> Dict[str, TemporalGraph]:
    """The four evaluation graphs at bench scale."""
    return {
        "wiki": wiki_like(
            num_vertices=_scaled(1500), num_activities=_scaled(14_000), seed=1
        ),
        "twitter": twitter_like(
            num_vertices=_scaled(1200), num_activities=_scaled(14_000), seed=2
        ),
        "weibo": weibo_like(
            num_vertices=_scaled(2000), num_activities=_scaled(24_000), seed=3
        ),
        "web": web_like(
            num_vertices=_scaled(1500),
            num_months=12,
            edges_per_month=_scaled(1500),
            seed=4,
        ),
    }


@lru_cache(maxsize=None)
def _sym_cache(name: str) -> TemporalGraph:
    return symmetrized(standard_graphs()[name])


@lru_cache(maxsize=None)
def bench_series(
    name: str, app: str = "pagerank", snapshots: int = DEFAULT_SNAPSHOTS
) -> SnapshotSeriesView:
    """The snapshot series for (graph, app), symmetrised when needed.

    Snapshot times follow Section 6.1: the second half of the time range
    divided evenly, the first snapshot at the middle of the range.
    """
    graph = (
        _sym_cache(name) if app in UNDIRECTED_APPS else standard_graphs()[name]
    )
    return graph.series(graph.evenly_spaced_times(snapshots))


#: Iteration caps for the timing benchmarks: fixed small counts keep the
#: traced (simulated) runs tractable while preserving the work ratio
#: between the baseline and LABS, which is what the speedups measure.
APP_ITERATIONS = {
    "pagerank": 5,
    "spmv": 5,
    "wcc": None,  # converges
    "sssp": None,  # converges
    "mis": None,  # converges
}


def make_app(app: str):
    kwargs = {}
    if app in ("pagerank", "spmv") and APP_ITERATIONS[app]:
        kwargs["iterations"] = APP_ITERATIONS[app]
    return make_program(app, **kwargs)


#: The simulated machine of every traced experiment: one core of the
#: experiment-scale hierarchy. Multi-core experiments derive theirs with
#: ``dataclasses.replace(SIM, num_cores=..., core_of=...)``.
SIM = Simulation(hierarchy=HierarchyConfig.experiment_scale())


def chronos_config(
    mode: str, batch_size: Optional[int] = None, **kwargs
) -> EngineConfig:
    """Chronos: time-locality layout + LABS batching."""
    return EngineConfig(
        mode=mode, layout=LayoutKind.TIME_LOCALITY, batch_size=batch_size, **kwargs
    )


def baseline_config(mode: str, **kwargs) -> EngineConfig:
    """The paper's baseline: a static engine applied snapshot by snapshot
    (batch size 1, structure-locality layout). With partition-parallelism
    this is the 'Grace' comparator for push/pull and 'X-Stream' for
    stream."""
    return EngineConfig(
        mode=mode, layout=LayoutKind.STRUCTURE_LOCALITY, batch_size=1, **kwargs
    )


def traced_run(
    series: SnapshotSeriesView,
    app: str,
    config: EngineConfig,
    max_iterations: Optional[int] = None,
) -> RunResult:
    """``app`` over ``series`` under ``config``, simulated on :data:`SIM`."""
    program = make_app(app)
    if max_iterations is not None:
        config = config.with_(max_iterations=max_iterations)
    return simulate(series, program, config, SIM)


@lru_cache(maxsize=None)
def small_graphs() -> Dict[str, TemporalGraph]:
    """Smaller variants for the multi-run sweep benchmarks (Fig 5/7/8)."""
    return {
        "wiki": wiki_like(
            num_vertices=_scaled(1000), num_activities=_scaled(8_000), seed=1
        ),
        "twitter": twitter_like(
            num_vertices=_scaled(900), num_activities=_scaled(8_000), seed=2
        ),
        "weibo": weibo_like(
            num_vertices=_scaled(1400), num_activities=_scaled(12_000), seed=3
        ),
        "web": web_like(
            num_vertices=_scaled(1000),
            num_months=12,
            edges_per_month=_scaled(900),
            seed=4,
        ),
    }


@lru_cache(maxsize=None)
def small_series(
    name: str, app: str = "pagerank", snapshots: int = 16
) -> SnapshotSeriesView:
    graph = small_graphs()[name]
    if app in UNDIRECTED_APPS:
        graph = symmetrized(graph)
    return graph.series(graph.evenly_spaced_times(snapshots))


#: Iteration cap applied to the convergence-driven apps in the timing
#: sweeps, so the traced simulation stays tractable. The cap applies to
#: baseline and LABS alike, preserving the work ratio the speedups report.
SWEEP_ITER_CAP = 6


def sweep_cap(app: str) -> Optional[int]:
    prog = make_app(app)
    if prog.semantics is Semantics.MONOTONE or prog.max_iterations is None:
        return SWEEP_ITER_CAP
    return None


def labs_speedups(
    graph_name: str,
    mode: str,
    apps,
    batch_sizes=(1, 4, 8, 16),
    snapshots: int = 16,
):
    """Figure 5 driver: single-thread speedup vs batch size.

    Batch size 1 uses the structure-locality layout (the baseline); larger
    batches use Chronos's time-locality layout, so each point is
    "Chronos at batch B" over "static engine per snapshot".
    """
    rows = []
    for app in apps:
        series = small_series(graph_name, app, snapshots)
        cap = sweep_cap(app)
        base = None
        speeds = {}
        for batch in batch_sizes:
            cfg = (
                baseline_config(mode)
                if batch == 1
                else chronos_config(mode, batch_size=batch)
            )
            res = traced_run(series, app, cfg, max_iterations=cap)
            seconds = res.sim_seconds
            if batch == 1:
                base = seconds
            speeds[batch] = base / seconds if seconds else float("nan")
        rows.append((app, *[round(speeds[b], 2) for b in batch_sizes]))
    return rows
