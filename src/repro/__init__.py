"""Chronos: a graph engine for temporal graph analysis (EuroSys 2014).

A complete reproduction of the paper's system in pure Python:

- the temporal-graph data model and snapshot reconstruction
  (:mod:`repro.temporal`);
- the on-disk snapshot-group format (:mod:`repro.storage`);
- the time-locality / structure-locality in-memory layouts
  (:mod:`repro.layout`);
- the push / pull / stream execution engines with Locality-Aware Batch
  Scheduling (:mod:`repro.engine`);
- incremental computation, one seeder on the run's group loop
  (:mod:`repro.engine.incremental`): ``reuse="incremental"`` and
  :func:`incremental_labs`, whose ``batch=1`` is the standard baseline;
- simulated multi-core (:mod:`repro.parallel`) and distributed
  (:mod:`repro.distributed`) execution over a deterministic memory-
  hierarchy simulator (:mod:`repro.memsim`);
- a Metis-style multilevel partitioner and spectral placement
  (:mod:`repro.partition`);
- the five evaluated applications (:mod:`repro.algorithms`) and synthetic
  stand-ins for the four evaluated temporal graphs (:mod:`repro.datasets`).

Quickstart::

    from repro import EngineConfig, PageRank, run, wiki_like

    graph = wiki_like()
    series = graph.series(graph.evenly_spaced_times(32))
    result = run(series, PageRank(iterations=10),
                 EngineConfig(mode="push", batch_size=32))
    ranks_at_last_snapshot = result.values[:, -1]
"""

from repro.algorithms import (
    MaximalIndependentSet,
    PageRank,
    SingleSourceShortestPath,
    SpMV,
    VertexProgram,
    WeaklyConnectedComponents,
    make_program,
)
from repro.datasets import (
    symmetrized,
    twitter_like,
    web_like,
    weibo_like,
    wiki_like,
)
from repro.engine import (
    EngineConfig,
    Mode,
    RunResult,
    Simulation,
    incremental_labs,
    run,
    simulate,
)
from repro.errors import ChronosError
from repro.layout import LayoutKind
from repro.memsim import CostModel, HierarchyConfig, MemoryHierarchy
from repro.temporal import (
    Snapshot,
    SnapshotSeriesView,
    TemporalGraph,
    TemporalGraphBuilder,
)

__version__ = "1.0.0"

__all__ = [
    "ChronosError",
    "CostModel",
    "EngineConfig",
    "HierarchyConfig",
    "LayoutKind",
    "MaximalIndependentSet",
    "MemoryHierarchy",
    "Mode",
    "PageRank",
    "RunResult",
    "Simulation",
    "SingleSourceShortestPath",
    "Snapshot",
    "SnapshotSeriesView",
    "SpMV",
    "TemporalGraph",
    "TemporalGraphBuilder",
    "VertexProgram",
    "WeaklyConnectedComponents",
    "__version__",
    "incremental_labs",
    "make_program",
    "run",
    "simulate",
    "symmetrized",
    "twitter_like",
    "web_like",
    "weibo_like",
    "wiki_like",
]
