"""What more than one workload uses: the query mix, the ``repro.reference``
oracle, and the probes of the traced run."""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Any, Dict, Tuple

import numpy as np

from repro import PageRank, SingleSourceShortestPath
from repro.cache import group_fingerprint
from repro.engine.kernels import plan_for
from repro.layout import LayoutKind
from repro.reference import reference_pagerank, reference_sssp
from repro.temporal.series import GroupView, SnapshotSeriesView

from sysbench import env
from sysbench.core import Section

BATCH = 8
PAGERANK_ITERATIONS = 10

Kind = Tuple[str, str]  # (program name, mode)


def kind_name(kind: Kind) -> str:
    return f"{kind[0]}-{kind[1]}"


def make_program(name: str, source: int):
    if name == "pagerank":
        return PageRank(iterations=PAGERANK_ITERATIONS)
    return SingleSourceShortestPath(source=source)


def busiest_source(series: SnapshotSeriesView) -> int:
    """SSSP source: the highest out-degree vertex at snapshot 0 (lowest id
    on ties), so the search reaches a large part of the graph."""
    return int(np.argmax(series.out_degrees[:, 0]))


def series_cells(series: SnapshotSeriesView) -> int:
    """Live (edge, snapshot) cells: what ``build_series`` has to fill."""
    shifts = np.arange(series.num_snapshots, dtype=np.uint64)
    return int(((series.out_bitmap[:, None] >> shifts) & np.uint64(1)).sum())


class Oracle:
    """``repro.reference`` answers for single snapshots of one series,
    computed once per (program, snapshot) and shared by every mode."""

    def __init__(self, series: SnapshotSeriesView) -> None:
        self.series = series
        self.columns: Dict[Tuple[str, int], np.ndarray] = {}

    def matches(self, program: Any, values: np.ndarray, s: int) -> bool:
        key = (program.name, s)
        if key not in self.columns:
            snapshot = self.series.snapshot(s)
            if program.name == "pagerank":
                ref = reference_pagerank(snapshot, iterations=PAGERANK_ITERATIONS)
            else:
                ref = reference_sssp(snapshot, program.source)
            self.columns[key] = ref
        got = program.decode(values)[:, s]
        return bool(
            np.allclose(
                got, self.columns[key], rtol=1e-9, atol=1e-12, equal_nan=True
            )
        )


def import_probe(section: Section, samples: int = 5) -> None:
    """Wall time of a fresh ``python -c "import repro"`` (what every CLI
    call and every spawned worker pays)."""
    child_env = dict(os.environ, PYTHONPATH=str(env.SRC_DIR))
    for _ in range(samples):
        with section.op("probe", what="import") as op:
            with section.rec.span("cli.import"):
                subprocess.run(
                    [sys.executable, "-c", "import repro"],
                    env=child_env,
                    check=True,
                    timeout=60,
                )
        section.add("import", op.dur)


def plan_build_probe(section: Section, series: SnapshotSeriesView) -> None:
    """``plan_for`` on fresh group views: the cold cost a warm run hides."""
    for start in range(0, series.num_snapshots, BATCH):
        stop = min(start + BATCH, series.num_snapshots)
        for direction in ("out", "in"):
            view = GroupView(series, start, stop)
            with section.op("probe", what="plan_for") as op:
                with section.rec.span("engine.plan_for"):
                    plan_for(view, direction, LayoutKind.TIME_LOCALITY)
            section.add("plan_build", op.dur)


def fingerprint_probe(section: Section, series: SnapshotSeriesView) -> None:
    """``group_fingerprint`` over every group (fresh, unmemoised views)."""
    views = [
        GroupView(series, s, min(s + BATCH, series.num_snapshots))
        for s in range(0, series.num_snapshots, BATCH)
    ]
    with section.op("probe", what="group_fingerprint") as op:
        with section.rec.span("cache.group_fingerprint"):
            for view in views:
                group_fingerprint(view)
    section.add("cache_fingerprint", op.dur)


def engine_probes(section: Section, series: SnapshotSeriesView) -> None:
    """The probes every workload's traced run ends with."""
    plan_build_probe(section, series)
    fingerprint_probe(section, series)
    import_probe(section)
