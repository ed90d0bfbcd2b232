"""``store-scan``: the cold read path.

A monthly web-crawl graph with deletions is persisted in set-up; every
query then starts from nothing — open the store, ``load_series`` 24
monthly snapshots, run a cold PageRank — on fresh objects. Every third
query opens the store memory-mapped.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro import EngineConfig, PageRank, run
from repro.datasets import web_like
from repro.storage import TemporalGraphStore, load_series
from repro.storage.store import StoreConfig
from repro.temporal.series import SnapshotSeriesView

from sysbench import env
from sysbench.core import (
    Metric,
    Section,
    WorkloadRun,
    common_layer_metrics,
    count_engine,
    engine_metrics,
)
from sysbench.spans import Recorder, Stat, median
from sysbench.workloads.shared import (
    BATCH,
    PAGERANK_ITERATIONS,
    Oracle,
    engine_probes,
    series_cells,
)

#: The arrays ``load_series`` must rebuild exactly as ``graph.series`` does.
SERIES_ARRAYS = (
    "out_src", "out_dst", "out_bitmap", "out_index",
    "in_src", "in_dst", "in_bitmap", "in_index",
    "vertex_bitmap", "out_degrees",
)


def same_series(a: SnapshotSeriesView, b: SnapshotSeriesView) -> bool:
    if a.times != b.times or (a.out_weight is None) != (b.out_weight is None):
        return False
    if a.out_weight is not None and not np.array_equal(a.out_weight, b.out_weight):
        return False
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in SERIES_ARRAYS
    )


class StoreScan(WorkloadRun):
    name = "store-scan"

    def set_up(self, rec: Recorder) -> None:
        smoke = self.ctx.smoke
        months = 6 if smoke else 24
        with self.setup_span(rec, "datasets.generate"):
            graph = web_like(
                num_vertices=500 if smoke else 8_000,
                num_months=months,
                edges_per_month=400 if smoke else 5_000,
                seed=self.ctx.seed,
            )
        self.path = self.ctx.tmp / "store"
        with self.setup_span(rec, "storage.create"):
            store = TemporalGraphStore.create(self.path, graph)
        self.graph = graph  # dropped in prepare_checks
        self.times = [(m + 1) * 30 for m in range(months)]
        self.activities = graph.num_activities
        self.groups = store.num_groups
        self.edge_bytes = store.total_bytes()
        self.store_bytes = env.dir_bytes(self.path)
        self.sizes = {
            "vertices": graph.num_vertices,
            "activities": self.activities,
            "snapshots": len(self.times),
            "batch_size": BATCH,
            "groups": self.groups,
            "store_bytes": self.store_bytes,
        }

    def prepare_checks(self, rec: Recorder) -> None:
        with self.setup_span(rec, "temporal.series_build"):
            self.expected = self.graph.series(self.times)
        del self.graph
        self.first_digest = ""

    def queries(self) -> int:
        return self.ctx.reps(full=6, floor=6, traced=3, smoke=3)

    def measure(self, section: Section) -> None:
        rec = section.rec
        for i in range(1, self.queries() + 1):
            mmap = i % 3 == 0
            how = "mmap" if mmap else "eager"
            env.quiesce()
            with section.watch().op():
                with section.op("query", open=how) as op:
                    program = PageRank(iterations=PAGERANK_ITERATIONS)
                    config = EngineConfig(mode="push", batch_size=BATCH)
                    with rec.span("storage.open") as opened:
                        store = TemporalGraphStore(self.path, StoreConfig(mmap=mmap))
                    with rec.span("storage.load_series") as loaded:
                        series = load_series(store, self.times)
                    with rec.span("engine.run") as ran:
                        result = run(series, program, config)
            section.add("query", op.dur)
            section.add(f"open.{how}", opened.dur)
            section.add(f"load_series.{how}", loaded.dur)
            section.add("run", ran.dur)
            count_engine(section, result.counters)
            digest = env.values_digest(result.values)
            if not self.first_digest:
                self.first_digest = digest
                oracle = Oracle(series)
                for s in (0, len(self.times) - 1):
                    self.checks.attempt(
                        oracle.matches(program, result.values, s),
                        f"pagerank snapshot {s} differs from repro.reference",
                    )
            self.checks.attempt(
                digest == self.first_digest and same_series(series, self.expected),
                f"query {i} ({how}): values or loaded series differ",
            )
            del store, series, result

    def probes(self, section: Section) -> None:
        rec = section.rec
        store = TemporalGraphStore(self.path)
        with section.op("probe", what="verify") as op:
            with rec.span("storage.verify"):
                store.verify()
        section.add("verify", op.dur)
        with section.op("probe", what="fingerprint") as op:
            with rec.span("storage.fingerprint"):
                store.fingerprint()
        section.add("fingerprint", op.dur)
        engine_probes(section, self.expected)

    def native_end_to_end(self, section: Section) -> Dict[str, Metric]:
        queries = section.samples["query"]
        return {
            "queries_per_s": Stat(len(queries) / sum(queries), len(queries)),
            "query_p50_s": median(queries),
            "peak_rss_mb": env.peak_rss_mb(),
            "store_bytes_per_activity": self.store_bytes / self.activities,
        }

    def layer_metrics(
        self, untraced: Section, traced: Section, probes: Section
    ) -> Dict[str, Metric]:
        watch = traced.watch()
        queries = len(traced.samples["query"])
        cells = series_cells(self.expected)
        bytes_read = watch.counters["storage.bytes_read"] / queries
        out = common_layer_metrics(self, untraced, traced, probes)
        out.update(engine_metrics(traced, watch, queries, traced.total("run")))
        out.update({
            "temporal.series_build_s": self.setup_spans["temporal.series_build"],
            "temporal.series_cells": cells,
            "temporal.series_cells_per_s": (
                cells / self.setup_spans["temporal.series_build"]
            ),
            "storage.create_s": self.setup_spans["storage.create"],
            "storage.open_eager_s": median(traced.samples["open.eager"]),
            "storage.open_mmap_s": median(traced.samples["open.mmap"]),
            "storage.load_series_eager_s": median(
                traced.samples["load_series.eager"]
            ),
            "storage.load_series_mmap_s": median(
                traced.samples["load_series.mmap"]
            ),
            "storage.verify_s": median(probes.samples["verify"]),
            "storage.fingerprint_s": median(probes.samples["fingerprint"]),
            "storage.bytes_read": bytes_read,
            "storage.segments_read": watch.counters["storage.segments_read"] / queries,
            "storage.crc_verified": watch.counters["storage.crc_verified"] / queries,
            "storage.store_bytes": self.edge_bytes,
            "storage.groups": self.groups,
            "storage.read_amplification": bytes_read / self.edge_bytes,
            "engine.run_s.pagerank-push": median(traced.samples["run"]),
            "engine.cold_run_s": median(traced.samples["run"]),
        })
        return out
