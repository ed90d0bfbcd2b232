"""``live-ingest``: writes beside reads.

The activity log of a growth-only graph arrives as a stream of 512-record
batches under ``fsync="batch"``.

- Phase A: five bulk stores take the whole stream in one go (the write
  path alone), one after the other.
- Phase B: the live store takes it in cycles: append a few snapshots'
  worth, ask a fresh incremental SSSP over everything so far (series
  rebuild + run, prefix groups served from the on-disk result cache), ask
  again unchanged.
- Phase C, on two of the bulk stores and on the live store: crash (a torn
  WAL tail), reopen (= recovery), ``compact()``, reopen from the compacted
  base. The bulk stores go through it right after their ingest, so the
  three samples of each seconds-long op are spread over the run.

The first record of the stream touches vertex ``V-1`` so the vertex id
space — and with it every group fingerprint — is the same after each
append; all cuts fall on timestamp boundaries so a prefix series never
changes once it has been queried.
"""

from __future__ import annotations

import bisect
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence

from repro import EngineConfig, SingleSourceShortestPath, run
from repro.datasets import wiki_like
from repro.streaming import StreamingStore, fsck_store
from repro.streaming.wal import WAL_NAME
from repro.temporal.activity import Activity, ActivityKind
from repro.temporal.graph import TemporalGraph

from sysbench import env
from sysbench.core import (
    Metric,
    Section,
    WorkloadRun,
    common_layer_metrics,
    count_engine,
    engine_metrics,
)
from sysbench.spans import Recorder, Stat, median, percentile
from sysbench.workloads.shared import (
    BATCH,
    Oracle,
    engine_probes,
    series_cells,
)

BATCH_RECORDS = 512
SNAPSHOTS = 64
#: Snapshots the live store holds before the first query, and how many
#: each of the five cycles appends.
FIRST_QUERY_SNAPSHOTS = 24
CYCLE_SNAPSHOTS = 8
CYCLES = 5
#: Garbage appended to the WAL to simulate a crash mid-frame.
TORN_TAIL = b"\x77" * 33


class LiveIngest(WorkloadRun):
    name = "live-ingest"

    def set_up(self, rec: Recorder) -> None:
        smoke = self.ctx.smoke
        vertices = 400 if smoke else 5_000
        with self.setup_span(rec, "datasets.generate"):
            graph = wiki_like(
                vertices, 6_000 if smoke else 100_000, seed=self.ctx.seed
            )
        log = graph.activities
        self.stream: List[Activity] = [
            Activity(time=log[0].time, kind=ActivityKind.ADD_VERTEX, src=vertices - 1),
            *log,
        ]
        self.stream_times = [a.time for a in self.stream]
        whole = TemporalGraph(self.stream, num_vertices=vertices)
        self.times = whole.evenly_spaced_times(SNAPSHOTS, start_fraction=0.3)
        # Growth-only stream: out-degree at the first snapshot is the count
        # of edge records up to it.
        out_degree = Counter(
            a.src for a in self.stream
            if a.is_edge_activity and a.time <= self.times[0]
        )
        self.source = min(
            out_degree, key=lambda v: (-out_degree[v], v), default=0
        )
        self.program = SingleSourceShortestPath(source=self.source)
        self.sizes = {
            "vertices": vertices,
            "activities": len(self.stream),
            "snapshots": SNAPSHOTS,
            "batch_size": BATCH,
            "batch_records": BATCH_RECORDS,
            "fsync": "batch",
            "sssp_source": self.source,
            "cycles": CYCLES,
        }

    def bulk_stores(self) -> int:
        # Five whole-stream ingests plus the live store's appends: ~1200
        # append() calls (over 3 s) behind the ingest rate. Every second
        # bulk store and the live store go through phase C: three
        # recoveries and compactions.
        return self.ctx.reps(full=5, floor=5, traced=1, smoke=1)

    # ----------------------------------------------------------------- #

    def open_store(self, path: Path) -> StreamingStore:
        return StreamingStore(path, fsync="batch", batch_records=BATCH_RECORDS)

    def upto(self, snapshot: int) -> int:
        """Stream position just past the last record of ``times[snapshot]``."""
        return bisect.bisect_right(self.stream_times, self.times[snapshot])

    def append(
        self, section: Section, store: StreamingStore, records: Sequence[Activity]
    ) -> None:
        """Feed ``records`` in WAL batches, one span per ``append()`` call."""
        rec = section.rec
        for i in range(0, len(records), BATCH_RECORDS):
            batch = records[i : i + BATCH_RECORDS]
            with rec.span("streaming.append") as span:
                store.append(batch)
            section.add("append_batch", span.dur)
        section.counts["records_acked"] += len(records)

    def measure(self, section: Section) -> None:
        root = self.ctx.tmp / ("traced" if section.traced else "untraced")
        #: Logical fingerprint of each store once it holds the whole
        #: stream, taken before it is closed and torn.
        self.intact: Dict[Path, str] = {}
        for k in range(self.bulk_stores()):
            path = root / f"bulk{k}"
            self.bulk_ingest(section, path, crash=k % 2 == 1)
        live = self.live_cycles(section, root)
        self.crash_recover_compact(section, live)

    def bulk_ingest(self, section: Section, path: Path, crash: bool) -> None:
        rec = section.rec
        env.quiesce()
        with section.watch("write").op():
            with section.op("ingest", store=path.name):
                with rec.span("streaming.open"):
                    store = self.open_store(path)
                self.append(section, store, self.stream)
                with rec.span("streaming.sync") as synced:
                    store.sync()
        section.add("sync", synced.dur)
        self.checks.did()
        if crash:
            self.intact[path] = store.fingerprint()
        store.close()
        if crash:
            self.crash_recover_compact(section, path)

    def live_cycles(self, section: Section, root: Path) -> Path:
        rec = section.rec
        path = root / "live"
        config = EngineConfig(
            mode="push",
            batch_size=BATCH,
            reuse="incremental",
            cache_dir=str(root / "cache"),
        )
        store = self.open_store(path)
        position = 0
        previous_groups = 0
        for cycle in range(-1, CYCLES):
            snapshots = FIRST_QUERY_SNAPSHOTS + CYCLE_SNAPSHOTS * (cycle + 1)
            cut = self.upto(snapshots - 1)
            env.quiesce()
            with section.watch("write").op():
                with section.op("append", snapshots=snapshots):
                    self.append(section, store, self.stream[position:cut])
            self.checks.did()
            position = cut
            times = self.times[:snapshots]

            env.quiesce()
            with section.watch("fresh").op():
                with section.op("fresh_query", snapshots=snapshots) as op:
                    with rec.span("temporal.graph_build") as graphed:
                        graph = store.graph()
                    with rec.span("temporal.series_build") as built:
                        series = graph.series(times)
                    with rec.span("engine.run") as ran:
                        result = run(series, self.program, config)
            section.add("fresh_query", op.dur)
            section.add("graph_build", graphed.dur)
            section.add("series_build", built.dur)
            section.add("incremental_run", ran.dur)
            count_engine(section, result.counters)
            section.counts["seeded_groups"] += result.seeded_groups
            section.counts["cached_groups"] += result.cached_groups
            section.counts["expected_cached_groups"] += previous_groups
            self.checks.attempt(
                result.cached_groups == previous_groups,
                f"fresh query over {snapshots} snapshots hit "
                f"{result.cached_groups} prefix groups, expected {previous_groups}",
            )
            previous_groups = snapshots // BATCH
            digest = env.values_digest(result.values)

            env.quiesce()
            with section.watch("requery").op():
                with section.op("requery", snapshots=snapshots) as op:
                    with rec.span("cache.requery"):
                        again = run(series, self.program, config)
            section.add("requery", op.dur)
            self.checks.attempt(
                env.values_digest(again.values) == digest
                and again.cached_groups == previous_groups,
                f"unchanged re-query over {snapshots} snapshots recomputed",
            )
            if cycle == -1:
                oracle = Oracle(series)
                for s in (0, snapshots - 1):
                    self.checks.attempt(
                        oracle.matches(self.program, result.values, s),
                        f"sssp snapshot {s} differs from repro.reference",
                    )
        # The last series stays for the scratch-run gate and the probes.
        self.final_series = series
        scratch = run(
            series, self.program, EngineConfig(mode="push", batch_size=BATCH)
        )
        self.checks.attempt(
            env.values_digest(scratch.values) == digest,
            "final incremental values differ from a scratch run",
        )
        section.counts["series_cells"] = series_cells(series)
        section.counts["cache_disk_bytes"] = env.dir_bytes(root / "cache")
        self.checks.attempt(
            position == len(self.stream), "live store did not take the whole stream"
        )
        self.intact[path] = store.fingerprint()
        store.close()
        return path

    def crash_recover_compact(self, section: Section, path: Path) -> None:
        rec = section.rec
        with open(path / WAL_NAME, "ab") as wal:
            wal.write(TORN_TAIL)

        env.quiesce()
        with section.watch("recover").op():
            with section.op("recover", store=path.name) as op:
                with rec.span("streaming.reopen"):
                    store = self.open_store(path)
        section.add("recover", op.dur)
        section.counts["recoveries"] += 1
        section.counts["replayed_records"] += store.recovery.replayed_records
        section.counts["truncated_bytes"] += store.recovery.truncated_bytes
        with section.op("fingerprint", store=path.name) as op:
            with rec.span("streaming.fingerprint"):
                recovered = store.fingerprint()
        section.add("fingerprint", op.dur)
        self.checks.attempt(
            recovered == self.intact[path],
            f"{path.name}: fingerprint changed across torn-tail recovery",
        )

        env.quiesce()
        with section.watch("compact").op():
            with section.op("compact", store=path.name) as op:
                with rec.span("streaming.compact"):
                    manifest = store.compact()
        section.add("compact", op.dur)
        section.counts["compact_groups"] += len(manifest["groups"])
        store.close()

        env.quiesce()
        with section.watch("reopen_base").op():
            with section.op("reopen_base", store=path.name) as op:
                with section.rec.span("streaming.reopen"):
                    store = self.open_store(path)
        section.add("reopen_base", op.dur)
        self.checks.attempt(
            store.fingerprint() == self.intact[path]
            and store.recovery.base_records == len(self.stream),
            f"{path.name}: fingerprint changed across compaction",
        )
        store.close()
        section.counts["store_bytes"] = env.dir_bytes(path)
        self.crashed_store = path

    def probes(self, section: Section) -> None:
        with section.op("probe", what="fsck") as op:
            with section.rec.span("streaming.fsck"):
                report = fsck_store(self.crashed_store)
        section.add("fsck", op.dur)
        self.checks.attempt(report["clean"], "fsck found damage after compaction")
        config = EngineConfig(mode="push", batch_size=BATCH)
        env.quiesce()
        with section.op("probe", what="scratch_run") as op:
            with section.rec.span("engine.run"):
                run(self.final_series, self.program, config)
        section.add("scratch_run", op.dur)
        engine_probes(section, self.final_series)

    # ----------------------------------------------------------------- #

    def native_end_to_end(self, section: Section) -> Dict[str, Metric]:
        fresh = section.samples["fresh_query"]
        queries = fresh + section.samples["requery"]
        appends = section.samples["append_batch"]
        return {
            "queries_per_s": Stat(len(queries) / sum(queries), len(queries)),
            "query_p50_s": median(fresh),
            "ingest_records_per_s": Stat(
                section.counts["records_acked"] / sum(appends), len(appends)
            ),
            "compact_s": median(section.samples["compact"]),
            "recover_s": median(section.samples["recover"]),
            "peak_rss_mb": env.peak_rss_mb(),
            "store_bytes_per_activity": (
                section.counts["store_bytes"] / len(self.stream)
            ),
        }

    def layer_metrics(
        self, untraced: Section, traced: Section, probes: Section
    ) -> Dict[str, Metric]:
        counts = traced.counts
        write = traced.watch("write").counters
        fresh = traced.watch("fresh")
        requery = traced.watch("requery").counters
        compact = traced.watch("compact").counters
        base = traced.watch("reopen_base").counters
        stores = counts["recoveries"]  # stores that went through phase C
        appends = traced.samples["append_batch"]
        batch_ms = [s * 1e3 for s in appends]
        compact_s = median(traced.samples["compact"])
        series_build = traced.samples["series_build"]
        out = common_layer_metrics(self, untraced, traced, probes)
        out.update(
            engine_metrics(traced, fresh, 1, traced.total("incremental_run"))
        )
        out.update({
            "temporal.series_build_s": median(series_build),
            "temporal.graph_build_s": median(traced.samples["graph_build"]),
            "temporal.series_cells": counts["series_cells"],
            "temporal.series_cells_per_s": (
                counts["series_cells"] / series_build[-1]
            ),
            "storage.bytes_read": base["storage.bytes_read"] / stores,
            "storage.segments_read": base["storage.segments_read"] / stores,
            "storage.crc_verified": base["storage.crc_verified"] / stores,
            "storage.store_bytes": counts["store_bytes"],
            "storage.groups": counts["compact_groups"] / stores,
            "streaming.append_s": Stat(sum(appends), len(appends)),
            "streaming.append_batch_p50_ms": median(batch_ms),
            "streaming.append_batch_p90_ms": (
                percentile(batch_ms, 90) or median(batch_ms)
            ),
            "streaming.sync_s": median(traced.samples["sync"]),
            "streaming.wal_bytes_per_record": (
                write["wal.bytes_written"] / write["wal.records"]
            ),
            "streaming.compact_records_per_s": (
                len(self.stream) / compact_s.value
            ),
            "streaming.compact_bytes_written": (
                compact["compact.bytes_written"] / stores
            ),
            "streaming.compact_groups": counts["compact_groups"] / stores,
            "streaming.reopen_wal_s": median(traced.samples["recover"]),
            "streaming.reopen_base_s": median(traced.samples["reopen_base"]),
            "streaming.recover_replayed_records": (
                counts["replayed_records"] / stores
            ),
            "streaming.recover_truncated_bytes": (
                counts["truncated_bytes"] / stores
            ),
            "streaming.fsck_s": median(probes.samples["fsck"]),
            "streaming.fingerprint_s": median(traced.samples["fingerprint"]),
            "engine.run_s.sssp-push": median(traced.samples["incremental_run"]),
            "engine.cold_run_s": traced.samples["incremental_run"][0],
            "engine.incremental_run_s": median(traced.samples["incremental_run"]),
            "engine.scratch_run_s": median(probes.samples["scratch_run"]),
            "engine.seeded_groups": counts["seeded_groups"],
            "engine.seed_iter_saved": (
                fresh.counters["reuse.seed_iter_saved"]
            ),
            "cache.requery_s": median(traced.samples["requery"]),
            "cache.hits": fresh.counters["cache.hits"] + requery["cache.hits"],
            "cache.misses": fresh.counters["cache.misses"] + requery["cache.misses"],
            "cache.stores": fresh.counters["cache.stores"],
            "cache.prefix_hit_ratio": (
                counts["cached_groups"] / counts["expected_cached_groups"]
            ),
            "cache.bytes_written": fresh.counters["cache.bytes_written"],
            "cache.bytes_read": (
                fresh.counters["cache.bytes_read"] + requery["cache.bytes_read"]
            ),
            "cache.disk_bytes": counts["cache_disk_bytes"],
        })
        return out
