"""``hot-analytics`` and ``process-analytics``: one resident series,
round-robin passes over a fixed mix of query kinds.

Both build a 32-snapshot series in set-up and then only call ``run()``;
they differ in the input (growth-only ``wiki_like`` vs the 4x larger
weighted ``weibo_like``) and in the executor (serial vs the 2-worker
shared-memory pool with a serial control).
"""

from __future__ import annotations

import dataclasses
import glob
import multiprocessing
import os
import warnings
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import EngineConfig, RunResult, run
from repro.datasets import weibo_like, wiki_like
from repro.temporal.graph import TemporalGraph

from sysbench import env
from sysbench.core import (
    Context,
    Metric,
    Section,
    WorkloadRun,
    common_layer_metrics,
    count_engine,
    engine_metrics,
)
from sysbench.spans import (
    Recorder,
    Stat,
    geometric_mean,
    median,
    percentile,
)
from sysbench.workloads.shared import (
    BATCH,
    Kind,
    Oracle,
    busiest_source,
    engine_probes,
    kind_name,
    make_program,
    series_cells,
)

SNAPSHOTS = 32


class ResidentAnalytics(WorkloadRun):
    """Shared body; subclasses pick the input, the mix and the executor."""

    modes: Tuple[str, ...] = ()
    executor = "serial"
    workers = 1
    #: The op population whose runs are the engine layer on its own.
    engine_op = "query"

    def generate(self) -> TemporalGraph:
        raise NotImplementedError

    def passes(self) -> int:
        raise NotImplementedError

    # ----------------------------------------------------------------- #

    def config(self, mode: str, executor: str = "") -> EngineConfig:
        executor = executor or self.executor
        return EngineConfig(
            mode=mode,
            batch_size=BATCH,
            executor=executor,
            workers=self.workers if executor == "process" else 1,
        )

    def set_up(self, rec: Recorder) -> None:
        with self.setup_span(rec, "datasets.generate"):
            graph = self.generate()
        times = graph.evenly_spaced_times(SNAPSHOTS)
        with self.setup_span(rec, "temporal.series_build"):
            self.series = graph.series(times)
        self.activities = graph.num_activities
        self.graph = graph  # dropped in prepare_checks
        self.source = busiest_source(self.series)
        self.kinds: List[Kind] = [
            (p, m) for p in ("pagerank", "sssp") for m in self.modes
        ]
        self.spawn_pool(rec)
        # The warm-up pass: cold runs that build (and, on the pool,
        # publish) every gather plan; their values become the digests every
        # later query must reproduce.
        self.digests: Dict[Kind, str] = {}
        self.counters: Dict[Kind, Dict[str, Any]] = {}
        self.warmup_values: Dict[Kind, np.ndarray] = {}
        cold = []
        for kind in self.kinds:
            program = make_program(kind[0], self.source)
            with rec.span("engine.run", kind=kind_name(kind), cold=True) as span:
                result = self.run(program, self.config(kind[1]))
            cold.append(span.dur)
            self.digests[kind] = env.values_digest(result.values)
            self.counters[kind] = dataclasses.asdict(result.counters)
            self.warmup_values[kind] = result.values
        self.setup_spans["engine.cold_run"] = median(cold).value
        self.sizes = {
            "vertices": self.series.num_vertices,
            "activities": self.activities,
            "distinct_edges": self.series.num_edges,
            "snapshots": SNAPSHOTS,
            "batch_size": BATCH,
            "kinds": [kind_name(k) for k in self.kinds],
            "sssp_source": self.source,
            "executor": self.executor,
            "workers": self.workers,
        }

    def spawn_pool(self, rec: Recorder) -> None:
        """Serial workloads have no pool."""

    def run(self, program: Any, config: EngineConfig) -> RunResult:
        return run(self.series, program, config)

    def prepare_checks(self, rec: Recorder) -> None:
        if self.ctx.traced:
            with self.setup_span(rec, "temporal.graph_build"):
                TemporalGraph(
                    self.graph.activities, num_vertices=self.graph.num_vertices
                )
        del self.graph  # 10^5 activity objects the queries never touch
        oracle = Oracle(self.series)
        for kind, values in self.warmup_values.items():
            program = make_program(kind[0], self.source)
            for s in (0, SNAPSHOTS - 1):
                self.checks.attempt(
                    oracle.matches(program, values, s),
                    f"{kind_name(kind)} snapshot {s} differs from repro.reference",
                )
        self.warmup_values.clear()

    # ----------------------------------------------------------------- #

    def query(
        self, section: Section, kind: Kind, op_name: str, executor: str = ""
    ) -> None:
        """One closed-loop request, from building it to holding the values."""
        name = kind_name(kind)
        env.quiesce()
        with section.watch(op_name).op():
            with section.op(op_name, kind=name) as op:
                program = make_program(kind[0], self.source)
                config = self.config(kind[1], executor)
                with section.rec.span("engine.run"):
                    result = self.run(program, config)
        section.add(op_name, op.dur)
        section.add(f"{op_name}.{name}", op.dur)
        ok = (
            env.values_digest(result.values) == self.digests[kind]
            and dataclasses.asdict(result.counters) == self.counters[kind]
        )
        self.checks.attempt(ok, f"{op_name} {name}: values or counters changed")
        count_engine(section, result.counters, prefix=f"{op_name}.")

    def measure(self, section: Section) -> None:
        passes = self.passes()
        section.counts["query.passes"] = passes
        for _ in range(passes):
            for kind in self.kinds:
                self.query(section, kind, "query")

    def probes(self, section: Section) -> None:
        engine_probes(section, self.series)

    def native_end_to_end(self, section: Section) -> Dict[str, Metric]:
        queries = section.samples["query"]
        return {
            "queries_per_s": Stat(len(queries) / sum(queries), len(queries)),
            "query_p50_s": median(queries),
            "peak_rss_mb": env.peak_rss_mb(self.worker_pids()),
        }

    def worker_pids(self) -> List[int]:
        """Serial workloads have no workers."""
        return []

    def layer_metrics(
        self, untraced: Section, traced: Section, probes: Section
    ) -> Dict[str, Metric]:
        op = self.engine_op
        watch = traced.watch(op)
        passes = traced.counts[f"{op}.passes"]
        run_wall = sum(
            traced.total(f"{op}.{kind_name(kind)}") for kind in self.kinds
        )
        cells = series_cells(self.series)
        out = common_layer_metrics(self, untraced, traced, probes)
        out.update(engine_metrics(traced, watch, passes, run_wall, prefix=f"{op}."))
        out.update({
            "temporal.series_build_s": self.setup_spans["temporal.series_build"],
            "temporal.graph_build_s": self.setup_spans["temporal.graph_build"],
            "temporal.series_cells": cells,
            "temporal.series_cells_per_s": (
                cells / self.setup_spans["temporal.series_build"]
            ),
            "storage.bytes_read": sum(
                w.counters["storage.bytes_read"] for w in traced.watches.values()
            ),
            "engine.cold_run_s": self.setup_spans["engine.cold_run"],
        })
        return out


class HotAnalytics(ResidentAnalytics):
    name = "hot-analytics"
    modes = ("push", "pull", "stream")

    def generate(self) -> TemporalGraph:
        if self.ctx.smoke:
            return wiki_like(400, 6_000, seed=self.ctx.seed)
        return wiki_like(5_000, 100_000, seed=self.ctx.seed)

    def passes(self) -> int:
        # 17 passes x 6 kinds = 102 queries: the fewest that carry a p90.
        return self.ctx.reps(full=17, floor=17, traced=8, smoke=2)

    def native_end_to_end(self, section: Section) -> Dict[str, Metric]:
        out = super().native_end_to_end(section)
        # Below 100 samples (a --smoke run) p90 is withheld: repeat p50.
        out["query_p90_s"] = (
            percentile(section.samples["query"], 90) or out["query_p50_s"]
        )
        return out

    def layer_metrics(
        self, untraced: Section, traced: Section, probes: Section
    ) -> Dict[str, Metric]:
        out = super().layer_metrics(untraced, traced, probes)
        for kind in self.kinds:
            name = kind_name(kind)
            out[f"engine.run_s.{name}"] = median(traced.samples[f"query.{name}"])
        return out


class ProcessAnalytics(ResidentAnalytics):
    name = "process-analytics"
    modes = ("push", "pull")
    executor = "process"

    engine_op = "control"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.workers = min(2, len(os.sched_getaffinity(0)))

    def generate(self) -> TemporalGraph:
        if self.ctx.smoke:
            return weibo_like(800, 12_000, seed=self.ctx.seed)
        return weibo_like(16_000, 400_000, seed=self.ctx.seed)

    def passes(self) -> int:
        # 13 passes x 4 kinds = 52 queries. A p90 would need 100, which
        # with this workload's 10 s set-up does not fit the driver's time
        # cap on a slow spell of the host: it is reported on hot-analytics
        # only.
        return self.ctx.reps(full=13, floor=13, traced=5, smoke=2)

    def control_passes(self) -> int:
        # Untraced, the serial control is only the bitwise gate; the traced
        # run needs medians of it for ``parallel.speedup_vs_serial``.
        return self.ctx.reps(full=1, floor=1, traced=3, smoke=1)

    def spawn_pool(self, rec: Recorder) -> None:
        from repro.parallel.shm import get_pool

        with self.setup_span(rec, "parallel.pool_spawn"):
            if self.workers > 1:
                get_pool(self.workers)

    def worker_pids(self) -> List[int]:
        return [child.pid for child in multiprocessing.active_children()]

    def run(self, program: Any, config: EngineConfig) -> RunResult:
        with warnings.catch_warnings():
            # On a 1-CPU host workers=1 degrades to serial with a warning;
            # the numbers then say so (speed-up 1.0) without the noise.
            warnings.simplefilter("ignore", RuntimeWarning)
            return super().run(program, config)

    def measure(self, section: Section) -> None:
        super().measure(section)
        # The serial control: the same queries on the same series; values
        # and counters must equal the pool's bit for bit.
        section.counts["control.passes"] = self.control_passes()
        for _ in range(self.control_passes()):
            for kind in self.kinds:
                self.query(section, kind, "control", executor="serial")

    def tear_down(self) -> None:
        from repro.parallel import shm

        self.pool_spawns = shm.POOL_SPAWNS
        shm.shutdown_pool()
        self.shm_leaks = len(glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}*"))
        self.checks.attempt(
            self.shm_leaks == 0, f"{self.shm_leaks} shared-memory segments leaked"
        )

    def layer_metrics(
        self, untraced: Section, traced: Section, probes: Section
    ) -> Dict[str, Metric]:
        out = super().layer_metrics(untraced, traced, probes)
        watch = traced.watch("query")
        passes = traced.counts["query.passes"]
        speedups = []
        for kind in self.kinds:
            name = kind_name(kind)
            pooled = median(traced.samples[f"query.{name}"])
            serial = median(traced.samples[f"control.{name}"])
            out[f"parallel.run_s.{name}"] = pooled
            out[f"engine.run_s.{name}"] = serial
            speedups.append(serial.value / pooled.value)
        pooled_runs = len(traced.samples["query"])
        out.update({
            "parallel.speedup_vs_serial": geometric_mean(speedups),
            "parallel.pool_spawn_s": self.setup_spans["parallel.pool_spawn"],
            "parallel.ipc_round_trips": watch.counters["ipc.round_trips"] / passes,
            "parallel.ipc_payload_bytes": (
                watch.counters["ipc.payload_bytes"] / passes
            ),
            "parallel.pool_spawns": self.pool_spawns,
            "parallel.retries": watch.counters["retry.retries"],
            "parallel.serial_fallbacks": watch.counters["retry.serial_fallbacks"],
            "parallel.shm_leaks": self.shm_leaks,
            "parallel.dispatch_s": (
                watch.parent_phase_s["dispatch"] / pooled_runs
            ),
            "parallel.worker_scatter_s": (
                watch.worker_phase_s["worker_scatter"]
                / pooled_runs
                / max(self.workers, 1)
            ),
            "parallel.parent_apply_s": watch.per_run("apply"),
        })
        return out
