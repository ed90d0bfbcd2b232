"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

This module is the single source of truth that ``BENCHMARK.json`` (checked
by the self-tests), ``run.py``, ``compare.py`` and the README all agree
with. Every later performance issue cites these names, so they only ever
grow.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: ``BENCHMARK.json`` ``run_seconds``: the length of one untraced run the
#: repetition counts in the workload modules are calibrated for.
RUN_SECONDS = 20

#: What every metric and workload name must match.
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "store-scan",
        "cold read path: open store, load_series and a cold PageRank on "
        "fresh objects each query, so storage dominates and the engine "
        "is under a tenth",
    ),
    Workload(
        "hot-analytics",
        "steady-state in-memory analytics on one resident series: all "
        "time is engine scatter/apply, plans are cache hits, storage "
        "reads 0 bytes",
    ),
    Workload(
        "process-analytics",
        "the same engine on a 4x larger weighted graph through the "
        "2-worker shared-memory process executor, with a serial control "
        "for the speed-up",
    ),
    Workload(
        "live-ingest",
        "writes beside reads: WAL ingest, fresh incremental queries "
        "after appends with prefix cache hits, torn-tail recovery and "
        "compaction",
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: The regression bound the issue fixed: the share of the base's median
    #: by which the metric may get worse before ``compare.py`` says *worse*.
    bound: float
    #: ``BENCHMARK.json``'s ``bound``: beyond it the driver rejects a later
    #: PR outright, on medians of unpaired runs, so it has to stand clear
    #: of what identical code shows on this host.
    driver_bound: float
    meaning: str
    #: The workloads that measure the metric.
    workloads: Tuple[str, ...]


_ALL = tuple(w.name for w in WORKLOADS)

#: Driver bound of every timing and rate. Ten-run sweeps of identical code
#: on this host spread by up to 20 % (quartile distance / median), and the
#: medians of two back-to-back sweeps differ by up to 23 %: its CPUs flip
#: between two speeds 1.3x apart for seconds to minutes at a time. The
#: driver wants spreads under a third of the bound and caps it at 0.25.
HOST_NOISE_GATE = 0.25

END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.10, HOST_NOISE_GATE,
        "everything the system does before the timed section: generation, "
        "series/store build, warm-up pass, pool spawn",
        _ALL,
    ),
    EndToEnd(
        "queries_per_s", "1/s", "higher", 0.08, HOST_NOISE_GATE,
        "queries completed / wall time spent in queries",
        _ALL,
    ),
    EndToEnd(
        "query_p50_s", "s", "lower", 0.08, HOST_NOISE_GATE,
        "median request->values latency over all queries (the six fresh "
        "queries on live-ingest)",
        _ALL,
    ),
    EndToEnd(
        "query_p90_s", "s", "lower", 0.10, HOST_NOISE_GATE,
        "p90 latency over all queries, where at least 100 are sampled",
        ("hot-analytics",),
    ),
    EndToEnd(
        "ingest_records_per_s", "1/s", "higher", 0.10, HOST_NOISE_GATE,
        "acked records / total append() time",
        ("live-ingest",),
    ),
    EndToEnd(
        "compact_s", "s", "lower", 0.10, HOST_NOISE_GATE,
        "median of 3 StreamingStore.compact() - the writer stall",
        ("live-ingest",),
    ),
    EndToEnd(
        "recover_s", "s", "lower", 0.10, HOST_NOISE_GATE,
        "median of 3 torn-tail reopens, constructor->ready",
        ("live-ingest",),
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10, 0.10,
        "peak resident memory of the process plus, on the pool workload, "
        "of each worker",
        _ALL,
    ),
    EndToEnd(
        "store_bytes_per_activity", "B", "lower", 0.01, 0.01,
        "on-disk bytes (edge files + manifest + WAL) / activities; exact",
        ("store-scan", "live-ingest"),
    ),
)

#: The tenth end-to-end metric. It is 0 on a healthy run and the driver's
#: contract wants metrics that are never 0, so it travels as ``failed`` /
#: ``attempted`` instead of a bounded metric; ``compare.py`` fails on any
#: increase.
FAILED_OPS_SHARE = "failed_ops_share"


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str


def _layer(prefix: str, unit: str, better: str, names: str) -> List[PerLayer]:
    return [PerLayer(f"{prefix}.{n}", unit, better) for n in names.split()]


_KINDS6 = (
    "pagerank-push pagerank-pull pagerank-stream "
    "sssp-push sssp-pull sssp-stream"
)
_KINDS4 = "pagerank-push pagerank-pull sssp-push sssp-pull"

PER_LAYER: Tuple[PerLayer, ...] = tuple(
    _layer("datasets", "s", "lower", "generate_s")
    + _layer("cli", "s", "lower", "import_s")
    + _layer("temporal", "s", "lower", "series_build_s graph_build_s")
    + _layer("temporal", "count", "lower", "series_cells")
    + _layer("temporal", "1/s", "higher", "series_cells_per_s")
    + _layer(
        "storage", "s", "lower",
        "create_s open_eager_s open_mmap_s load_series_eager_s "
        "load_series_mmap_s verify_s fingerprint_s",
    )
    + _layer(
        "storage", "count", "lower",
        "bytes_read segments_read crc_verified store_bytes groups",
    )
    + _layer("storage", "ratio", "lower", "read_amplification")
    + _layer("streaming", "s", "lower", "append_s sync_s")
    + _layer(
        "streaming", "ms", "lower", "append_batch_p50_ms append_batch_p90_ms"
    )
    + _layer("streaming", "B", "lower", "wal_bytes_per_record")
    + _layer("streaming", "1/s", "higher", "compact_records_per_s")
    + _layer(
        "streaming", "count", "lower", "compact_bytes_written compact_groups"
    )
    + _layer("streaming", "s", "lower", "reopen_wal_s reopen_base_s")
    + _layer(
        "streaming", "count", "lower",
        "recover_replayed_records recover_truncated_bytes",
    )
    + _layer("streaming", "s", "lower", "fsck_s fingerprint_s")
    + _layer("engine.run_s", "s", "lower", _KINDS6)
    + _layer(
        "engine", "s", "lower",
        "cold_run_s plan_build_s scatter_s apply_s gather_s unattributed_s",
    )
    + _layer("engine", "ratio", "lower", "unattributed_share")
    + _layer(
        "engine", "count", "lower",
        "iterations edge_array_accesses acc_updates plan_cache_builds",
    )
    + _layer("engine", "count", "higher", "plan_cache_hits")
    + _layer("engine", "1/s", "higher", "edge_accesses_per_s")
    + _layer("engine", "s", "lower", "incremental_run_s scratch_run_s")
    + _layer("engine", "count", "higher", "seeded_groups seed_iter_saved")
    + _layer("cache", "s", "lower", "requery_s fingerprint_s")
    + _layer("cache", "count", "higher", "hits")
    + _layer("cache", "count", "lower", "misses stores")
    + _layer("cache", "ratio", "higher", "prefix_hit_ratio")
    + _layer("cache", "B", "lower", "bytes_written bytes_read disk_bytes")
    + _layer("parallel.run_s", "s", "lower", _KINDS4)
    + _layer("parallel", "ratio", "higher", "speedup_vs_serial")
    + _layer("parallel", "s", "lower", "pool_spawn_s")
    + _layer(
        "parallel", "count", "lower",
        "ipc_round_trips ipc_payload_bytes pool_spawns retries "
        "serial_fallbacks shm_leaks",
    )
    + _layer(
        "parallel", "s", "lower", "dispatch_s worker_scatter_s parent_apply_s"
    )
    + _layer("obs", "ratio", "lower", "overhead_share")
    + _layer("obs", "count", "lower", "events")
    + _layer("bench", "ratio", "higher", "span_coverage")
)

#: Per-layer metrics that are exact: one seed must reproduce them
#: bit-for-bit (unit ``count``, the byte totals, and the hit ratio).
EXACT_UNITS = ("count", "B")


def is_exact(metric: PerLayer) -> bool:
    return metric.unit in EXACT_UNITS or metric.name == "cache.prefix_hit_ratio"


def benchmark_json() -> Dict[str, object]:
    """What ``BENCHMARK.json`` at the repository root must contain."""
    return {
        "command": ["python3", "benchmarks/system/run.py"],
        "paths": ["benchmarks/system"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {
                "name": m.name, "unit": m.unit, "better": m.better,
                "bound": m.driver_bound,
            }
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
