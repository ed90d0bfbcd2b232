"""Run reports: one JSON-ready summary per run.

:func:`run_report` (surfaced as ``RunResult.report()``) and
:func:`distributed_report` (``DistributedResult.report()``) share one
builder, so engine runs under either executor and simulated-distribution
runs all produce the same report shape:

- ``counters`` — the run's logical ``EngineCounters`` totals;
- ``metrics`` — the active registry snapshot (caches, storage,
  streaming), when a registry is installed;
- ``derived`` — the result cache's hit rate, from the raw counters;
- ``storage`` / ``cache`` — the headline numbers pulled
  out of the snapshot (always present, 0 when idle);
- ``phases_s`` / ``spans`` / ``wall_s`` — the trace-side phase
  breakdown, when a tracer is installed.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional

from repro.obs import runtime

__all__ = [
    "build_report",
    "distributed_report",
    "run_report",
]


def _hit_rate(hits: float, misses: float) -> Optional[float]:
    total = hits + misses
    if total <= 0:
        return None
    return hits / total


def build_report(
    program: str,
    config_summary: Dict[str, Any],
    counters: Any,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The shared report shape (see the module docstring)."""
    observation = runtime.active()
    report: Dict[str, Any] = {
        "program": program,
        "config": config_summary,
        "counters": {
            f.name: getattr(counters, f.name)
            for f in dataclasses.fields(counters)
        },
    }
    metric_counters: Mapping[str, float] = {}
    if observation is not None and observation.registry is not None:
        snap = observation.registry.snapshot()
        report["metrics"] = snap
        metric_counters = snap["counters"]
    else:
        report["metrics"] = None
    get = metric_counters.get
    report["derived"] = {
        "cache_hit_rate": _hit_rate(get("cache.hits", 0), get("cache.misses", 0)),
    }
    report["storage"] = {
        "bytes_read": get("storage.bytes_read", 0),
        "segments_read": get("storage.segments_read", 0),
        "crc_verified": get("storage.crc_verified", 0),
        "edge_files_mmap": get("storage.edge_files_mmap", 0),
        "edge_files_eager": get("storage.edge_files_eager", 0),
    }
    report["cache"] = {
        "hits": get("cache.hits", 0),
        "misses": get("cache.misses", 0),
        "stores": get("cache.stores", 0),
        "bytes_read": get("cache.bytes_read", 0),
        "bytes_written": get("cache.bytes_written", 0),
        "invalid_entries": get("cache.invalid_entries", 0),
        "seeded_groups": get("reuse.seeded_groups", 0),
        "seed_iter_saved": get("reuse.seed_iter_saved", 0),
        "intersection_bases": get("reuse.intersection_bases", 0),
    }
    if observation is not None and observation.tracer is not None:
        tracer = observation.tracer
        report["phases_s"] = {
            name: round(seconds, 6)
            for name, seconds in sorted(tracer.phase_seconds().items())
        }
        report["spans"] = tracer.span_counts()
        report["wall_s"] = tracer.duration("run")
    else:
        report["phases_s"] = None
        report["spans"] = None
        report["wall_s"] = None
    if extra:
        report.update(extra)
    return report


def run_report(result: Any) -> Dict[str, Any]:
    """The report for a :class:`repro.engine.runner.RunResult`."""
    config = result.config
    summary = {
        "mode": config.mode.value,
        "layout": config.layout.value,
        "executor": config.executor,
        "workers": config.workers,
        "batch_size": config.batch_size,
        "reuse": config.reuse,
        "cache_dir": config.cache_dir,
    }
    return build_report(
        getattr(result.program, "name", "?"),
        summary,
        result.counters,
        extra={
            "cached_groups": getattr(result, "cached_groups", 0),
            "seeded_groups": getattr(result, "seeded_groups", 0),
        },
    )


def distributed_report(result: Any) -> Dict[str, Any]:
    """The report for a :class:`repro.distributed.engine.DistributedResult`
    — same shape as :func:`run_report`, with the simulation's network
    figures in the extras."""
    summary = {
        "mode": "push",
        "executor": "simulated-distributed",
        "workers": result.num_machines,
    }
    return build_report(
        result.program_name or "distributed",
        summary,
        result.counters,
        extra={
            "num_machines": result.num_machines,
            "sim_seconds": result.sim_seconds,
            "network_seconds": result.network_seconds,
            "messages": result.messages,
            "message_bytes": result.message_bytes,
        },
    )
