"""The observability runtime: install/disable, spans, metric writes.

Engine code calls the module-level helpers — :func:`span`, :func:`add`,
:func:`gauge`, :func:`event` — unconditionally. While nothing is
installed they are provable no-ops: :func:`span` returns the shared
:data:`NOOP` singleton (no span object, no args dict is ever built) and
the metric writers return after one global read, so enabling
observability can never change results and disabling it costs nothing
measurable on the per-iteration hot path.

One :class:`Observation` bundles the two optional sinks — a
:class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry` — and is installed
process-wide. Worker processes of the shm executor get their own
observation (:func:`enable_worker`) whose events/metrics are shipped
back over IPC (:func:`drain`) and stitched into the parent's
(:func:`ingest`).
"""

from __future__ import annotations

import dataclasses
from types import TracebackType
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Mapping,
    Optional,
    Tuple,
)

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "BASELINE_COUNTERS",
    "NOOP",
    "Observation",
    "absorb_counters",
    "active",
    "add",
    "disable",
    "drain",
    "enable_worker",
    "enabled",
    "event",
    "gauge",
    "ingest",
    "install",
    "observe",
    "reset",
    "shipping",
    "span",
]


class _NoopSpan:
    """The zero-cost span returned while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


NOOP = _NoopSpan()

#: Counters pre-registered at 0 by every metrics-enabled observation, so
#: snapshots and reports always carry the core names even when the run
#: never touched a subsystem (e.g. a serial run's IPC counters).
BASELINE_COUNTERS: Tuple[str, ...] = (
    "ipc.round_trips",
    "ipc.payload_bytes",
    "pool.spawns",
    "plan.cache_builds",
    "plan.cache_hits",
    "plan.token_hits",
    "plan.token_misses",
    "storage.bytes_read",
    "storage.segments_read",
    "storage.crc_verified",
    "storage.edge_files_mmap",
    "storage.edge_files_eager",
    "retry.worker_errors",
    "retry.retries",
    "retry.serial_fallbacks",
    "checkpoint.groups_stored",
    "checkpoint.groups_loaded",
    "cache.hits",
    "cache.misses",
    "cache.stores",
    "cache.bytes_read",
    "cache.bytes_written",
    "cache.memory_evictions",
    "cache.invalid_entries",
    "reuse.seeded_groups",
    "reuse.seed_iter_saved",
    "reuse.intersection_bases",
    "wal.appends",
    "wal.records",
    "wal.bytes_written",
    "wal.fsyncs",
    "wal.truncated_bytes",
    "compact.runs",
    "compact.groups",
    "compact.bytes_written",
    "recover.opens",
    "recover.replayed_records",
    "recover.skipped_frames",
)


class Observation:
    """One installed observability scope: tracer + registry."""

    __slots__ = ("tracer", "registry")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer
        self.registry = registry
        if registry is not None:
            registry.declare(BASELINE_COUNTERS)

    def span(
        self, cat: str, name: str, args: Optional[Dict[str, Any]] = None
    ) -> "ContextManager[Any]":
        if self.tracer is None:
            return NOOP
        return self.tracer.span(cat, name, args)


#: The installed observation; None = observability disabled everywhere.
_ACTIVE: Optional[Observation] = None


def active() -> Optional[Observation]:
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


def install(observation: Optional[Observation]) -> None:
    global _ACTIVE
    _ACTIVE = observation


def observe(
    trace: bool = True,
    metrics: bool = True,
    clock: Optional[Callable[[], float]] = None,
) -> Observation:
    """Create and install an observation; returns it for later export."""
    observation = Observation(
        tracer=Tracer(clock=clock) if trace else None,
        registry=MetricsRegistry() if metrics else None,
    )
    install(observation)
    return observation


def disable() -> None:
    install(None)


def reset() -> None:
    """Drop any (possibly fork-inherited) observation. Worker processes
    call this on startup so a parent's observation never leaks in."""
    install(None)


# ----------------------------------------------------------------- #
# the engine-facing hooks (hot-path safe)


def span(
    cat: str, name: str, args: Optional[Dict[str, Any]] = None
) -> "ContextManager[Any]":
    """Bracket one occurrence of ``name``; :data:`NOOP` when disabled.

    Hot-path callers that would build an ``args`` dict per call should
    fetch :func:`active` once and branch — see the iteration loop in
    :mod:`repro.engine.runner`.
    """
    observation = _ACTIVE
    if observation is None:
        return NOOP
    return observation.span(cat, name, args)


def event(cat: str, name: str, args: Optional[Dict[str, Any]] = None) -> None:
    """Record an instant event (e.g. a retry) on the active tracer."""
    observation = _ACTIVE
    if observation is not None and observation.tracer is not None:
        observation.tracer.instant(cat, name, args)


def add(name: str, n: float = 1) -> None:
    """Increment a registry counter; no-op while disabled."""
    observation = _ACTIVE
    if observation is not None and observation.registry is not None:
        observation.registry.inc(name, n)


def gauge(name: str, value: float) -> None:
    observation = _ACTIVE
    if observation is not None and observation.registry is not None:
        observation.registry.gauge(name, value)


def absorb_counters(counters: Any, prefix: str = "engine.") -> None:
    """Mirror a run's final logical counters into the registry.

    Uses set-semantics (:meth:`MetricsRegistry.put`): ``engine.*``
    always equals the most recent completed run's ``EngineCounters``
    totals: a later run replaces an earlier run's figures instead of
    adding to them.
    """
    observation = _ACTIVE
    if observation is None or observation.registry is None:
        return
    for f in dataclasses.fields(counters):
        value = getattr(counters, f.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            observation.registry.put(prefix + f.name, value)


# ----------------------------------------------------------------- #
# worker-side observability (shipped over the shm executor's IPC)


def shipping() -> bool:
    """Whether dispatches should ask workers to record (and ship) spans."""
    observation = _ACTIVE
    return observation is not None and observation.tracer is not None


def enable_worker(worker: int) -> None:
    """Install a fresh worker-side observation (tid ``worker + 1``)."""
    install(
        Observation(
            tracer=Tracer(tid=worker + 1, label=f"worker-{worker}"),
            registry=MetricsRegistry(),
        )
    )


def drain() -> Optional[Dict[str, Any]]:
    """Take the worker's recorded events/metrics for shipment (pickled
    over the reply pipe); clears them so the next drain is incremental.
    None when this worker records nothing."""
    observation = _ACTIVE
    if observation is None or observation.tracer is None:
        return None
    tracer = observation.tracer
    payload: Dict[str, Any] = {
        "events": list(tracer.events),
        "threads": [
            [pid, tid, label] for (pid, tid), label in tracer.threads.items()
        ],
        "metrics": (
            observation.registry.snapshot()
            if observation.registry is not None
            else None
        ),
    }
    tracer.events.clear()
    if observation.registry is not None:
        observation.registry.reset()
    return payload


def ingest(payload: Optional[Mapping[str, Any]]) -> None:
    """Stitch one worker's drained payload into the parent observation."""
    observation = _ACTIVE
    if observation is None or payload is None:
        return
    if observation.tracer is not None:
        observation.tracer.events.extend(payload.get("events") or ())
        for entry in payload.get("threads") or ():
            pid, tid, label = entry
            observation.tracer.threads[(int(pid), int(tid))] = str(label)
    metrics_snap = payload.get("metrics")
    if observation.registry is not None and metrics_snap:
        observation.registry.merge(metrics_snap)
