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
process-wide. Both are single-threaded: the engine records from the
thread that called ``run``, and the executor's worker threads record
nothing (the caller's ``phase/scatter`` span covers their folds).
"""

from __future__ import annotations

import dataclasses
from types import TracebackType
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
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
    "enabled",
    "event",
    "gauge",
    "install",
    "observe",
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
#: never touched a subsystem (e.g. a cache-free run's cache counters).
BASELINE_COUNTERS: Tuple[str, ...] = (
    "storage.bytes_read",
    "storage.segments_read",
    "storage.crc_verified",
    "storage.edge_files_mmap",
    "storage.edge_files_eager",
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
    """Record an instant event on the active tracer."""
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
