"""Unified observability: tracing, metrics, and run reports.

Three pillars over one inversion-of-control runtime:

- **Structured tracing** (:mod:`repro.obs.trace`): hierarchical spans —
  run → group → iteration → phase (load / plan / scatter / apply /
  gather / checkpoint) — recorded by a :class:`Tracer` and exportable as
  JSONL or Chrome trace-event JSON (loadable in Perfetto or
  ``chrome://tracing``). Recording is single-threaded: the executor's
  worker threads record nothing, and the caller's scatter span covers
  their walks.
- **Metrics registry** (:mod:`repro.obs.metrics`): named counters,
  gauges, and histograms — storage bytes read and CRCs verified,
  result-cache events, and the engine's own
  logical counters — snapshotable to JSON and diffable between runs.
- **Run reports** (:mod:`repro.obs.report`): ``RunResult.report()`` and
  the ``repro trace`` / ``--trace out.json`` / ``--metrics out.json``
  CLI surface build a per-run summary (phase breakdown, cache hit rates,
  storage and checkpoint totals) from the two layers above.

The clock-injection contract: **only this package reads clocks**
(chronolint CHR007). Engine code brackets work with :func:`span` /
counts with :func:`add`, which are provable no-ops while nothing is
installed — :func:`span` returns a shared singleton and allocates no
span object, so the per-iteration hot path is unaffected and results
stay bitwise identical whether or not observability is enabled.

Enable with :func:`observe`::

    from repro import obs

    ob = obs.observe()            # install tracing + metrics
    try:
        result = run(series, program, config)
    finally:
        obs.disable()
    obs.write_chrome(ob.tracer.events, "trace.json", ob.tracer.threads)
    print(result.report()["phases_s"])
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import build_report, distributed_report, run_report
from repro.obs.runtime import (
    BASELINE_COUNTERS,
    NOOP,
    Observation,
    absorb_counters,
    active,
    add,
    disable,
    enabled,
    event,
    gauge,
    install,
    observe,
    span,
)
from repro.obs.trace import (
    Span,
    Tracer,
    chrome_trace,
    logical_sequence,
    write_chrome,
    write_jsonl,
)

__all__ = [
    "BASELINE_COUNTERS",
    "MetricsRegistry",
    "NOOP",
    "Observation",
    "Span",
    "Tracer",
    "absorb_counters",
    "active",
    "add",
    "build_report",
    "chrome_trace",
    "disable",
    "distributed_report",
    "enabled",
    "event",
    "gauge",
    "install",
    "logical_sequence",
    "observe",
    "run_report",
    "span",
    "write_chrome",
    "write_jsonl",
]
