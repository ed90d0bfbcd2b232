"""Structured tracing: span recording and trace exports.

One :class:`Tracer` records a flat list of event dicts (the *internal*
schema, one JSON object per line in the JSONL export)::

    {"name": "apply", "cat": "phase", "ph": "X", "ts": <seconds>,
     "dur": <seconds>, "pid": 1234, "tid": 0, "depth": 2, "args": {...}}

``ph`` is ``"X"`` for complete spans and ``"i"`` for instant events.
``ts`` is a raw monotonic-clock reading (``time.perf_counter``).
``depth`` is the span-nesting depth at begin time within one tracer
(run=0, group=1, iteration=2, phase=3 on the engine's hierarchy); events
appear in begin order.

Categories: ``run`` / ``group`` / ``iteration`` are the logical skeleton
(see :func:`logical_sequence`, which the executor-parity tests compare);
``phase`` spans carry the time attribution.

:func:`chrome_trace` converts events to the Chrome trace-event format
(``ts``/``dur`` in microseconds, relative to the trace start) that
Perfetto and ``chrome://tracing`` load directly; nesting in those UIs is
derived from interval containment per ``(pid, tid)`` row.
"""

from __future__ import annotations

import json
import os
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Event",
    "LOGICAL_CATEGORIES",
    "Span",
    "Tracer",
    "chrome_trace",
    "logical_sequence",
    "write_chrome",
    "write_jsonl",
]

#: One recorded trace event (see the module docstring for the schema).
Event = Dict[str, Any]

#: Categories whose event sequence is a pure function of the computation
#: (no timing, no executor identity) — the executor-parity contract.
LOGICAL_CATEGORIES = ("group", "iteration")


class Span:
    """A live span: records one complete ("X") event on exit.

    Only ever constructed by a :class:`Tracer` (chronolint CHR007); the
    disabled path returns :data:`repro.obs.runtime.NOOP` instead and
    never allocates one of these.
    """

    __slots__ = ("_tracer", "_event", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        cat: str,
        name: str,
        args: Optional[Dict[str, Any]],
    ) -> None:
        self._tracer = tracer
        self._event: Event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": 0.0,
            "dur": 0.0,
            "pid": tracer.pid,
            "tid": tracer.tid,
            "depth": 0,
            "args": args if args is not None else {},
        }
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self._event["depth"] = tracer.depth
        tracer.depth += 1
        tracer.events.append(self._event)
        self._t0 = tracer.clock()
        self._event["ts"] = self._t0
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[object],
    ) -> None:
        tracer = self._tracer
        self._event["dur"] = tracer.clock() - self._t0
        tracer.depth -= 1
        return None


class Tracer:
    """Records spans and instant events for one process/thread lane.

    ``clock`` is the injected time source (default
    ``time.perf_counter``); this class is the only place in the library
    that reads it. ``(pid, tid)`` identify the lane in exported traces
    (the engine records on one lane, tid 0), and ``threads`` maps lanes
    to display labels.
    """

    __slots__ = ("clock", "pid", "tid", "events", "threads", "depth")

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        pid: Optional[int] = None,
    ) -> None:
        self.clock: Callable[[], float] = (
            time.perf_counter if clock is None else clock
        )
        self.pid: int = os.getpid() if pid is None else pid
        self.tid: int = 0
        self.events: List[Event] = []
        self.threads: Dict[Tuple[int, int], str] = {(self.pid, 0): "main"}
        self.depth: int = 0

    def span(
        self,
        cat: str,
        name: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        return Span(self, cat, name, args)

    def instant(
        self, cat: str, name: str, args: Optional[Dict[str, Any]] = None
    ) -> None:
        self.events.append({
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": self.clock(),
            "dur": 0.0,
            "pid": self.pid,
            "tid": self.tid,
            "depth": self.depth,
            "args": args if args is not None else {},
        })

    # ------------------------------------------------------------- #
    # queries

    def phase_seconds(self) -> Dict[str, float]:
        """Total seconds per phase name (cat ``"phase"`` spans)."""
        out: Dict[str, float] = {}
        for e in self.events:
            if e["cat"] == "phase" and e["ph"] == "X":
                name = str(e["name"])
                out[name] = out.get(name, 0.0) + float(e["dur"])
        return out

    def span_counts(self) -> Dict[str, int]:
        """Number of recorded events per category."""
        out: Dict[str, int] = {}
        for e in self.events:
            cat = str(e["cat"])
            out[cat] = out.get(cat, 0) + 1
        return out

    def duration(self, cat: str) -> Optional[float]:
        """Duration of the first depth-0 span of ``cat`` (e.g. the run)."""
        for e in self.events:
            if e["cat"] == cat and e["depth"] == 0 and e["ph"] == "X":
                return float(e["dur"])
        return None


# ----------------------------------------------------------------- #
# exports


def logical_sequence(
    events: Iterable[Event],
) -> List[Tuple[str, str, Tuple[Tuple[str, Any], ...]]]:
    """The timing-free event skeleton: ``(cat, name, sorted args)``.

    Covers :data:`LOGICAL_CATEGORIES` only — categories whose order and
    arguments are a pure function of the computation. The parity tests
    assert serial and process executors produce identical sequences.
    """
    seq: List[Tuple[str, str, Tuple[Tuple[str, Any], ...]]] = []
    for e in events:
        if e["cat"] in LOGICAL_CATEGORIES:
            args: Dict[str, Any] = e.get("args") or {}
            seq.append(
                (str(e["cat"]), str(e["name"]), tuple(sorted(args.items())))
            )
    return seq


def write_jsonl(events: Iterable[Event], path: str) -> None:
    """One JSON object per line, in recorded (begin) order."""
    # Diagnostic trace dump at a user-chosen path: regenerable from a
    # re-run, never read back by the engine.
    # chronolint: allow-atomic-write
    with open(path, "w") as fh:
        for e in events:
            fh.write(json.dumps(e, sort_keys=True) + "\n")


def chrome_trace(
    events: Sequence[Event],
    threads: Optional[Dict[Tuple[int, int], str]] = None,
) -> Dict[str, Any]:
    """Events as a Chrome trace-event JSON object (Perfetto-loadable)."""
    t0 = min((float(e["ts"]) for e in events), default=0.0)
    trace_events: List[Dict[str, Any]] = []
    if threads:
        for (pid, tid), label in sorted(threads.items()):
            trace_events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            })
    for e in events:
        rec: Dict[str, Any] = {
            "name": e["name"],
            "cat": e["cat"],
            "ph": e["ph"],
            "ts": (float(e["ts"]) - t0) * 1e6,
            "pid": e["pid"],
            "tid": e["tid"],
            "args": e["args"],
        }
        if e["ph"] == "X":
            rec["dur"] = float(e["dur"]) * 1e6
        else:
            rec["s"] = "t"
        trace_events.append(rec)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome(
    events: Sequence[Event],
    path: str,
    threads: Optional[Dict[Tuple[int, int], str]] = None,
) -> None:
    # Diagnostic trace dump (see write_jsonl): regenerable, never read
    # back by the engine.
    # chronolint: allow-atomic-write
    with open(path, "w") as fh:
        json.dump(chrome_trace(events, threads), fh)
