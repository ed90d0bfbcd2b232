"""Stopwatch spans and the statistics rules every reported timing obeys.

The recorder always measures (end-to-end latencies come from it); it only
*keeps* span records when tracing is on. A root span is one operation and
its id is the op id every descendant carries. All times are plain wall
seconds (``time.perf_counter``).
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence


class Span:
    """One timed interval; ``dur`` is valid after the ``with`` block."""

    __slots__ = ("_rec", "name", "attrs", "id", "parent", "op", "start", "end")

    def __init__(self, rec: "Recorder", name: str, attrs: Dict[str, Any]) -> None:
        self._rec = rec
        self.name = name
        self.attrs = attrs
        self.id = -1
        self.parent: Optional[int] = None
        self.op = -1
        self.start = 0.0
        self.end = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        rec = self._rec
        self.id = rec.next_id
        rec.next_id += 1
        if rec.stack:
            top = rec.stack[-1]
            self.parent, self.op = top.id, top.op
        else:
            self.op = self.id
        rec.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = time.perf_counter()
        rec = self._rec
        rec.stack.pop()
        if rec.keep:
            rec.spans.append(self.record())

    def record(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "op": self.op,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }


class Recorder:
    """In-memory span recorder; ``run.py`` writes it out when the run ends."""

    def __init__(self, keep: bool = False) -> None:
        self.keep = keep
        self.spans: List[Dict[str, Any]] = []
        self.stack: List[Span] = []
        self.next_id = 0

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Self time per span id: duration minus its direct children's."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def span_coverage(spans: Sequence[Dict[str, Any]]) -> float:
    """Share of op wall time covered by the ops' direct child spans."""
    op_wall = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    if op_wall <= 0.0:
        return 0.0
    own = self_times(spans)
    uncovered = sum(own[s["id"]] for s in spans if s["parent"] is None)
    return 1.0 - uncovered / op_wall


# --------------------------------------------------------------------- #
# statistics


@dataclass(frozen=True)
class Stat:
    """A reported timing and the number of samples behind it."""

    value: float
    n: int = 1


def median(samples: Iterable[float]) -> Stat:
    """Median with its sample count; 0.0 for an idle layer (no samples)."""
    values = list(samples)
    return Stat(statistics.median(values) if values else 0.0, len(values))


#: A percentile is reported only if this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], pct: int) -> Optional[Stat]:
    """Nearest-rank ``pct``-th percentile, or None when the sample cannot
    carry it.

    With ``n`` samples the nearest-rank value has ``n - ceil(pct*n/100)``
    samples beyond it; fewer than :data:`MIN_SAMPLES_BEYOND` and the
    percentile is noise, so it is withheld (p90 needs n >= 100).
    """
    n = len(samples)
    rank = -(-pct * n // 100)  # integer ceil: 0.9 * 100 is not 90.0
    if n - rank < MIN_SAMPLES_BEYOND or rank < 1:
        return None
    return Stat(sorted(samples)[rank - 1], n)


def geometric_mean(values: Sequence[float]) -> float:
    if not values or any(v <= 0.0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
