"""The metrics registry: named counters, gauges, and histograms.

A :class:`MetricsRegistry` is a plain in-memory map — no clocks, no
threads, no I/O — that the runtime (:mod:`repro.obs.runtime`) exposes to
the engine through :func:`repro.obs.add` / :func:`repro.obs.gauge`.
Snapshots are JSON-ready dicts; :meth:`MetricsRegistry.diff` subtracts
two snapshots so a benchmark can attribute counter movement to one run.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Central store of named counters, gauges, and histograms.

    - **counters** accumulate (:meth:`inc`) or are pinned to a run total
      (:meth:`put` — how ``EngineCounters`` is absorbed, so ``engine.*``
      always reflects the most recent completed run);
    - **gauges** hold the last written value (:meth:`gauge`);
    - **histograms** keep count/sum/min/max per name (:meth:`observe`).
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------- #
    # writes

    def inc(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def put(self, name: str, value: float) -> None:
        """Set counter ``name`` to an absolute total (absorb semantics)."""
        self.counters[name] = value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        h = self.histograms.get(name)
        if h is None:
            self.histograms[name] = {
                "count": 1, "sum": value, "min": value, "max": value,
            }
        else:
            h["count"] += 1
            h["sum"] += value
            if value < h["min"]:
                h["min"] = value
            if value > h["max"]:
                h["max"] = value

    def declare(self, names: Iterable[str]) -> None:
        """Pre-register counters at 0 so snapshots always carry them."""
        for name in names:
            self.counters.setdefault(name, 0)

    # ------------------------------------------------------------- #
    # snapshots

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy: ``{"counters", "gauges", "histograms"}``."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    @staticmethod
    def diff(
        before: Mapping[str, Any], after: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """``after - before`` over two snapshots (counter/histogram deltas;
        gauges report their ``after`` value)."""
        b_counters: Mapping[str, float] = before.get("counters") or {}
        a_counters: Mapping[str, float] = after.get("counters") or {}
        counters = {
            name: a_counters.get(name, 0) - b_counters.get(name, 0)
            for name in sorted(set(b_counters) | set(a_counters))
        }
        b_hist: Mapping[str, Any] = before.get("histograms") or {}
        a_hist: Mapping[str, Any] = after.get("histograms") or {}
        histograms = {}
        for name in sorted(set(b_hist) | set(a_hist)):
            b = b_hist.get(name) or {"count": 0, "sum": 0.0}
            a = a_hist.get(name) or {"count": 0, "sum": 0.0}
            histograms[name] = {
                "count": a["count"] - b["count"],
                "sum": a["sum"] - b["sum"],
            }
        return {
            "counters": counters,
            "gauges": dict(after.get("gauges") or {}),
            "histograms": histograms,
        }
