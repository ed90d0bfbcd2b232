"""The traced run's second source: the program's own ``repro.obs``.

``Watch.op()`` installs a fresh public ``repro.obs.observe()`` around one
benchmark op and folds what it recorded — exact registry counters, phase
seconds per lane, run wall — into running totals. With tracing off it is a
no-op, so the untraced section never touches ``repro.obs``.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro import obs

#: Parent-lane phases that happen inside ``run()``; what is left of the
#: run's wall after them is ``engine.unattributed_s``.
RUN_PHASES = ("plan", "scatter", "apply", "gather", "dispatch", "cache", "seed")


class Watch:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: Registry counters summed over every watched op.
        self.counters: Dict[str, float] = defaultdict(float)
        #: Phase seconds on the parent lane / summed over worker lanes.
        self.parent_phase_s: Dict[str, float] = defaultdict(float)
        self.worker_phase_s: Dict[str, float] = defaultdict(float)
        self.run_wall_s = 0.0
        self.runs = 0
        self.events = 0

    @contextmanager
    def op(self) -> Iterator[Optional[obs.Observation]]:
        if not self.enabled:
            yield None
            return
        observation = obs.observe()
        try:
            yield observation
        finally:
            obs.disable()
            self._fold(observation)

    def _fold(self, observation: obs.Observation) -> None:
        for name, value in observation.registry.snapshot()["counters"].items():
            self.counters[name] += value
        events = observation.tracer.events
        self.events += len(events)
        for e in events:
            if e["ph"] != "X":
                continue
            if e["cat"] == "phase":
                lane = self.worker_phase_s if e["tid"] else self.parent_phase_s
                lane[str(e["name"])] += float(e["dur"])
            elif e["cat"] == "run" and e["depth"] == 0:
                self.run_wall_s += float(e["dur"])
                self.runs += 1

    # ----------------------------------------------------------------- #

    def per_run(self, phase: str, worker: bool = False) -> float:
        """Mean seconds per run spent in ``phase``."""
        if not self.runs:
            return 0.0
        lane = self.worker_phase_s if worker else self.parent_phase_s
        return lane.get(phase, 0.0) / self.runs

    def unattributed_s(self) -> float:
        """Mean run wall not covered by any parent-lane phase."""
        if not self.runs:
            return 0.0
        covered = sum(self.parent_phase_s.get(p, 0.0) for p in RUN_PHASES)
        return (self.run_wall_s - covered) / self.runs

    def unattributed_share(self) -> float:
        if self.run_wall_s <= 0.0:
            return 0.0
        return self.unattributed_s() * self.runs / self.run_wall_s
