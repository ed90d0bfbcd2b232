"""Execution engines: push / pull / stream modes with LABS scheduling.

This package is the paper's primary contribution. The
:func:`~repro.engine.runner.run` entry point executes a vertex program over
a snapshot series under an :class:`~repro.engine.config.EngineConfig` that
selects:

- the **mode** — vertex-centric push or pull, or edge-centric stream
  (Section 5);
- the **layout** — time-locality (Chronos) or structure-locality
  (the baseline / Grace-style layout) (Section 3.2);
- the **batch size** — how many snapshots LABS processes per edge-array
  enumeration; batch size 1 is the paper's snapshot-by-snapshot baseline
  (Section 3.3).

:func:`~repro.engine.runner.simulate` is :func:`run` charged to a
simulated machine (:class:`~repro.engine.config.Simulation`): the cache/TLB
miss counts and simulated cycles that the evaluation figures report.

Incremental execution (Section 3.5) is one seeder in
:mod:`repro.engine.incremental` on :func:`run`'s group loop — under
``EngineConfig(reuse="incremental")``, or through
:func:`incremental_labs`, the Figure 6 protocol. Multi-core and
distributed runners build on these engines from :mod:`repro.parallel`
and :mod:`repro.distributed`.
"""

from repro.engine.config import EngineConfig, Mode, Simulation
from repro.engine.counters import EngineCounters
from repro.engine.incremental import (
    incremental_labs,
    intersection_base_values,
    is_insert_only,
)
from repro.engine.runner import RunResult, run, run_group, simulate

__all__ = [
    "EngineConfig",
    "EngineCounters",
    "Mode",
    "RunResult",
    "Simulation",
    "incremental_labs",
    "intersection_base_values",
    "is_insert_only",
    "run",
    "run_group",
    "simulate",
]
