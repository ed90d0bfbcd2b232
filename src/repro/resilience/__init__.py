"""Fault tolerance: injection and checkpoint/resume.

This package makes partial failure a handled case instead of a run-ending
one:

- :mod:`repro.resilience.faults` — a seeded, deterministic
  :class:`~repro.resilience.faults.FaultPlan` that can corrupt bytes of a
  storage file, simulate a process death at a named durability point of
  the streaming write path (``crash_point``, raising
  :class:`~repro.errors.InjectedCrash`), or hard-kill a run mid-series
  (``abort_run_after``). All hooks are zero-overhead when no plan is
  installed (one ``None`` check).
- :mod:`repro.resilience.checkpoint` — per-group result persistence so an
  interrupted series run resumes at the first incomplete group
  (``run(..., checkpoint_dir=...)``), built on the vertex-file storage
  primitives with CRC-verified reloads.
"""

from repro.resilience.faults import FaultPlan, InjectedCrash, active, injected
from repro.resilience.checkpoint import RunCheckpoint

__all__ = [
    "FaultPlan",
    "InjectedCrash",
    "RunCheckpoint",
    "active",
    "injected",
]
