"""Fault tolerance: deterministic fault injection.

:mod:`repro.resilience.faults` holds a seeded, deterministic
:class:`~repro.resilience.faults.FaultPlan` that can corrupt bytes of a
storage file, simulate a process death at a named durability point of
the streaming write path (``crash_point``, raising
:class:`~repro.errors.InjectedCrash`), or hard-kill a run mid-series
(``abort_run_after``). All hooks are zero-overhead when no plan is
installed (one ``None`` check).

A series run that must survive a crash persists its groups through the
result cache (``EngineConfig(reuse="cache", cache_dir=DIR)``): a rerun
serves every group already on disk and computes the rest.
"""

from repro.resilience.faults import FaultPlan, InjectedCrash, active, injected

__all__ = [
    "FaultPlan",
    "InjectedCrash",
    "active",
    "injected",
]
