"""Deterministic fault injection for the storage and streaming layers.

A :class:`FaultPlan` is a declarative list of faults — *which* storage
file gets a byte corrupted, *which* named durability point of the
streaming write path simulates a process death, or *after which* LABS
group (identified by its start snapshot index) the run is hard-killed —
plus a seed for any randomised choice (the corrupted byte offset).
Everything a plan does is a pure function of its specs and seed, so a
failing fault-tolerance test replays exactly.

Injection points are threaded through the code behind a single module
global: production code calls :func:`active` (one attribute read) and does
nothing further when no plan is installed, so the hooks cost nothing in
normal operation. Every fault is consumed when it fires, so a rerun after
the simulated failure takes the clean path.

Typical test usage::

    plan = FaultPlan(seed=3)
    plan.corrupt_file("edges_*.chronos")      # flip one edge-file byte
    with faults.injected(plan):
        TemporalGraphStore.create(path, graph)
    assert plan.fired["corrupt"] == 1
"""

from __future__ import annotations

import fnmatch
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import InjectedCrash, ValidationError

__all__ = [
    "CRASH_POINTS",
    "FaultPlan",
    "InjectedCrash",
    "active",
    "injected",
    "maybe_crash",
]

#: The named durability crash points of the streaming write path, in
#: pipeline order. Each one is exercised by the kill-then-recover matrix
#: in ``tests/test_streaming_recovery.py``.
CRASH_POINTS = (
    "wal.append",
    "wal.fsync",
    "compact.write",
    "compact.rename",
    "manifest.swap",
)


@dataclass
class _Fault:
    kind: str  # "corrupt" | "crash" | "abort"
    group_start: Optional[int] = None
    match: str = "*"
    offset: Optional[int] = None
    xor: int = 0xFF
    remaining: int = 1


class FaultPlan:
    """A seeded, consumable schedule of faults."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._faults: List[_Fault] = []
        #: How many faults of each kind have actually fired.
        self.fired: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # declaration

    def corrupt_file(
        self,
        match: str = "*",
        offset: Optional[int] = None,
        xor: int = 0xFF,
        times: int = 1,
    ) -> "FaultPlan":
        """Corrupt one byte of the next written storage file whose name
        matches ``match`` (``fnmatch`` pattern). ``offset=None`` picks a
        seeded-random byte."""
        self._faults.append(
            _Fault("corrupt", match=match, offset=offset, xor=xor,
                   remaining=times)
        )
        return self

    def crash_point(self, point: str, times: int = 1) -> "FaultPlan":
        """Simulated process death at a named streaming crash point.

        ``point`` is one of :data:`CRASH_POINTS` (``"wal.append"``,
        ``"wal.fsync"``, ``"compact.write"``, ``"compact.rename"``,
        ``"manifest.swap"``). When the running code reaches the point,
        the injection site leaves the on-disk state a killed process
        would (torn frame, unsynced record, half-published compaction)
        and raises :class:`~repro.errors.InjectedCrash`.
        """
        if point not in CRASH_POINTS:
            raise ValidationError(
                f"unknown crash point {point!r}; known: {CRASH_POINTS}"
            )
        self._faults.append(_Fault("crash", match=point, remaining=times))
        return self

    def abort_run_after(self, group_start: int, times: int = 1) -> "FaultPlan":
        """Hard-kill the process (``os._exit``) right after the group
        starting at ``group_start`` completes — after its result-cache
        store under ``reuse`` — simulating a multi-hour run dying
        mid-series."""
        self._faults.append(
            _Fault("abort", group_start=group_start, remaining=times)
        )
        return self

    # ------------------------------------------------------------------ #
    # consumption (called from the injection points)

    def _record(self, fault: _Fault) -> None:
        fault.remaining -= 1
        self.fired[fault.kind] = self.fired.get(fault.kind, 0) + 1

    def maybe_corrupt(self, path: "str | os.PathLike[str]") -> bool:
        """Corrupt ``path`` in place if an armed ``corrupt`` fault matches.

        Returns whether a corruption fired. The byte offset is the spec's,
        or a seeded-random position within the file.
        """
        name = os.path.basename(str(path))
        # A write redirected to an atomic-publish tmp sibling
        # (``edges_0.chronos.tmp-create``) must still match its final
        # name: the corruption is published by the rename, exactly like
        # a bit flip on the logical artifact.
        from repro.storage.atomic import TMP_INFIX

        logical = name.split(TMP_INFIX, 1)[0]
        for fault in self._faults:
            if (
                fault.remaining > 0
                and fault.kind == "corrupt"
                and (
                    fnmatch.fnmatch(name, fault.match)
                    or fnmatch.fnmatch(logical, fault.match)
                )
            ):
                self._record(fault)
                with open(path, "r+b") as fh:
                    fh.seek(0, os.SEEK_END)
                    size = fh.tell()
                    if size == 0:
                        return False
                    offset = (
                        fault.offset
                        if fault.offset is not None
                        else int(self._rng.integers(0, size))
                    )
                    fh.seek(offset)
                    byte = fh.read(1)
                    fh.seek(offset)
                    fh.write(bytes([byte[0] ^ (fault.xor & 0xFF)]))
                return True
        return False

    def take_crash(self, point: str) -> bool:
        """Whether an armed ``crash_point`` fault targets ``point``.

        Consumed on take, so recovery after the simulated death reruns
        the same code path clean — exactly like a restarted process.
        """
        for fault in self._faults:
            if (
                fault.remaining > 0
                and fault.kind == "crash"
                and fault.match == point
            ):
                self._record(fault)
                return True
        return False

    def take_abort(self, group_start: int) -> bool:
        """Whether an armed ``abort`` fault targets this group (consumed)."""
        for fault in self._faults:
            if (
                fault.remaining > 0
                and fault.kind == "abort"
                and fault.group_start == group_start
            ):
                self._record(fault)
                return True
        return False


# ---------------------------------------------------------------------- #
# activation: one module global, one None-check at every hook

_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Make ``plan`` the process-wide active fault plan (None clears)."""
    global _ACTIVE
    _ACTIVE = plan


def clear() -> None:
    install(None)


def active() -> Optional[FaultPlan]:
    """The active plan, or None — the zero-overhead-when-disabled check."""
    return _ACTIVE


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scoped activation: install ``plan``, clear on exit (exception-safe)."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


def maybe_crash(point: str) -> None:
    """Fire an armed crash at ``point``: raise :class:`InjectedCrash`.

    The streaming write path calls this at every durability boundary
    *after* flushing exactly the bytes a killed process would have handed
    to the OS — so when the exception unwinds, the on-disk state is the
    post-``SIGKILL`` state and the test reopens the store against it.
    One attribute read plus a None-check when no plan is installed.
    """
    plan = _ACTIVE
    if plan is not None and plan.take_crash(point):
        raise InjectedCrash(
            f"injected crash at {point}", point=point
        )
