"""Exception hierarchy for the Chronos reproduction.

All library-raised exceptions derive from :class:`ChronosError` so callers can
catch a single base type. Subclasses indicate which subsystem rejected the
operation.
"""

from __future__ import annotations


class ChronosError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(ChronosError, ValueError):
    """A value-level argument check failed (bad index, bad range).

    Dual-inherits :class:`ValueError` so call sites that predate the typed
    hierarchy — and the tests written against them — keep working, while
    the raise still satisfies the chronolint CHR005 typed-error contract.
    """


class TemporalGraphError(ChronosError):
    """Invalid temporal-graph construction or query (bad time, bad vertex)."""


class SnapshotError(ChronosError):
    """A snapshot/series request cannot be satisfied (empty range, >64 snaps)."""


class LayoutError(ChronosError):
    """Invalid in-memory layout configuration or address computation."""


class EngineError(ChronosError):
    """Invalid engine configuration or a failure during execution."""


class InjectedCrash(ChronosError):
    """A simulated process death at a named durability crash point.

    Raised by :func:`repro.resilience.faults.maybe_crash` when an armed
    ``crash_point`` fault fires (e.g. ``"wal.append"``,
    ``"manifest.swap"``). The injection site first flushes exactly the
    bytes a killed process would have handed to the OS, so by the time
    this unwinds, the on-disk state is what a real ``SIGKILL`` at that
    instant leaves behind. Tests catch it, reopen the store, and assert
    recovery — production code never catches it.
    """

    def __init__(self, message: str, point: "str | None" = None) -> None:
        super().__init__(message)
        #: The named crash point that fired, when known.
        self.point = point


class ShardRaceError(EngineError):
    """A group run's destination ranges violate owner-computes.

    Every untraced group run proves, before its first write, that its
    in-edge array is destination-sorted and that every range's in-edges
    fall inside the range's destination interval. An unsorted array, a
    mid-vertex cut or an out-of-interval destination raises this, naming
    the group, the writing range and the owning one. The violation is
    deterministic, so the run aborts with the accumulator untouched.
    """

    def __init__(
        self,
        message: str,
        group: "int | None" = None,
        worker: "int | None" = None,
        other: "int | None" = None,
        cell: "int | None" = None,
    ) -> None:
        super().__init__(message)
        #: Start snapshot index of the LABS group whose plan raced.
        self.group = group
        #: Worker that made (or would make) the offending write.
        self.worker = worker
        #: The other worker involved in an overlap, when known.
        self.other = other
        #: Flat accumulator cell index of the offending write, when known
        #: (the stream-order checks, which police whole destination-vertex
        #: runs, report the vertex's ownership key here).
        self.cell = cell

    def __reduce__(self):
        # Keyword attributes need explicit pickling support: the default
        # reduction would rebuild the error from its message alone.
        return (
            _rebuild_shard_race_error,
            (type(self), self.args[0] if self.args else "", self.group,
             self.worker, self.other, self.cell),
        )

    def __str__(self) -> str:
        base = super().__str__()
        parts = []
        if self.group is not None:
            parts.append(f"group {self.group}")
        if self.worker is not None:
            parts.append(f"worker {self.worker}")
        if self.other is not None:
            parts.append(f"worker {self.other}")
        if self.cell is not None:
            parts.append(f"cell {self.cell}")
        return f"{base} ({', '.join(parts)})" if parts else base


def _rebuild_shard_race_error(cls, message, group, worker, other, cell):
    return cls(message, group=group, worker=worker, other=other, cell=cell)


class StorageError(ChronosError):
    """On-disk temporal-graph format violation (corrupt file, bad magic)."""


class IntegrityError(StorageError):
    """A stored section's checksum does not match its contents.

    Raised by the v2 on-disk format readers when a CRC32 over a section
    (header, vertex index, a checkpoint sector, or an activity segment)
    disagrees with the stored value — a bit flip or partial overwrite that
    would otherwise decode as garbage data.
    """

    def __init__(
        self,
        message: str,
        path: "str | None" = None,
        section: "str | None" = None,
        expected: "int | None" = None,
        actual: "int | None" = None,
    ) -> None:
        super().__init__(message)
        #: File the corrupt section lives in, when known.
        self.path = path
        #: Which section failed verification (e.g. ``"vertex index"``).
        self.section = section
        #: The checksum recorded when the section was written.
        self.expected = expected
        #: The checksum of the bytes actually read.
        self.actual = actual

    def __str__(self) -> str:
        base = super().__str__()
        parts = []
        if self.path is not None:
            parts.append(f"file {self.path}")
        if self.section is not None:
            parts.append(f"section {self.section!r}")
        if self.expected is not None and self.actual is not None:
            parts.append(
                f"expected crc 0x{self.expected:08x}, got 0x{self.actual:08x}"
            )
        return f"{base} ({', '.join(parts)})" if parts else base


class PartitionError(ChronosError):
    """Invalid partitioning request or an internally inconsistent partition."""


class SimulationError(ChronosError):
    """Invalid memory-hierarchy / cluster simulation configuration."""
