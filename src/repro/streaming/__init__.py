"""Crash-safe streaming ingestion: WAL, head overlay, atomic compaction.

The write path the read-only reproduction was missing (ROADMAP
"Streaming ingestion with incremental result maintenance"):

- :mod:`repro.streaming.wal` — an append-only, CRC-framed write-ahead
  log of graph activities with configurable fsync policies
  (``always`` / ``batch`` / ``os``) and torn-tail recovery;
- :mod:`repro.streaming.store` — :class:`StreamingStore`, a mutable
  "head" (the activity log as columns) layered over the immutable
  snapshot-group store, recovered from the WAL on every open;
- :mod:`repro.streaming.compact` — compaction of head + base into fresh
  edge files, published with the write -> fsync -> ``os.replace`` ->
  directory-fsync discipline and a manifest swap;
- :mod:`repro.streaming.fsck` — offline integrity audit of a store
  directory and its WAL (the ``repro fsck`` subcommand).

Every durability boundary carries a named crash point
(:data:`repro.resilience.faults.CRASH_POINTS`) so the kill-then-recover
matrix can prove that a death at any of them is survivable.
"""

from repro.streaming.fsck import fsck_store
from repro.streaming.store import RecoveryReport, StreamingStore
from repro.streaming.wal import (
    FSYNC_POLICIES,
    WalFrame,
    WalWriter,
    scan_wal,
)

__all__ = [
    "FSYNC_POLICIES",
    "RecoveryReport",
    "StreamingStore",
    "WalFrame",
    "WalWriter",
    "fsck_store",
    "scan_wal",
]
