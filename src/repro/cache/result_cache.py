"""The two-tier memoized-result cache: in-memory LRU over an on-disk tier.

One entry memoizes one LABS group's converged ``(values, counters)``
under the key of :mod:`repro.cache.keys`. The **memory tier** is a
bounded LRU (entry count and byte budget) shared process-wide per cache
directory, so repeated runs in one process hit without touching disk.
The **disk tier** (optional: ``directory=None`` keeps the cache
memory-only) persists entries as a raw ``.npy`` value array plus a JSON
sidecar carrying the counters, provenance metadata, and a CRC32 over
the value bytes — published through :mod:`repro.storage.atomic`
(write → fsync → rename → directory-fsync), so a cache entry is either
complete and verifiable or treated as absent. Entries land as each
group completes, which makes the disk tier a run's crash checkpoint: a
rerun serves every group already persisted and computes the rest.

Misses are the only failure mode: an unreadable, truncated, bit-flipped
or format-mismatched entry is reported as a miss (and the damaged files
dropped), never as data. ``stats()``, ``clear()``, and ``verify()``
back the ``repro cache`` CLI subcommand.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.counters import EngineCounters
from repro.errors import StorageError
from repro.obs import runtime as obs
from repro.storage.atomic import (
    atomic_write_json,
    atomic_write_via,
    remove_stale_tmp,
)

__all__ = ["CacheEntry", "ResultCache", "result_cache", "reset_process_caches"]

#: Default memory-tier bounds (per process, per cache directory).
DEFAULT_MEMORY_ENTRIES = 128
DEFAULT_MEMORY_BYTES = 256 * 1024 * 1024

_VALUES_SUFFIX = ".npy"
_META_SUFFIX = ".json"
_ENTRY_PREFIX = "entry_"


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


@dataclasses.dataclass
class CacheEntry:
    """One memoized group result (values are read-only)."""

    key: str
    values: np.ndarray
    counters: EngineCounters
    meta: Dict[str, Any]

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes)


class ResultCache:
    """Fingerprint-keyed memoized results; see the module docstring."""

    def __init__(
        self,
        directory: "str | os.PathLike[str] | None" = None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        memory_bytes: int = DEFAULT_MEMORY_BYTES,
    ) -> None:
        if memory_entries <= 0:
            raise StorageError(
                f"memory_entries must be positive, got {memory_entries}"
            )
        if memory_bytes <= 0:
            raise StorageError(
                f"memory_bytes must be positive, got {memory_bytes}"
            )
        self.directory: Optional[Path] = (
            Path(directory) if directory is not None else None
        )
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            remove_stale_tmp(self.directory)
        self.memory_entries = memory_entries
        self.memory_bytes = memory_bytes
        self._memory: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._memory_nbytes = 0
        #: Process-lifetime tallies (mirrored into the obs registry too).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalid_entries = 0

    # ------------------------------------------------------------------ #
    # lookup / insert

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry under ``key``, or None (a verified miss)."""
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            obs.add("cache.hits")
            obs.add("cache.bytes_read", entry.nbytes)
            return entry
        entry = self._disk_get(key)
        if entry is not None:
            self._memory_put(entry)
            self.hits += 1
            obs.add("cache.hits")
            obs.add("cache.bytes_read", entry.nbytes)
            return entry
        self.misses += 1
        obs.add("cache.misses")
        return None

    def put(
        self,
        key: str,
        values: np.ndarray,
        counters: EngineCounters,
        meta: Optional[Dict[str, Any]] = None,
    ) -> CacheEntry:
        """Memoize one computed result under ``key`` (both tiers)."""
        stored = np.array(values, dtype=np.float64, copy=True)
        stored.flags.writeable = False
        entry = CacheEntry(
            key=key, values=stored, counters=counters, meta=dict(meta or {})
        )
        self._memory_put(entry)
        self._disk_put(entry)
        self.stores += 1
        obs.add("cache.stores")
        obs.add("cache.bytes_written", entry.nbytes)
        return entry

    # ------------------------------------------------------------------ #
    # memory tier

    def _memory_put(self, entry: CacheEntry) -> None:
        old = self._memory.pop(entry.key, None)
        if old is not None:
            self._memory_nbytes -= old.nbytes
        self._memory[entry.key] = entry
        self._memory_nbytes += entry.nbytes
        while self._memory and (
            len(self._memory) > self.memory_entries
            or self._memory_nbytes > self.memory_bytes
        ):
            _, evicted = self._memory.popitem(last=False)
            self._memory_nbytes -= evicted.nbytes
            self.evictions += 1
            obs.add("cache.memory_evictions")

    # ------------------------------------------------------------------ #
    # disk tier

    def _paths(self, key: str) -> Tuple[Path, Path]:
        assert self.directory is not None
        base = self.directory / f"{_ENTRY_PREFIX}{key}"
        return (
            base.with_suffix(_VALUES_SUFFIX),
            base.with_suffix(_META_SUFFIX),
        )

    def _disk_get(self, key: str) -> Optional[CacheEntry]:
        if self.directory is None:
            return None
        values_path, meta_path = self._paths(key)
        if not meta_path.exists() or not values_path.exists():
            return None
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
            values = np.load(values_path, allow_pickle=False)
        except (OSError, ValueError, json.JSONDecodeError):
            self._drop_damaged(key)
            return None
        if meta.get("key") != key:
            self._drop_damaged(key)
            return None
        if values.dtype != np.float64 or _crc(
            np.ascontiguousarray(values).tobytes()
        ) != meta.get("crc"):
            self._drop_damaged(key)
            return None
        try:
            counters = EngineCounters(**meta["counters"])
        except (KeyError, TypeError):
            self._drop_damaged(key)
            return None
        values.flags.writeable = False
        return CacheEntry(
            key=key, values=values, counters=counters,
            meta=dict(meta.get("meta") or {}),
        )

    def _disk_put(self, entry: CacheEntry) -> None:
        if self.directory is None:
            return
        values_path, meta_path = self._paths(entry.key)

        def _save(tmp: Path) -> None:
            # Writer callback: atomic_write_via hands it a tmp sibling and
            # fsyncs + renames after. The tag covers np.save below, whose
            # target is the handle, not a path CHF003 can trace to tmp.
            with open(tmp, "wb") as fh:  # chronolint: allow-atomic-write
                np.save(fh, entry.values, allow_pickle=False)

        atomic_write_via(values_path, _save, tag="npy")
        payload = {
            "key": entry.key,
            "crc": _crc(np.ascontiguousarray(entry.values).tobytes()),
            "shape": list(entry.values.shape),
            "counters": dataclasses.asdict(entry.counters),
            "meta": entry.meta,
        }
        # Meta lands last: a crash leaves a value file without its
        # sidecar, which get() treats as a plain miss.
        atomic_write_json(meta_path, payload, tag="meta")

    def _drop_damaged(self, key: str) -> None:
        """Remove an unverifiable entry so it cannot keep costing reads."""
        self.invalid_entries += 1
        obs.add("cache.invalid_entries")
        values_path, meta_path = self._paths(key)
        for path in (values_path, meta_path):
            try:
                path.unlink()
            except OSError:
                pass  # best-effort cleanup; a miss is already returned

    # ------------------------------------------------------------------ #
    # maintenance (the `repro cache` subcommand)

    def _disk_keys(self) -> List[str]:
        if self.directory is None:
            return []
        return sorted(
            p.name[len(_ENTRY_PREFIX) : -len(_META_SUFFIX)]
            for p in self.directory.glob(
                f"{_ENTRY_PREFIX}*{_META_SUFFIX}"
            )
        )

    def stats(self) -> Dict[str, Any]:
        """Both tiers' current shape plus process-lifetime tallies."""
        disk_entries = 0
        disk_bytes = 0
        programs: Dict[str, int] = {}
        if self.directory is not None:
            for key in self._disk_keys():
                values_path, meta_path = self._paths(key)
                disk_entries += 1
                for p in (values_path, meta_path):
                    try:
                        disk_bytes += p.stat().st_size
                    except OSError:
                        pass  # entry racing a concurrent clear
                try:
                    with open(meta_path) as fh:
                        name = (json.load(fh).get("meta") or {}).get(
                            "program", "?"
                        )
                except (OSError, json.JSONDecodeError):
                    name = "?"
                programs[str(name)] = programs.get(str(name), 0) + 1
        return {
            "directory": str(self.directory) if self.directory else None,
            "memory": {
                "entries": len(self._memory),
                "bytes": self._memory_nbytes,
                "max_entries": self.memory_entries,
                "max_bytes": self.memory_bytes,
            },
            "disk": {
                "entries": disk_entries,
                "bytes": disk_bytes,
                "programs": programs,
            },
            "lifetime": {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "invalid_entries": self.invalid_entries,
            },
        }

    def clear(self) -> int:
        """Drop every entry in both tiers; returns entries removed."""
        removed = len(self._memory)
        self._memory.clear()
        self._memory_nbytes = 0
        for key in self._disk_keys():
            values_path, meta_path = self._paths(key)
            for path in (values_path, meta_path):
                try:
                    path.unlink()
                except OSError:
                    pass  # already gone
            removed += 1
        return removed

    def verify(self) -> Dict[str, int]:
        """Integrity-check every disk entry (CRC + metadata shape).

        Returns ``{"checked": n, "valid": n, "invalid": n}``; invalid
        entries are dropped, exactly as a lookup would drop them.
        """
        checked = valid = 0
        before = self.invalid_entries
        for key in self._disk_keys():
            checked += 1
            if self._disk_get(key) is not None:
                valid += 1
        return {
            "checked": checked,
            "valid": valid,
            "invalid": self.invalid_entries - before,
        }


#: Process-wide cache instances, keyed by resolved directory (None = the
#: shared memory-only cache), so every run in a process warms one LRU.
_PROCESS_CACHES: Dict[Optional[str], ResultCache] = {}


def result_cache(
    directory: "str | os.PathLike[str] | None" = None,
) -> ResultCache:
    """The process-wide :class:`ResultCache` for ``directory``."""
    key = str(Path(directory).resolve()) if directory is not None else None
    cache = _PROCESS_CACHES.get(key)
    if cache is None:
        cache = ResultCache(directory)
        _PROCESS_CACHES[key] = cache
    return cache


def reset_process_caches() -> None:
    """Forget every process-wide instance (tests and benchmarks)."""
    _PROCESS_CACHES.clear()
