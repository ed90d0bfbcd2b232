"""Checkpoint/resume for series runs: persist each completed LABS group.

``run(series, program, config, checkpoint_dir=...)`` stores every
completed group's result through :class:`RunCheckpoint`: the ``(V, S_g)``
value array goes into a vertex file (the storage primitive the paper uses
for persisting computed properties, Section 4.1), the group's logical
counters and a CRC32 of the value bytes go into a JSON manifest. Both are
published through :mod:`repro.storage.atomic` (write → fsync →
``os.replace`` → directory fsync), so a run killed at any instant leaves
either a complete, verifiable group checkpoint or none — at worst a
stale temp sibling, removed on the next open.

On the next run with the same ``checkpoint_dir``, every group whose
checkpoint exists, matches the run's signature, and passes its CRC is
*loaded* instead of recomputed — the run resumes at the first incomplete
group. A checkpoint that fails verification (corrupt file, bad CRC,
different program/config) is discarded with a warning and the group is
recomputed: resuming can degrade to recomputation but never to garbage.

Value reconstruction is bitwise: vertex files store raw IEEE-754 doubles,
and the manifest CRC over ``values.tobytes()`` is re-checked after
reload, which also guards the NaN-for-dead-vertices encoding.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.engine.counters import EngineCounters
from repro.errors import StorageError
from repro.obs import runtime as obs
from repro.storage.atomic import (
    atomic_write_json,
    atomic_write_via,
    remove_stale_tmp,
)
from repro.storage.vertex_file import VertexFile, write_vertex_file

if TYPE_CHECKING:
    from repro.algorithms.program import VertexProgram
    from repro.engine.config import EngineConfig
    from repro.temporal.series import GroupView, SnapshotSeriesView

MANIFEST_NAME = "run_checkpoint.json"


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


class RunCheckpoint:
    """Per-group result persistence for one ``run()`` invocation."""

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        series: "SnapshotSeriesView",
        program: "VertexProgram",
        config: "EngineConfig",
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        remove_stale_tmp(self.directory)
        self.signature = {
            "program": program.name,
            "num_vertices": int(series.num_vertices),
            "num_snapshots": int(series.num_snapshots),
            "times_crc": _crc(repr(tuple(series.times)).encode()),
            "mode": config.mode.value,
            "layout": config.layout.value,
            "batch_size": config.batch_size,
            "max_iterations": config.max_iterations,
        }
        self._groups: dict = {}
        #: Groups served from disk instead of recomputed (this run).
        self.loaded_groups = 0
        #: Groups computed and persisted (this run).
        self.stored_groups = 0
        self._read_manifest()

    # ------------------------------------------------------------------ #

    def _manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _read_manifest(self) -> None:
        path = self._manifest_path()
        if not path.exists():
            return
        try:
            with open(path) as fh:
                manifest = json.load(fh)
        except (json.JSONDecodeError, OSError) as exc:
            warnings.warn(
                f"unreadable run checkpoint manifest at {path} ({exc}); "
                "starting the run from scratch",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        if manifest.get("signature") != self.signature:
            warnings.warn(
                f"checkpoint at {self.directory} was written by a different "
                "run (program/config/series mismatch); ignoring it",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        self._groups = manifest.get("groups", {})

    def _write_manifest(self) -> None:
        payload = {"signature": self.signature, "groups": self._groups}
        atomic_write_json(self._manifest_path(), payload, tag="manifest")

    @staticmethod
    def _key(start: int, stop: int) -> str:
        return f"{start}:{stop}"

    # ------------------------------------------------------------------ #

    def load(
        self, group: "GroupView"
    ) -> Optional[Tuple[np.ndarray, EngineCounters]]:
        """The stored ``(values, counters)`` for ``group``, or None.

        None means "recompute": missing, unverifiable, or corrupt
        checkpoints are all reported the same way, with a warning when a
        checkpoint existed but could not be trusted.
        """
        with obs.span(
            "phase", "checkpoint", {"op": "load", "group": int(group.start)}
        ):
            loaded = self._load(group)
        if loaded is not None:
            obs.add("checkpoint.groups_loaded")
        return loaded

    def _load(
        self, group: "GroupView"
    ) -> Optional[Tuple[np.ndarray, EngineCounters]]:
        entry = self._groups.get(self._key(group.start, group.stop))
        if entry is None:
            return None
        path = self.directory / entry["file"]
        try:
            vf = VertexFile(path)
            snaps = range(group.start, group.stop)
            values = np.column_stack([vf.values_at(s) for s in snaps])
        except (StorageError, OSError) as exc:
            warnings.warn(
                f"group [{group.start}, {group.stop}) checkpoint at {path} "
                f"is unreadable ({exc}); recomputing the group",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        actual = _crc(values.tobytes())
        if actual != entry["crc"]:
            warnings.warn(
                f"group [{group.start}, {group.stop}) checkpoint at {path} "
                f"failed its CRC check (expected 0x{entry['crc']:08x}, got "
                f"0x{actual:08x}); recomputing the group",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        counters = EngineCounters(**entry["counters"])
        self.loaded_groups += 1
        return values, counters

    def store(
        self,
        group: "GroupView",
        values: np.ndarray,
        counters: EngineCounters,
    ) -> None:
        """Persist one completed group (atomic; durable before indexing)."""
        with obs.span(
            "phase", "checkpoint", {"op": "store", "group": int(group.start)}
        ):
            self._store(group, values, counters)
        obs.add("checkpoint.groups_stored")

    def _store(
        self,
        group: "GroupView",
        values: np.ndarray,
        counters: EngineCounters,
    ) -> None:
        name = f"group_{group.start:04d}_{group.stop:04d}.chronosv"
        path = self.directory / name
        # Vertex files store a (V,) checkpoint at the first snapshot plus
        # per-vertex updates where a later snapshot's value differs — the
        # result-persistence shape of paper Section 4.1. Times are global
        # snapshot indices (group boundaries are pinned by the signature).
        snaps = list(range(group.start, group.stop))
        updates = []
        prev = values[:, 0]
        for si in range(1, len(snaps)):
            col = values[:, si]
            changed = ~((col == prev) | (np.isnan(col) & np.isnan(prev)))
            for v in np.nonzero(changed)[0]:
                updates.append((int(v), snaps[si], float(col[v])))
            prev = col
        atomic_write_via(
            path,
            lambda tmp: write_vertex_file(
                tmp, "values", snaps[0], snaps[-1], values[:, 0], updates
            ),
            tag="group",
        )
        self._groups[self._key(group.start, group.stop)] = {
            "file": name,
            "crc": _crc(values.tobytes()),
            "counters": dataclasses.asdict(counters),
        }
        self._write_manifest()
        self.stored_groups += 1

    @property
    def completed(self) -> int:
        """How many group checkpoints the manifest currently indexes."""
        return len(self._groups)
