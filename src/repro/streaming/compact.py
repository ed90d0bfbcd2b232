"""Compaction: fold head + base into fresh v2 edge files, atomically.

The protocol (each step fsync'd before the next, crash points named):

1. **stage** — plan snapshot groups for the full logical graph and write
   every new edge file into a scratch subdirectory
   (``.compact-tmp/``), generation-stamped so no name ever collides
   with a file the live manifest references  [``compact.write``];
2. **publish files** — fsync each staged file and ``os.replace`` it into
   the store directory (still unreferenced: the live manifest does not
   know these names yet)  [``compact.rename``];
3. **swap manifest** — write the new manifest (referencing the new
   generation, carrying the highest WAL sequence absorbed) to a temp
   sibling, fsync, ``os.replace`` over ``manifest.json``, fsync the
   directory  [``manifest.swap``] — the single atomic commit point;
4. **garbage-collect** — delete edge files of older generations and the
   scratch directory; the caller then truncates the WAL.

A death before step 3's rename leaves the old manifest + old files fully
intact (new-generation files are inert garbage that the next open
removes). A death after it leaves the new store committed; the WAL's
absorbed frames are skipped on replay via the manifest's
``streaming.wal_seq``. There is no instant at which a reader can observe
half a store.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import StorageError
from repro.obs import runtime as obs
from repro.resilience import faults
from repro.storage.atomic import atomic_write_via, fsync_dir, publish
from repro.storage.edge_file import write_edge_file
from repro.storage.store import (
    MANIFEST_NAME,
    TemporalGraphStore,
    group_entries,
)
from repro.temporal.graph import TemporalGraph

__all__ = ["COMPACT_TMP_DIR", "compact_to", "edge_file_name", "gc_unreferenced"]

#: Scratch subdirectory compaction stages new edge files in. A stale one
#: (crash during step 1) is deleted wholesale on the next open.
COMPACT_TMP_DIR = ".compact-tmp"


def edge_file_name(generation: int, group_index: int) -> str:
    """Generation-stamped edge-file name: never collides across swaps."""
    return f"edges_g{generation:04d}_{group_index:04d}.chronos"


def referenced_edge_files(manifest: Optional[Dict[str, Any]]) -> List[str]:
    if not manifest:
        return []
    return [str(entry["edge_file"]) for entry in manifest.get("groups", [])]


def gc_unreferenced(path: Path, manifest: Optional[Dict[str, Any]]) -> List[str]:
    """Delete edge files the live manifest does not reference.

    These exist only after a crash between staging/publishing and the
    manifest swap (inert new-generation files) or after a successful
    swap (the previous generation). Returns the removed names.
    """
    keep = set(referenced_edge_files(manifest))
    removed: List[str] = []
    for entry in sorted(path.glob("edges_*.chronos")):
        if entry.name not in keep:
            try:
                entry.unlink()
            except OSError:
                continue  # raced by a concurrent cleanup
            removed.append(entry.name)
    scratch = path / COMPACT_TMP_DIR
    if scratch.is_dir():
        shutil.rmtree(scratch, ignore_errors=True)
    if removed:
        fsync_dir(path)
    return removed


def compact_to(
    path: Path,
    graph: TemporalGraph,
    generation: int,
    absorbed_seq: int,
    redundancy_ratio: float = 0.5,
    max_groups: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the four-step protocol above; returns the committed manifest."""
    if graph.num_activities == 0:
        raise StorageError("cannot compact an empty activity log")
    with obs.span(
        "phase",
        "compact",
        {"generation": generation, "activities": graph.num_activities},
    ):
        return _compact_to(
            path, graph, generation, absorbed_seq, redundancy_ratio,
            max_groups,
        )


def _compact_to(
    path: Path,
    graph: TemporalGraph,
    generation: int,
    absorbed_seq: int,
    redundancy_ratio: float,
    max_groups: Optional[int],
) -> Dict[str, Any]:
    scratch = path / COMPACT_TMP_DIR
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)

    t0, t_end = graph.time_range
    boundaries = TemporalGraphStore._plan_groups(
        graph, redundancy_ratio, max_groups
    )

    # Step 1: stage every new edge file in the scratch directory.
    staged = [edge_file_name(generation, gi) for gi in range(len(boundaries))]
    bytes_written = 0
    for name, (g1, g2) in zip(staged, boundaries):
        write_edge_file(scratch / name, graph, g1, g2)
        bytes_written += (scratch / name).stat().st_size
        faults.maybe_crash("compact.write")
    entries = group_entries(graph, staged, boundaries)

    # Step 2: fsync + publish each staged file (still unreferenced).
    for name in staged:
        with open(scratch / name, "rb") as fh:
            os.fsync(fh.fileno())
        publish(scratch / name, path / name)
        faults.maybe_crash("compact.rename")

    # Step 3: the commit point — swap the manifest.
    manifest: Dict[str, Any] = {
        "num_vertices": graph.num_vertices,
        "time_range": [t0, t_end],
        "redundancy_ratio": redundancy_ratio,
        "groups": entries,
        "streaming": {
            "generation": generation,
            "wal_seq": absorbed_seq,
        },
    }

    def _write(tmp: Path) -> None:
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=1)
        faults.maybe_crash("manifest.swap")

    atomic_write_via(path / MANIFEST_NAME, _write, tag="manifest")

    # Step 4: garbage-collect the superseded generation + scratch dir.
    gc_unreferenced(path, manifest)
    obs.add("compact.runs")
    obs.add("compact.groups", len(entries))
    obs.add("compact.bytes_written", bytes_written)
    return manifest
