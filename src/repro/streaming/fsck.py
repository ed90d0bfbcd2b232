"""Offline integrity audit of a store directory (``repro fsck``).

Walks everything durable in a store directory and reports, without
modifying anything:

- the manifest: parseable, required fields present, every referenced
  edge file exists;
- every edge file (referenced or not): full
  :meth:`~repro.storage.edge_file.EdgeFile.verify` scan — header,
  vertex index, and per-segment CRCs — reporting each
  :class:`~repro.errors.IntegrityError` with its section details, and,
  for a referenced file, a vertex count that differs from the manifest's;
- the WAL, if present: frame scan with torn-tail diagnosis and the
  absorbed-sequence cross-check against the manifest;
- debris: unpublished temp siblings and a stale compaction scratch dir
  (harmless — the next open removes them — but reported).

``clean`` is True iff nothing is damaged; debris alone does not fail
the audit (exit 0), corruption does (exit 1).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import IntegrityError, StorageError
from repro.storage.atomic import TMP_INFIX
from repro.storage.edge_file import EdgeFile
from repro.storage.store import MANIFEST_NAME, check_vertex_count
from repro.streaming import wal as walmod
from repro.streaming.compact import COMPACT_TMP_DIR

__all__ = ["fsck_store"]

PathLike = Union[str, "Path"]


def _error_detail(exc: StorageError) -> Dict[str, Any]:
    detail: Dict[str, Any] = {
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, IntegrityError):
        detail.update(
            {
                "section": exc.section,
                "expected_crc": exc.expected,
                "actual_crc": exc.actual,
            }
        )
    return detail


def fsck_store(path: PathLike) -> Dict[str, Any]:
    """Audit ``path``; returns a JSON-ready report (see module docs)."""
    path = Path(path)
    report: Dict[str, Any] = {
        "path": str(path),
        "manifest": None,
        "edge_files": [],
        "wal": None,
        "debris": [],
        "errors": [],
        "clean": True,
    }

    def fail(message: str) -> None:
        report["errors"].append(message)
        report["clean"] = False

    if not path.is_dir():
        fail(f"{path} is not a directory")
        return report

    # -- manifest ------------------------------------------------------ #
    manifest: Optional[Dict[str, Any]] = None
    manifest_path = path / MANIFEST_NAME
    if manifest_path.exists():
        entry: Dict[str, Any] = {"file": MANIFEST_NAME, "ok": True}
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            entry.update(ok=False, error=str(exc))
            fail(f"manifest unreadable: {exc}")
        if manifest is not None:
            missing = [
                key
                for key in ("num_vertices", "groups")
                if key not in manifest
            ]
            if missing:
                entry.update(ok=False, missing_fields=missing)
                fail(f"manifest missing required fields: {missing}")
                manifest = None
        report["manifest"] = entry

    referenced = {
        str(group["edge_file"]): group
        for group in (manifest or {}).get("groups", [])
        if isinstance(group, dict) and "edge_file" in group
    }
    for name in referenced:
        if not (path / name).exists():
            fail(f"manifest references missing edge file {name}")

    # -- edge files ---------------------------------------------------- #
    for edge_path in sorted(path.glob("edges_*.chronos")):
        entry = {
            "file": edge_path.name,
            "referenced": edge_path.name in referenced,
            "ok": True,
        }
        try:
            reader = EdgeFile(edge_path)
            entry["segments_verified"] = reader.verify()
            if entry["referenced"]:
                check_vertex_count(reader, (manifest or {}).get("num_vertices"))
        except StorageError as exc:
            entry["ok"] = False
            entry.update(_error_detail(exc))
            fail(f"{edge_path.name}: {exc}")
        report["edge_files"].append(entry)

    # -- WAL ----------------------------------------------------------- #
    wal_path = path / walmod.WAL_NAME
    if wal_path.exists():
        wal_entry: Dict[str, Any] = {"file": walmod.WAL_NAME, "ok": True}
        try:
            scan = walmod.scan_wal(wal_path)
        except StorageError as exc:
            wal_entry["ok"] = False
            wal_entry.update(_error_detail(exc))
            fail(f"{walmod.WAL_NAME}: {exc}")
        else:
            wal_entry.update(
                frames=len(scan.frames),
                records=scan.num_records,
                last_seq=scan.last_seq,
                torn_bytes=scan.torn_bytes,
                torn_reason=scan.torn_reason,
            )
            if scan.torn_bytes:
                # Recoverable by construction, but an audit must say so.
                wal_entry["ok"] = False
                fail(
                    f"{walmod.WAL_NAME}: torn tail of {scan.torn_bytes} "
                    f"bytes ({scan.torn_reason}); `repro recover` will "
                    "truncate it"
                )
            absorbed = int(
                ((manifest or {}).get("streaming") or {}).get("wal_seq", 0)
            )
            wal_entry["absorbed_seq"] = absorbed
            wal_entry["replayable_frames"] = sum(
                1 for frame in scan.frames if frame.seq > absorbed
            )
        report["wal"] = wal_entry

    # -- debris (reported, not fatal) ---------------------------------- #
    debris: List[str] = [
        entry.name
        for entry in sorted(path.iterdir())
        if TMP_INFIX in entry.name and entry.is_file()
    ]
    if (path / COMPACT_TMP_DIR).is_dir():
        debris.append(COMPACT_TMP_DIR + "/")
    unreferenced = [
        e["file"]
        for e in report["edge_files"]
        if not e["referenced"]
    ]
    debris.extend(unreferenced)
    report["debris"] = debris

    if manifest is None and not report["edge_files"] and report["wal"] is None:
        fail(f"nothing to check at {path}: no manifest, edge files, or WAL")
    return report
