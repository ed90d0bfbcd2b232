#!/usr/bin/env python
"""Validate observability exports: JSONL event logs and Chrome traces.

Usage::

    python scripts/validate_trace.py --jsonl events.jsonl
    python scripts/validate_trace.py --chrome trace.json

Checks (the CI observability job's schema gate):

- **JSONL** (``repro run --trace-jsonl``): every line is a JSON object
  carrying the internal event schema (name/cat/ph/ts/dur/pid/tid/depth/
  args), ``ph`` is ``"X"`` or ``"i"``, durations are non-negative, and
  categories come from the engine's known set.
- **Chrome** (``repro run --trace out.json`` / ``repro trace``): the
  file is one valid JSON object with a ``traceEvents`` list, containing
  exactly one depth-0 ``run`` span, at least one ``group``/``iteration``
  span each, and ``thread_name`` metadata.

Exit status 0 when every file validates; 1 with a message otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

REQUIRED_KEYS = (
    "name", "cat", "ph", "ts", "dur", "pid", "tid", "depth", "args",
)
KNOWN_CATEGORIES = {"run", "group", "iteration", "phase"}


def fail(msg: str) -> None:
    print(f"validate_trace: FAIL — {msg}")
    sys.exit(1)


def validate_jsonl(path: str) -> int:
    count = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                fail(f"{path}:{lineno}: not JSON ({exc})")
            if not isinstance(event, dict):
                fail(f"{path}:{lineno}: event is not an object")
            missing = [k for k in REQUIRED_KEYS if k not in event]
            if missing:
                fail(f"{path}:{lineno}: missing keys {missing}")
            if event["ph"] not in ("X", "i"):
                fail(f"{path}:{lineno}: unknown phase type {event['ph']!r}")
            if event["cat"] not in KNOWN_CATEGORIES:
                fail(f"{path}:{lineno}: unknown category {event['cat']!r}")
            if event["dur"] < 0:
                fail(f"{path}:{lineno}: negative duration")
            if not isinstance(event["args"], dict):
                fail(f"{path}:{lineno}: args is not an object")
            count += 1
    if count == 0:
        fail(f"{path}: no events")
    return count


def validate_chrome(path: str) -> int:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            fail(f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing traceEvents")
    events: List[Dict[str, Any]] = doc["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    meta = [e for e in events if e.get("ph") == "M"]
    if not any(e.get("name") == "thread_name" for e in meta):
        fail(f"{path}: no thread_name metadata")
    by_cat: Dict[str, int] = {}
    for e in spans:
        by_cat[e.get("cat", "?")] = by_cat.get(e.get("cat", "?"), 0) + 1
        if e.get("ts", -1) < 0 or e.get("dur", -1) < 0:
            fail(f"{path}: span {e.get('name')!r} has negative ts/dur")
    if by_cat.get("run", 0) != 1:
        fail(f"{path}: expected exactly one run span, got {by_cat.get('run', 0)}")
    for cat in ("group", "iteration"):
        if by_cat.get(cat, 0) < 1:
            fail(f"{path}: no {cat} spans")
    return len(events)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jsonl", action="append", default=[],
                        metavar="PATH", help="JSONL event log to validate")
    parser.add_argument("--chrome", action="append", default=[],
                        metavar="PATH", help="Chrome trace JSON to validate")
    args = parser.parse_args(argv)
    if not args.jsonl and not args.chrome:
        parser.error("nothing to validate: pass --jsonl and/or --chrome")
    for path in args.jsonl:
        n = validate_jsonl(path)
        print(f"validate_trace: ok — {path}: {n} JSONL events")
    for path in args.chrome:
        n = validate_chrome(path)
        print(f"validate_trace: ok — {path}: {n} Chrome trace events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
