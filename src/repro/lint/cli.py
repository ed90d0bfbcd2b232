"""The ``chronolint`` console entry point (also ``repro lint``).

Usage::

    chronolint src/ benchmarks/ tests/          # CI invocation
    chronolint src/ --strict                    # also audit suppressions
    chronolint src/ --json report.json          # machine-readable report
    chronolint --list-rules                     # what is enforced, and why

Exit status: 0 when every file parses and no *untagged* finding was
found; 1 on untagged findings or unparsable files; with ``--strict``
also 1 when a suppression tag matched nothing (stale tags rot the audit
trail); 2 on usage errors. Suppressed findings are reported under
``--strict`` but never fail the run — that is what the tag is for.
Every run applies every rule; filter the ``--json`` report by rule id.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.lint.core import all_rules, analyze_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronolint",
        description=(
            "Static analyzer for the Chronos engine: per-file invariant "
            "rules (CHR) and call-graph proofs of the run path's "
            "determinism and crash-consistency contracts (CHF)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to analyze"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="report suppressed findings and fail on suppression tags "
        "that no longer match anything",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the full JSON report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule with the invariant it guards",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the summary line (findings still print)",
    )
    return parser


def _cmd_list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.rule_id} (allow-{rule.slug}): {rule.title}")
        print(f"    invariant: {rule.invariant}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        return _cmd_list_rules()
    if not args.paths:
        print("chronolint: no paths given (try: chronolint src/)",
              file=sys.stderr)
        return 2
    result = analyze_paths(args.paths)

    for found in result.active:
        print(found.format())
    if args.strict:
        for found in result.suppressed:
            print(found.format())
    for path in sorted(result.errors):
        print(f"{path}: error: {result.errors[path]}", file=sys.stderr)
    stale = result.stale_tags if args.strict else []
    for path, line, token in stale:
        print(
            f"{path}:{line}:0: STALE suppression tag {token!r} "
            "matches no finding; remove it"
        )

    if args.json:
        payload = json.dumps(result.to_json(), indent=1, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            # Analysis report at a user-chosen path: regenerable by
            # rerunning the tool, never a durability artifact.
            # chronolint: allow-atomic-write
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")

    failed = result.failed(strict=args.strict)
    if not args.quiet:
        bits = [f"{len(result.active)} finding(s)"]
        if result.suppressed:
            bits.append(f"{len(result.suppressed)} suppressed")
        if stale:
            bits.append(f"{len(stale)} stale tag(s)")
        if result.errors:
            bits.append(f"{len(result.errors)} unparsable file(s)")
        bits.append(
            f"{len(result.program.functions)} function(s), "
            f"{result.program.edge_count()} edge(s)"
        )
        status = "FAILED" if failed else "ok"
        print(f"chronolint: {status} — {', '.join(bits)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
