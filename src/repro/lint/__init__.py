"""chronolint: static enforcement of the engine's correctness contracts.

The engine's headline property — LABS batching with results *bitwise
identical to serial* across executors and result reuse — rests on
invariants (seeded RNG only, audited scatter folds, owner-computes shard
writes, typed errors, pinned dtypes, temp-scoped
durable writes) that nothing in Python enforces. This package enforces
them mechanically, as one analyzer with one rule per property, of two
kinds, over one parse of every file:

- :mod:`repro.lint.core` — the run (read, tokenise and parse each file
  once), :class:`Finding` records, the ``# chronolint:`` suppression-tag
  protocol and its stale-tag audit, the rule registry;
- :mod:`repro.lint.rules` — the per-file rules CHR001–CHR003 and
  CHR005–CHR007, one AST walk per file;
- :mod:`repro.lint.callgraph` — the module-level call graph over the
  library files of the same run;
- the whole-program rules over that graph:
  :mod:`repro.lint.effects` (CHF001, nothing reachable from
  ``runner.run`` reads the environment or set order — the premise of
  ``repro.cache.keys.config_digest``) and :mod:`repro.lint.sinks`
  (CHF003, every raw write's path is temp-scoped);
- :mod:`repro.lint.cli` — the ``chronolint`` console entry point, also
  reachable as ``python -m repro.lint`` and ``repro lint``.

The *dynamic* half of the tooling — the owner-computes proof every group
run makes before its first write — lives with the executor in
:mod:`repro.parallel.shm`.

Public API::

    from repro.lint import analyze_paths, lint_source

    result = analyze_paths(["src"])
    assert not result.active
    findings, _ = lint_source(code, path="src/repro/engine/foo.py")
"""

from repro.lint.callgraph import Program
from repro.lint.core import (
    REGISTRY,
    AnalysisResult,
    FileContext,
    Finding,
    Rule,
    Suppressions,
    all_rules,
    analyze_paths,
    build_program,
    iter_python_files,
    lint_source,
    module_name,
    register,
)

__all__ = [
    "AnalysisResult",
    "FileContext",
    "Finding",
    "Program",
    "REGISTRY",
    "Rule",
    "Suppressions",
    "all_rules",
    "analyze_paths",
    "build_program",
    "iter_python_files",
    "lint_source",
    "module_name",
    "register",
]
