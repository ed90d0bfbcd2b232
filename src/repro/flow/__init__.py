"""chronoflow: whole-program static analysis over the ``repro`` package.

chronolint (:mod:`repro.lint`) checks one file at a time; the engine's
headline guarantees are *cross-module* contracts. chronoflow builds a
module-level call graph over the package source (:mod:`repro.flow.callgraph`)
and runs four interprocedural passes against it:

- :mod:`repro.flow.effects` (CHF001) — effect/purity inference: everything
  reachable from ``runner.run`` / ``runner._run_series`` is free of
  wall-clock reads, global-RNG draws, env reads, and set-iteration
  nondeterminism outside the injected-clock ``repro.obs`` boundary. This
  machine-checks the determinism contract ``repro.cache.keys.config_digest``
  assumes when it excludes executor/workers/sanitize from the key.
- :mod:`repro.flow.exceptions` (CHF002) — exception-flow audit: every
  ``raise`` reachable from a public API surfaces a ``repro.errors`` type,
  and the retryable/non-retryable split consumed by ``resilience/retry.py``
  matches the semantics ``repro.errors`` declares
  (``__retryable__`` / ``__non_retryable__``).
- :mod:`repro.flow.sinks` (CHF003) — durable-write sink analysis: every
  filesystem write whose path escapes a temp scope flows through the
  ``repro.storage.atomic`` publish helpers or the streaming WAL.
- :mod:`repro.flow.ipc` (CHF004) — IPC boundary typing: values crossing
  the WorkerPool ``send``/``send_bytes`` framing trace back to
  declared-picklable constructors (``__ipc_picklable__``), upgrading
  CHR004 from syntactic to dataflow-based.

Suppression tags share :func:`repro.lint.core.parse_suppressions`; both
``# chronolint:`` and ``# chronoflow:`` prefixes are honoured, so the
CHR008/CHF003 pair can share one ``allow-atomic-write`` tag.
"""

from __future__ import annotations

from repro.flow.base import FlowViolation, all_passes
from repro.flow.callgraph import Program, build_program
from repro.flow.driver import AnalysisResult, analyze_paths

__all__ = [
    "AnalysisResult",
    "FlowViolation",
    "Program",
    "all_passes",
    "analyze_paths",
    "build_program",
]
