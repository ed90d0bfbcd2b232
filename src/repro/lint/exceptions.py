"""CHF002 — exception-flow audit: typed raises along public call chains.

CHR005 flags untyped raises per file; this pass proves the
interprocedural statement: every ``raise`` *reachable from a public API
surface* constructs a class defined in ``repro.errors`` (or a builtin
:func:`repro.lint.rules.untyped_raise` sanctions). The hierarchy is read
from the analyzed package's own ``errors.py`` AST (never a live import —
the golden tests analyze synthetic packages), and the report carries the
public-entry-to-raise chain, which per-file linting cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from repro.lint.callgraph import Program
from repro.lint.core import Finding, Rule, register
from repro.lint.effects import reachable_from
from repro.lint.rules import error_hierarchy, untyped_raise

__all__ = ["ExceptionFlowPass"]

_ERRORS_MODULE_SUFFIX = "errors"


@register
class ExceptionFlowPass(Rule):
    rule_id = "CHF002"
    slug = "untyped-flow"
    title = "public-surface raises are typed"
    invariant = (
        "every raise reachable from a public API is a repro.errors type"
    )

    def run(self, program: Program) -> Iterable[Finding]:
        errors_mod = program.find_module(_ERRORS_MODULE_SUFFIX)
        typed: Set[str] = (
            set() if errors_mod is None else set(error_hierarchy(errors_mod.tree))
        )
        errors_name = errors_mod.name if errors_mod is not None else None
        public = sorted(
            qual
            for qual, fn in program.functions.items()
            if fn.is_public and fn.module != errors_name
        )
        chains = reachable_from(program, public)
        for qualname in sorted(chains):
            fn = program.functions[qualname]
            if fn.module == errors_name:
                continue  # the hierarchy module itself (pickling helpers)
            for node in fn.body:
                if not isinstance(node, ast.Raise):
                    continue
                name = untyped_raise(node, typed, (fn.name,))
                if name is None:
                    continue
                chain = chains[qualname]
                via = (
                    f" (reached from public {chain[0]})"
                    if len(chain) > 1 else ""
                )
                yield self.finding(
                    fn.path,
                    node,
                    f"raise {name} in {qualname} escapes to the public "
                    f"API untyped{via}; construct a repro.errors class "
                    "so callers can dispatch on the hierarchy",
                    chain if len(chain) > 1 else (),
                )
