"""CHF002 — exception-flow audit: typed raises + retry classification.

Two arms, both driven by the analyzed package's own ``errors.py`` AST
(never a live import — the golden tests analyze synthetic packages):

1. **Deep typed raises.** CHR005 flags untyped raises per file; this arm
   proves the interprocedural statement: every ``raise`` *reachable from
   a public API surface* constructs a class defined in ``repro.errors``
   (or a builtin :func:`repro.lint.rules.untyped_raise` sanctions). The
   report carries the public-entry-to-raise chain, which per-file
   linting cannot see.

2. **Retry classification.** ``resilience/retry.py`` retries exactly the
   infrastructure faults; ``repro.errors`` declares the intended split as
   ``__retryable__`` / ``__non_retryable__`` tuples. The pass checks that
   declaration against the *actual* class hierarchy (a declared
   non-retryable class must not inherit from a declared retryable one —
   subclassing ``WorkerError`` is what makes an exception retryable) and
   against the *actual* ``except`` handlers of ``execute_with_retry``
   (each caught class must be declared retryable; a broad catch would
   silently retry deterministic failures like ``ShardRaceError``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.callgraph import FunctionInfo, Program, attr_chain
from repro.lint.core import Finding, Rule, register
from repro.lint.effects import reachable_from
from repro.lint.rules import error_hierarchy, untyped_raise

__all__ = ["ExceptionFlowPass"]

_ERRORS_MODULE_SUFFIX = "errors"
_RETRY_MODULE_SUFFIX = "resilience.retry"
_RETRY_FUNCTION = "execute_with_retry"


def _handler_names(handler: ast.ExceptHandler) -> List[Tuple[str, ast.AST]]:
    """Class names an except handler catches (dotted tails included)."""
    expr = handler.type
    if expr is None:
        return [("<bare>", handler)]
    exprs = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    out: List[Tuple[str, ast.AST]] = []
    for e in exprs:
        chain = attr_chain(e)
        if chain is not None:
            out.append((chain[-1], e))
    return out


@register
class ExceptionFlowPass(Rule):
    rule_id = "CHF002"
    slug = "untyped-flow"
    title = "public-surface raises are typed; retry classes match declaration"
    invariant = (
        "every raise reachable from a public API is a repro.errors type, "
        "and execute_with_retry catches exactly the classes errors.py "
        "declares retryable (never ShardRaceError/InjectedCrash)"
    )

    def run(self, program: Program) -> Iterable[Finding]:
        errors_mod = program.find_module(_ERRORS_MODULE_SUFFIX)
        ancestry: Dict[str, Set[str]] = (
            {} if errors_mod is None else error_hierarchy(errors_mod.tree)
        )
        yield from self._deep_raises(program, set(ancestry))
        yield from self._retry_classification(program, ancestry)

    # -- arm 1: untyped raises reachable from the public surface -------- #

    def _deep_raises(
        self, program: Program, typed: Set[str]
    ) -> Iterable[Finding]:
        errors_mod = program.find_module(_ERRORS_MODULE_SUFFIX)
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
                    "so callers and the retry machinery can dispatch "
                    "on the hierarchy",
                    chain if len(chain) > 1 else (),
                )

    # -- arm 2: retryable/non-retryable classification ------------------ #

    def _retry_classification(
        self,
        program: Program,
        ancestry: Dict[str, Set[str]],
    ) -> Iterable[Finding]:
        errors_mod = program.find_module(_ERRORS_MODULE_SUFFIX)
        if errors_mod is None:
            return
        retryable = program.declaration("__retryable__")
        non_retryable = program.declaration("__non_retryable__")
        if not retryable and not non_retryable:
            return  # package declares no retry semantics to check

        def is_retryable(name: str) -> bool:
            return name in retryable or bool(
                ancestry.get(name, set()) & retryable
            )

        # A declared non-retryable class sitting in the retryable subtree
        # would be silently retried — deterministic failures (shard races,
        # injected crashes) must abort, not burn retry budget.
        for name in sorted(non_retryable):
            cls = errors_mod.classes.get(name)
            where = cls.node if cls is not None else None
            if name not in ancestry:
                yield self.finding(
                    errors_mod.path,
                    where,
                    f"__non_retryable__ names {name}, which errors.py "
                    "does not define",
                )
            elif is_retryable(name):
                yield self.finding(
                    errors_mod.path,
                    where,
                    f"{name} is declared non-retryable but inherits "
                    "from a retryable class "
                    f"({sorted(ancestry.get(name, set()) & retryable)}); "
                    "the retry machinery would silently retry it",
                )

        retry_mod = program.find_module(_RETRY_MODULE_SUFFIX)
        if retry_mod is None:
            return
        retry_fn: Optional[FunctionInfo] = None
        for fn in retry_mod.functions.values():
            if fn.name == _RETRY_FUNCTION and fn.cls is None:
                retry_fn = fn
                break
        if retry_fn is None:
            return
        for node in retry_fn.body:
            if not isinstance(node, ast.ExceptHandler):
                continue
            for name, where in _handler_names(node):
                if name == "<bare>" or not is_retryable(name):
                    yield self.finding(
                        retry_fn.path,
                        where,
                        f"{_RETRY_FUNCTION} catches {name}, which "
                        "errors.py does not declare retryable "
                        f"(__retryable__ = {sorted(retryable)}); a "
                        "broad catch here would retry deterministic "
                        "failures that fail identically every attempt",
                    )
