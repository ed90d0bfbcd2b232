"""CHF001 — interprocedural effect/purity inference for the run path.

The result cache's ``config_digest`` deliberately excludes executor
and worker count from the cache key: two
runs that differ only in those knobs are *assumed* to produce bitwise
identical values. That assumption holds exactly when nothing reachable
from the engine entry points (``repro.engine.runner.run`` /
``_run_series``) depends on ambient state. This pass checks the two
effects that are legal elsewhere and wrong only on that path:

- ``env-read``    — ``os.environ`` / ``os.getenv`` lookups,
- ``set-iter``    — iteration over a ``set``/``frozenset`` expression
  (hash-order-dependent; iterate ``sorted(...)`` instead).

It infers each function's direct effects and walks the call graph from
the runner roots; a reachable effect is reported with a sample
root-to-function call chain. Calls *into* ``repro.obs`` are the
sanctioned boundary — enabling observability cannot change results — so
the walk does not descend into it. Clock reads and global-RNG draws are
wrong everywhere in the library, not just here: CHR007 and CHR001 flag
every one.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.callgraph import FunctionInfo, Program, attr_chain
from repro.lint.core import Finding, Rule, register

__all__ = ["EffectPurityPass", "direct_effects", "runner_roots"]

#: The injected-clock boundary: reachability does not descend below it.
_OBS_BOUNDARY = "repro.obs"
#: Module holding the engine entry points (the determinism roots).
_RUNNER_MODULE = "repro.engine.runner"
_ROOT_NAMES = ("run", "_run_series")


def _call_effect(node: ast.Call) -> Optional[Tuple[str, str]]:
    """(kind, detail) when a single call expression is directly effectful."""
    chain = attr_chain(node.func)
    if chain is None:
        return None
    dotted = ".".join(chain)
    if len(chain) == 2 and chain[0] == "os" and chain[1] == "getenv":
        return ("env-read", dotted)
    if (
        len(chain) == 3
        and chain[0] == "os"
        and chain[1] == "environ"
        and chain[2] in ("get", "setdefault", "pop")
    ):
        return ("env-read", dotted)
    return None


def _set_typed_locals(fn: FunctionInfo) -> Set[str]:
    """Local names assigned a set/frozenset expression (one step)."""
    out: Set[str] = set()
    for node in fn.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if isinstance(target, ast.Name) and _is_set_expr(node.value, ()):
            out.add(target.id)
    return out


def _is_set_expr(expr: ast.expr, set_locals: Iterable[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("set", "frozenset")
    if isinstance(expr, ast.Name):
        return expr.id in set_locals
    return False


def direct_effects(fn: FunctionInfo) -> List[Tuple[str, str, ast.AST]]:
    """Every (kind, detail, node) effect in ``fn``'s own body."""
    out: List[Tuple[str, str, ast.AST]] = []
    set_locals = _set_typed_locals(fn)
    for node in fn.body:
        if isinstance(node, ast.Call):
            hit = _call_effect(node)
            if hit is not None:
                out.append((hit[0], hit[1], node))
        elif isinstance(node, ast.Subscript):
            chain = attr_chain(node.value)
            if chain == ("os", "environ"):
                out.append(("env-read", "os.environ[...]", node))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter, set_locals):
                out.append((
                    "set-iter",
                    "iteration over a set (hash-order dependent)",
                    node.iter,
                ))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter, set_locals):
                    out.append((
                        "set-iter",
                        "comprehension over a set (hash-order dependent)",
                        gen.iter,
                    ))
    return out


def runner_roots(program: Program) -> List[str]:
    """The determinism roots present in this program."""
    roots: List[str] = []
    for name in _ROOT_NAMES:
        qual = f"{_RUNNER_MODULE}:{name}"
        if qual in program.functions:
            roots.append(qual)
    return roots


def reachable_from(
    program: Program,
    roots: Iterable[str],
    stop_prefix: Optional[str] = None,
) -> Dict[str, Tuple[str, ...]]:
    """BFS closure with sample chains, not descending into ``stop_prefix``."""
    chains: Dict[str, Tuple[str, ...]] = {}
    queue: List[str] = []
    for root in roots:
        if root not in chains:
            chains[root] = (root,)
            queue.append(root)
    while queue:
        current = queue.pop(0)
        module = program.module_of(current)
        if stop_prefix is not None and (
            module == stop_prefix or module.startswith(stop_prefix + ".")
        ):
            continue  # boundary: reachable, but its callees are not
        for edge in program.callees(current):
            if edge.callee not in chains:
                chains[edge.callee] = chains[current] + (edge.callee,)
                queue.append(edge.callee)
    return chains


@register
class EffectPurityPass(Rule):
    rule_id = "CHF001"
    slug = "effect"
    title = "the runner-reachable world reads no environment or set order"
    invariant = (
        "nothing reachable from runner.run/_run_series reads the "
        "environment or set iteration order outside the repro.obs "
        "boundary — the premise of config_digest"
    )

    def run(self, program: Program) -> Iterable[Finding]:
        roots = runner_roots(program)
        if not roots:
            return
        chains = reachable_from(program, roots, stop_prefix=_OBS_BOUNDARY)
        for qualname in sorted(chains):
            module = program.module_of(qualname)
            if module == _OBS_BOUNDARY or module.startswith(_OBS_BOUNDARY + "."):
                continue  # the boundary owns its clock
            fn = program.functions[qualname]
            for kind, detail, node in direct_effects(fn):
                yield self.finding(
                    fn.path,
                    node,
                    f"{kind} effect ({detail}) in {qualname}, which is "
                    "reachable from the deterministic run path; results "
                    "would stop being a pure function of "
                    "(store, program, config)",
                    chains[qualname],
                )
