"""CHF004 — IPC boundary typing: framed values trace to declared pickles.

The WorkerPool framing (``call_each`` / ``call_all`` / ``conn.send`` /
``conn.send_bytes``, including the explicit ``pickle.dumps`` +
``send_bytes`` batched dispatch) crosses a process boundary. Lambdas and
closures do not pickle at all; ndarrays pickle by *copying*, silently
defeating the shared-memory design (workers map published segments).
The payload expression is resolved through local assignments and
``pickle.dumps`` unwrapping, so a lambda or ndarray factory is caught
whether it sits literally inside the call's arguments or was merely
*named* before crossing:

.. code-block:: python

    payload = np.zeros(n, dtype=np.float64)
    conn.send_bytes(pickle.dumps(("blk", payload)))

(A syntactic twin, CHR004, saw only the literal case; it is gone.) Package-class
constructions inside a payload must appear in the module-level
``__ipc_picklable__`` declaration (the shm layer declares
``BlockSpec``); a class outside the registry may pickle today
and silently stop pickling (or start copying) after a refactor, so
crossing the boundary is an explicit contract, not an accident. Names
that resolve to nothing (parameters, foreign calls) stay optimistic.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set

from repro.lint.callgraph import (
    FunctionInfo,
    ModuleInfo,
    Program,
    attr_chain,
)
from repro.lint.core import Finding, Rule, register

__all__ = ["IpcBoundaryPass"]

_IPC_METHODS = frozenset({"call_each", "call_all"})
_NDARRAY_FACTORIES = frozenset({
    "array", "asarray", "ascontiguousarray", "zeros", "ones", "empty",
    "full", "arange", "frombuffer", "copy", "memmap",
})
#: The declaration consumed from analyzed modules.
_REGISTRY_NAME = "__ipc_picklable__"


def _is_ipc_call(func: ast.expr) -> bool:
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in _IPC_METHODS:
        return True
    if func.attr in ("send", "send_bytes"):
        chain = attr_chain(func.value)
        terminal = chain[-1] if chain else ""
        return "conn" in terminal or "pipe" in terminal
    return False


def _local_assignments(fn: FunctionInfo) -> Dict[str, ast.expr]:
    """Last simple assignment per local name (straight-line approximation)."""
    out: Dict[str, ast.expr] = {}
    for node in fn.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                out[target.id] = node.value
    return out


def _unwrap_dumps(expr: ast.expr) -> ast.expr:
    """``pickle.dumps(X, ...)`` -> ``X`` (the framed value is X)."""
    if isinstance(expr, ast.Call):
        chain = attr_chain(expr.func)
        if chain is not None and chain[-1] == "dumps" and expr.args:
            return expr.args[0]
    return expr


@register
class IpcBoundaryPass(Rule):
    rule_id = "CHF004"
    slug = "ipc-value"
    title = "IPC payloads trace back to declared-picklable constructors"
    invariant = (
        "every value crossing the WorkerPool send/send_bytes framing is a "
        "primitive, a declared __ipc_picklable__ class, or pre-serialized "
        "bytes — traced through local assignments, not just literal args"
    )

    def run(self, program: Program) -> Iterable[Finding]:
        for qualname in sorted(program.functions):
            fn = program.functions[qualname]
            module = program.modules[fn.module]
            locals_map = _local_assignments(fn)
            for node in fn.body:
                if not isinstance(node, ast.Call) or not _is_ipc_call(node.func):
                    continue
                payload = list(node.args) + [kw.value for kw in node.keywords]
                for arg in payload:
                    yield from self._check_value(
                        program, module, fn, locals_map,
                        _unwrap_dumps(arg), node, set(),
                    )

    def _check_value(
        self,
        program: Program,
        module: ModuleInfo,
        fn: FunctionInfo,
        locals_map: Dict[str, ast.expr],
        expr: ast.expr,
        site: ast.Call,
        seen: Set[str],
    ) -> Iterable[Finding]:
        registry = program.declaration(_REGISTRY_NAME)
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Lambda):
                yield self._violation(
                    fn, sub, site,
                    "a lambda flows into a WorkerPool IPC message; closures "
                    "do not pickle — ship a top-level function name or a "
                    "declared spec",
                )
            elif isinstance(sub, ast.Call):
                chain = attr_chain(sub.func)
                if (
                    chain is not None
                    and len(chain) == 2
                    and chain[0] in ("np", "numpy")
                    and chain[1] in _NDARRAY_FACTORIES
                ):
                    yield self._violation(
                        fn, sub, site,
                        f"an np.{chain[1]} result flows into a WorkerPool "
                        "IPC message; arrays travel via named shm segments "
                        "(BlockSpec), never as pickled payloads",
                    )
                    continue
                cls_key = self._constructed_class(program, module, fn, sub)
                if cls_key is not None:
                    cls_name = cls_key.partition(":")[2]
                    if cls_name not in registry:
                        yield self._violation(
                            fn, sub, site,
                            f"{cls_name} is constructed into a WorkerPool "
                            "IPC message but is not declared in "
                            f"{_REGISTRY_NAME}; crossing the process "
                            "boundary is a contract — declare it picklable "
                            "or ship a primitive spec",
                        )
            elif isinstance(sub, ast.Name) and sub.id not in seen:
                resolved = locals_map.get(sub.id)
                if resolved is not None and resolved is not expr:
                    yield from self._check_value(
                        program, module, fn, locals_map,
                        _unwrap_dumps(resolved), site, seen | {sub.id},
                    )

    def _constructed_class(
        self,
        program: Program,
        module: ModuleInfo,
        fn: FunctionInfo,
        call: ast.Call,
    ) -> Optional[str]:
        func = call.func
        dotted: Optional[str] = None
        if isinstance(func, ast.Name):
            dotted = func.id
        else:
            chain = attr_chain(func)
            if chain is not None:
                dotted = ".".join(chain)
        if dotted is None:
            return None
        cls = program.resolve_class(module, dotted)
        return cls.key if cls is not None else None

    def _violation(
        self, fn: FunctionInfo, node: ast.AST, site: ast.Call, message: str
    ) -> Finding:
        return self.finding(
            fn.path,
            node,
            f"{message} (framing call at line {site.lineno} in {fn.qualname})",
        )
