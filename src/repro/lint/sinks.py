"""CHF003 — durable-write sink analysis: no path escapes a temp scope raw.

The crash matrix proves recovery only because every durable byte is
published through :mod:`repro.storage.atomic` (write-to-temp -> fsync ->
``os.replace`` -> dir-fsync) or the CRC-framed WAL. This pass proves the
dataflow statement: at every raw write sink (``open`` in a write mode,
``np.save*``, ``os.replace`` / ``rename``, ``Path.write_*``), the
**path** being written is temp-scoped — it can never be observed by a
reader after a crash. A path is temp-scoped when it derives from

- a local bound to a ``tempfile.*`` allocation or ``_tmp_sibling(...)``,
- a ``self.<attr>`` that some method of the class binds from
  ``tempfile.*`` (an object owning a private temp directory),
- the parameter of a *writer callback* handed to ``atomic_write_via``
  (by name or as an inline lambda — the helper supplies a tmp sibling
  and publishes after),
- a parameter of the enclosing function, **provided every in-package
  call site passes a temp-scoped path** (the obligation propagates up
  the reversed call graph; writer primitives like ``write_edge_file``
  are proven safe at their callers, not assumed safe locally).

Writes inside :mod:`repro.storage.atomic` and :mod:`repro.streaming`
(the publish machinery itself) are exempt, as are callers within them.
Anything else — a module-level results directory, a literal path, a
public writer nobody in-package sanctions — is a torn-write hazard and
must either adopt the helpers or carry a justified ``allow-atomic-write``
tag. (A syntactic twin, CHR008, flagged every raw write and so needed a
tag at each tempfile write this pass proves safe; it is gone.)
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.callgraph import (
    FunctionInfo,
    ModuleInfo,
    Program,
    attr_chain,
)
from repro.lint.core import Finding, Rule, register

__all__ = ["DurableSinkPass"]

#: Modules implementing the publish discipline (and thus exempt from it).
_EXEMPT_PREFIXES = ("repro.storage.atomic", "repro.streaming")

_NP_WRITERS = frozenset({"save", "savez", "savez_compressed", "savetxt"})
_OS_REPLACERS = frozenset({"replace", "rename", "renames"})
_PATH_WRITERS = frozenset({"write_bytes", "write_text"})
_TEMP_FACTORIES = frozenset({
    "mkdtemp", "mkstemp", "NamedTemporaryFile", "TemporaryDirectory",
    "TemporaryFile", "SpooledTemporaryFile",
})
#: Functions whose writer-callback argument receives a tmp sibling.
_PUBLISH_VIA = frozenset({"atomic_write_via"})
_TMP_HELPERS = frozenset({"_tmp_sibling"})


def _is_temp_call(expr: ast.expr) -> bool:
    """Whether ``expr`` is a call producing a temp-scoped path."""
    if not isinstance(expr, ast.Call):
        return False
    chain = attr_chain(expr.func)
    if chain is None:
        return False
    if chain[0] == "tempfile" and chain[-1] in _TEMP_FACTORIES:
        return True
    return chain[-1] in _TMP_HELPERS


def _exempt(module: str) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in _EXEMPT_PREFIXES
    )


class _Scope:
    """Temp-scoped name knowledge for one function."""

    def __init__(
        self,
        program: Program,
        module: ModuleInfo,
        fn: FunctionInfo,
        temp_attrs: Dict[str, Set[str]],
        writer_params: Set[Tuple[str, int]],
    ) -> None:
        self.fn = fn
        self.module = module
        #: self attributes known temp-scoped, by class name.
        self.temp_attrs = temp_attrs.get(fn.cls or "", set())
        #: Local names proven temp-scoped.
        self.temp_names: Set[str] = set()
        if (fn.qualname, 0) in writer_params and fn.params:
            # This function is a registered writer callback: its first
            # parameter is the tmp sibling atomic_write_via supplies.
            self.temp_names.add(fn.params[0])
        self._collect(program)

    def _collect(self, program: Program) -> None:
        # Fixpoint over simple assignments: temp-ness flows through
        # os.path.join / Path arithmetic / f-strings referencing a temp.
        assigns: List[Tuple[str, ast.expr]] = []
        for node in self.fn.body:
            for target, value in _simple_assignments(node):
                if isinstance(target, ast.Name):
                    assigns.append((target.id, value))
            # Lambdas passed to atomic_write_via get temp-scoped params.
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                name = chain[-1] if chain else None
                if name in _PUBLISH_VIA:
                    for arg in node.args[1:2]:
                        if isinstance(arg, ast.Lambda) and arg.args.args:
                            self.temp_names.add(arg.args.args[0].arg)
        changed = True
        while changed:
            changed = False
            for name, value in assigns:
                if name in self.temp_names:
                    continue
                if _is_temp_call(value) or self._derives_from_temp(value):
                    self.temp_names.add(name)
                    changed = True

    def _derives_from_temp(self, expr: ast.expr) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and sub.id in self.temp_names:
                return True
            if isinstance(sub, ast.Call) and _is_temp_call(sub):
                return True  # e.g. tempfile.mkdtemp() + "/x.bin" inline
            if isinstance(sub, ast.Attribute):
                chain = attr_chain(sub)
                if (
                    chain is not None
                    and len(chain) == 2
                    and chain[0] == "self"
                    and chain[1] in self.temp_attrs
                ):
                    return True
        return False

    def classify(self, expr: ast.expr) -> Tuple[str, Optional[str]]:
        """``("temp"|"param"|"escaped", param_name)`` for a path expr."""
        if _is_temp_call(expr) or self._derives_from_temp(expr):
            return ("temp", None)
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and sub.id in self.fn.params:
                return ("param", sub.id)
        return ("escaped", None)


def _simple_assignments(
    node: ast.AST,
) -> List[Tuple[ast.expr, ast.expr]]:
    """(target, value) for plain and annotated single-target assignments."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return [(node.targets[0], node.value)]
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        return [(node.target, node.value)]
    return []


def _temp_attrs_by_class(program: Program) -> Dict[str, Set[str]]:
    """``self.X = tempfile.*`` bindings, collected per class name."""
    out: Dict[str, Set[str]] = {}
    for fn in program.functions.values():
        if fn.cls is None:
            continue
        for node in fn.body:
            for target, value in _simple_assignments(node):
                chain = (
                    attr_chain(target)
                    if isinstance(target, ast.Attribute) else None
                )
                if (
                    chain is not None
                    and len(chain) == 2
                    and chain[0] == "self"
                    and _is_temp_call(value)
                ):
                    out.setdefault(fn.cls, set()).add(chain[1])
    return out


def _writer_callback_params(program: Program) -> Set[Tuple[str, int]]:
    """(qualname, 0) of every function passed by name to atomic_write_via."""
    out: Set[Tuple[str, int]] = set()
    for mod in program.modules.values():
        for fn in mod.functions.values():
            for node in fn.body:
                if not isinstance(node, ast.Call):
                    continue
                chain = attr_chain(node.func)
                name = chain[-1] if chain else None
                if name not in _PUBLISH_VIA or len(node.args) < 2:
                    continue
                writer = node.args[1]
                if isinstance(writer, ast.Name):
                    # Resolve: nested def, module function, or import.
                    target = fn.local_defs.get(writer.id)
                    if target is None:
                        qual = f"{mod.name}:{writer.id}"
                        if qual in mod.functions:
                            target = qual
                    if target is not None:
                        out.add((target, 0))
    return out


def _sinks(fn: FunctionInfo) -> List[Tuple[str, ast.expr, ast.AST]]:
    """(kind, path_expr, node) for every raw write in ``fn``'s body."""
    out: List[Tuple[str, ast.expr, ast.AST]] = []
    for node in fn.body:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode: Optional[ast.expr] = node.args[1] if len(node.args) >= 2 else None
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and any(c in mode.value for c in "wxa")
                and node.args
            ):
                out.append((f"open(..., {mode.value!r})", node.args[0], node))
            continue
        chain = attr_chain(func)
        if chain is None:
            if isinstance(func, ast.Attribute) and func.attr in _PATH_WRITERS:
                out.append((f".{func.attr}", func.value, node))
            continue
        if (
            len(chain) == 2
            and chain[0] in ("np", "numpy")
            and chain[1] in _NP_WRITERS
            and node.args
        ):
            out.append((f"np.{chain[1]}", node.args[0], node))
        elif len(chain) == 2 and chain[0] == "os" and chain[1] in _OS_REPLACERS:
            if len(node.args) >= 2:
                out.append((f"os.{chain[1]}", node.args[1], node))
        elif len(chain) >= 2 and chain[-1] in _PATH_WRITERS:
            # Rebuild the receiver expr from the attribute's value.
            assert isinstance(func, ast.Attribute)
            out.append((f".{chain[-1]}", func.value, node))
    return out


@register
class DurableSinkPass(Rule):
    rule_id = "CHF003"
    slug = "atomic-write"
    title = "every durable write path stays temp-scoped until published"
    invariant = (
        "a filesystem write outside storage.atomic/streaming targets a "
        "temp-scoped path (tempfile, _tmp_sibling, or an atomic_write_via "
        "writer parameter) proven so through the call graph"
    )

    def run(self, program: Program) -> Iterable[Finding]:
        temp_attrs = _temp_attrs_by_class(program)
        writer_params = _writer_callback_params(program)
        scopes: Dict[str, _Scope] = {}

        def scope_for(qualname: str) -> _Scope:
            if qualname not in scopes:
                fn = program.functions[qualname]
                scopes[qualname] = _Scope(
                    program,
                    program.modules[fn.module],
                    fn,
                    temp_attrs,
                    writer_params,
                )
            return scopes[qualname]

        def param_safe(
            qualname: str, param: str, visited: Set[Tuple[str, str]]
        ) -> Tuple[bool, str]:
            """Whether every in-package caller passes a temp-scoped path."""
            if (qualname, param) in visited:
                return (True, "")  # cycle: optimistic
            visited.add((qualname, param))
            fn = program.functions[qualname]
            if (qualname, 0) in writer_params and fn.params and fn.params[0] == param:
                return (True, "")
            callers = program.callers(qualname)
            if not callers:
                # Nobody in-package sanctions this write; a public writer
                # could be handed any durable path.
                return (False, f"no in-package caller proves {param!r} temp-scoped")
            try:
                index = fn.params.index(param)
            except ValueError:
                return (False, f"cannot trace parameter {param!r}")
            for edge in callers:
                caller_fn = program.functions[edge.caller]
                if _exempt(caller_fn.module):
                    continue  # the publish machinery may hand out any path
                args = edge.node.args
                arg_expr: Optional[ast.expr] = None
                if index < len(args):
                    arg_expr = args[index]
                else:
                    for kw in edge.node.keywords:
                        if kw.arg == param:
                            arg_expr = kw.value
                if arg_expr is None:
                    continue  # defaulted: nothing flows in
                caller_scope = scope_for(edge.caller)
                verdict, via = caller_scope.classify(arg_expr)
                if verdict == "temp":
                    continue
                if verdict == "param" and via is not None:
                    ok, why = param_safe(edge.caller, via, visited)
                    if ok:
                        continue
                    return (False, f"via {edge.caller}: {why}")
                return (
                    False,
                    f"{edge.caller} passes a non-temp path at line "
                    f"{edge.node.lineno}",
                )
            return (True, "")

        for qualname in sorted(program.functions):
            fn = program.functions[qualname]
            if _exempt(fn.module):
                continue
            sinks = _sinks(fn)
            if not sinks:
                continue
            scope = scope_for(qualname)
            for kind, path_expr, node in sinks:
                verdict, param = scope.classify(path_expr)
                if verdict == "temp":
                    continue
                if verdict == "param" and param is not None:
                    ok, why = param_safe(qualname, param, set())
                    if ok:
                        continue
                    detail = f" ({why})"
                else:
                    detail = " (path never enters a temp scope)"
                yield self.finding(
                    fn.path,
                    node,
                    f"{kind} in {qualname} writes a path that escapes "
                    f"every temp scope{detail}; publish via "
                    "repro.storage.atomic / the WAL, or tag a "
                    "non-durable output with allow-atomic-write",
                )
