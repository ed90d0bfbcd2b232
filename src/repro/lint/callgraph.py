"""Module-level AST call graph over the ``repro`` package.

Construction is two-phase. Phase one (:meth:`Program.add`) indexes every
library module the run parsed (:func:`repro.lint.core.module_name`
decides library membership — including the synthetic mini-packages the
golden tests build under a tmp dir): imports (with aliases and relative
levels), top-level functions, classes with their bases and methods,
and nested functions. Phase two (:meth:`Program.link`) resolves every call site in
every function body to zero or more callee qualnames:

- **precise** resolution covers names defined in the module, imported
  names (followed through dotted module paths), ``self.``/``cls.``
  method calls (searched through package base classes), and locals whose
  type is pinned by a constructor assignment (``cache = ResultCache(...)``
  makes ``cache.put(...)`` resolve);
- **fallback** resolution matches the remaining attribute calls by bare
  method name against every class in the package — minus a blocklist of
  ubiquitous builtin-collection/file method names (``.append``, ``.get``,
  ``.write``, ...) that would otherwise wire unrelated code together.
  Fallback is what lets handle-dispatched calls (``ctx.locks.acquire``)
  stay inside the analyzed world;
- anything still unresolved is **optimistically ignored**: the
  whole-program rules prove contracts about the code they can see, and
  the per-file rules keep the blind spots narrow.

A qualname is ``module:func``, ``module:Class.method``, or
``module:outer.inner`` for nested defs. Lambdas are *inlined* into their
enclosing function (their bodies are analyzed as part of it); nested
``def``s are separate graph nodes reached by ordinary call edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "CallEdge",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "attr_chain",
]

#: Attribute-call names never resolved by bare-name fallback: they are
#: overwhelmingly builtin collection/string/file methods, and a name match
#: against an unrelated class would invent call edges out of thin air
#: (``pending.append(...)`` must not reach ``StreamingStore.append``).
FALLBACK_BLOCKLIST = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "count", "index", "copy", "add", "discard", "update",
    "get", "keys", "values", "items", "setdefault", "popitem",
    "join", "split", "rsplit", "strip", "lstrip", "rstrip", "format",
    "replace", "startswith", "endswith", "encode", "decode", "lower",
    "upper", "title", "zfill", "ljust", "rjust", "splitlines",
    "read", "write", "readline", "readlines", "flush", "seek", "tell",
    "close", "fileno", "readinto",
    "put", "get_nowait", "put_nowait", "union", "intersection",
    "difference", "issubset", "issuperset", "tobytes", "tolist",
    "astype", "reshape", "item", "fill", "sum", "min", "max", "mean",
    "any", "all", "nonzero", "ravel", "view", "exists", "mkdir",
    "unlink", "stat", "resolve", "absolute", "as_posix", "is_dir",
    "is_file", "iterdir", "glob", "rglob", "with_suffix", "with_name",
    "group", "groups", "match", "search", "findall", "sub", "wait",
    "start", "terminate", "kill", "is_alive", "cancel", "set", "isoformat",
})


@dataclass
class FunctionInfo:
    """One function/method definition node in the graph."""

    qualname: str  #: ``module:func`` / ``module:Class.method`` / nested
    module: str
    name: str  #: bare name, e.g. ``"run"``
    cls: Optional[str]  #: enclosing class name for methods, else None
    node: ast.AST  #: the FunctionDef / AsyncFunctionDef
    path: str
    params: Tuple[str, ...]  #: positional+keyword parameter names, in order
    #: Nested ``def``s by bare name -> qualname (for local-name resolution).
    local_defs: Dict[str, str] = field(default_factory=dict)
    #: Locals pinned to a package class by a constructor assignment:
    #: name -> class key ``module:Class``.
    local_types: Dict[str, str] = field(default_factory=dict)

    @cached_property
    def body(self) -> List[ast.AST]:
        """The body's nodes, not descending into nested ``def``s.

        Lambdas *are* descended into (they execute in the enclosing
        function's dynamic scope and are routinely invoked immediately or
        as callbacks); nested function definitions are separate graph
        nodes. Walked once, then shared by the linker and every rule.
        """
        out: List[ast.AST] = []
        stack: List[ast.AST] = list(ast.iter_child_nodes(self.node))
        while stack:
            cur = stack.pop()
            out.append(cur)
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(cur))
        return out


@dataclass
class ClassInfo:
    """One class definition: bases (as written) and its method table."""

    key: str  #: ``module:Class``
    module: str
    name: str
    bases: Tuple[str, ...]  #: base expressions as dotted source text
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)  #: name -> qualname


@dataclass
class ModuleInfo:
    """One indexed library module."""

    name: str  #: dotted module, e.g. ``"repro.engine.runner"``
    path: str
    #: local name -> dotted target (``obs`` -> ``repro.obs.runtime``).
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


@dataclass
class CallEdge:
    """One resolved call site: caller -> callee."""

    caller: str
    callee: str
    node: ast.Call
    #: ``"direct"`` (precise), ``"fallback"`` (name-matched method), or
    #: ``"constructor"`` (class instantiation -> ``__init__``).
    kind: str


@dataclass
class Program:
    """The whole analyzed package: modules, functions, and the call graph."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    edges: Dict[str, List[CallEdge]] = field(default_factory=dict)
    reverse_edges: Dict[str, List[CallEdge]] = field(default_factory=dict)
    #: bare method name -> every ``module:Class.method`` qualname.
    method_index: Dict[str, List[str]] = field(default_factory=dict)

    def add(self, name: str, path: str, tree: ast.Module) -> None:
        """Index one parsed library module (phase one)."""
        if name in self.modules:
            return  # first spelling wins (duplicate trees in odd layouts)
        self.modules[name] = _index_module(name, path, tree)

    def link(self) -> None:
        """Resolve every call site of every added module (phase two)."""
        for mod in self.modules.values():
            self.functions.update(mod.functions)
            for cls in mod.classes.values():
                self.classes[cls.key] = cls
                for method_name, qual in cls.methods.items():
                    self.method_index.setdefault(method_name, []).append(qual)

        # Local constructor-type pinning must see the full class table first.
        for mod in self.modules.values():
            for fn in mod.functions.values():
                _pin_local_types(self, mod, fn)

        for mod in self.modules.values():
            for fn in mod.functions.values():
                resolver = _Resolver(self, mod, fn)
                edges: List[CallEdge] = []
                for node in fn.body:
                    if not isinstance(node, ast.Call):
                        continue
                    for callee, kind in resolver.resolve(node):
                        if callee in self.functions:
                            edges.append(
                                CallEdge(
                                    caller=fn.qualname,
                                    callee=callee,
                                    node=node,
                                    kind=kind,
                                )
                            )
                if edges:
                    self.edges[fn.qualname] = edges
                    for edge in edges:
                        self.reverse_edges.setdefault(edge.callee, []).append(edge)

    def edge_count(self) -> int:
        return sum(len(e) for e in self.edges.values())

    def callees(self, qualname: str) -> List[CallEdge]:
        return self.edges.get(qualname, [])

    def callers(self, qualname: str) -> List[CallEdge]:
        return self.reverse_edges.get(qualname, [])

    def module_of(self, qualname: str) -> str:
        return qualname.split(":", 1)[0]

    def resolve_class(self, module: ModuleInfo, dotted: str) -> Optional[ClassInfo]:
        """Resolve a (possibly dotted) class reference seen in ``module``."""
        head, _, rest = dotted.partition(".")
        if not rest:
            local = module.classes.get(head)
            if local is not None:
                return local
            target = module.imports.get(head)
            if target is not None:
                mod_name, _, cls_name = target.rpartition(".")
                owner = self.modules.get(mod_name)
                if owner is not None:
                    return owner.classes.get(cls_name)
            return None
        target = module.imports.get(head)
        if target is None:
            return None
        owner = self.modules.get(target)
        if owner is not None and "." not in rest:
            return owner.classes.get(rest)
        return None

    def class_mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """The class plus its package-resolved ancestors (best effort)."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            cur = queue.pop(0)
            if cur.key in seen:
                continue
            seen.add(cur.key)
            out.append(cur)
            owner = self.modules.get(cur.module)
            if owner is None:
                continue
            for base in cur.bases:
                resolved = self.resolve_class(owner, base)
                if resolved is not None:
                    queue.append(resolved)
        return out

    def lookup_method(self, cls: ClassInfo, name: str) -> Optional[str]:
        for candidate in self.class_mro(cls):
            hit = candidate.methods.get(name)
            if hit is not None:
                return hit
        return None


def attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``("np", "random", "seed")`` for ``np.random.seed``; None if dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _param_names(node: ast.AST) -> Tuple[str, ...]:
    args = getattr(node, "args", None)
    if not isinstance(args, ast.arguments):
        return ()
    names = [a.arg for a in args.posonlyargs]
    names += [a.arg for a in args.args]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return tuple(names)


def _base_text(expr: ast.expr) -> Optional[str]:
    chain = attr_chain(expr)
    return ".".join(chain) if chain else None


def _index_module(name: str, path: str, tree: ast.Module) -> ModuleInfo:
    mod = ModuleInfo(name=name, path=path)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                mod.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None and node.level == 0:
                continue
            base = node.module or ""
            if node.level:
                # Relative import: strip (level - 1) trailing packages
                # beyond the module's own package.
                parts = name.split(".")
                anchor = parts[: max(len(parts) - node.level, 0)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mod.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def index_function(
        node: ast.AST, prefix: str, cls: Optional[str]
    ) -> FunctionInfo:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qualname = f"{name}:{prefix}{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=name,
            name=node.name,
            cls=cls,
            node=node,
            path=path,
            params=_param_names(node),
        )
        mod.functions[qualname] = info
        # Nested defs become their own nodes, reachable by local name.
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Only direct nesting (not defs inside nested defs twice
                # removed); approximate by indexing every nested def under
                # this function's prefix and letting name resolution pick.
                nested_qual = f"{name}:{prefix}{node.name}.{child.name}"
                if nested_qual not in mod.functions:
                    nested = FunctionInfo(
                        qualname=nested_qual,
                        module=name,
                        name=child.name,
                        cls=cls,
                        node=child,
                        path=path,
                        params=_param_names(child),
                    )
                    mod.functions[nested_qual] = nested
                    info.local_defs[child.name] = nested_qual
        return info

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index_function(node, "", None)
        elif isinstance(node, ast.ClassDef):
            bases = tuple(
                b for b in (_base_text(e) for e in node.bases) if b is not None
            )
            cls_info = ClassInfo(
                key=f"{name}:{node.name}",
                module=name,
                name=node.name,
                bases=bases,
                node=node,
            )
            mod.classes[node.name] = cls_info
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = index_function(item, f"{node.name}.", node.name)
                    cls_info.methods[item.name] = fn.qualname
    return mod


class _Resolver:
    """Resolves call expressions to callee qualnames within one function."""

    def __init__(
        self, program: Program, module: ModuleInfo, fn: FunctionInfo
    ) -> None:
        self.program = program
        self.module = module
        self.fn = fn

    def resolve_dotted(self, dotted: str) -> List[Tuple[str, str]]:
        """``repro.obs.runtime.span`` -> [(qualname, kind)] when in-package."""
        program = self.program
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            mod_name = ".".join(parts[:split])
            owner = program.modules.get(mod_name)
            if owner is None:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                qual = f"{mod_name}:{rest[0]}"
                if qual in owner.functions:
                    return [(qual, "direct")]
                cls = owner.classes.get(rest[0])
                if cls is not None:
                    init = cls.methods.get("__init__")
                    return [(init, "constructor")] if init else []
                return []
            if len(rest) == 2:
                cls = owner.classes.get(rest[0])
                if cls is not None:
                    hit = program.lookup_method(cls, rest[1])
                    return [(hit, "direct")] if hit else []
                return []
            return []
        return []

    def class_of_constructor(self, call: ast.Call) -> Optional[str]:
        """``module:Class`` when ``call`` instantiates a package class."""
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
        cls = self.program.resolve_class(self.module, dotted)
        return cls.key if cls is not None else None

    def resolve(self, call: ast.Call) -> List[Tuple[str, str]]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id)
        chain = attr_chain(func)
        if chain is None:
            return []
        return self._resolve_attr(chain)

    def _resolve_name(self, name: str) -> List[Tuple[str, str]]:
        fn, module = self.fn, self.module
        nested = fn.local_defs.get(name)
        if nested is not None:
            return [(nested, "direct")]
        qual = f"{module.name}:{name}"
        if qual in module.functions:
            return [(qual, "direct")]
        cls = module.classes.get(name)
        if cls is not None:
            init = cls.methods.get("__init__")
            return [(init, "constructor")] if init else []
        target = module.imports.get(name)
        if target is not None:
            resolved = self.resolve_dotted(target)
            # An imported class constructor keeps its kind.
            return [
                (q, "constructor" if k == "constructor" else "direct")
                for q, k in resolved
            ]
        return []

    def _resolve_attr(self, chain: Tuple[str, ...]) -> List[Tuple[str, str]]:
        fn, module, program = self.fn, self.module, self.program
        head, tail = chain[0], chain[1:]
        if head in ("self", "cls") and fn.cls is not None and len(tail) == 1:
            cls = module.classes.get(fn.cls)
            if cls is not None:
                hit = program.lookup_method(cls, tail[0])
                if hit is not None:
                    return [(hit, "direct")]
            return self._fallback(tail[0])
        if head in module.imports:
            dotted = ".".join((module.imports[head],) + tail)
            resolved = self.resolve_dotted(dotted)
            if resolved:
                return resolved
            # Imported but unresolvable inside the package (stdlib, numpy):
            # precisely not-ours, no fallback.
            return []
        cls_key = fn.local_types.get(head)
        if cls_key is not None and len(tail) == 1:
            mod_name, _, cls_name = cls_key.partition(":")
            owner = program.modules.get(mod_name)
            if owner is not None:
                cls = owner.classes.get(cls_name)
                if cls is not None:
                    hit = program.lookup_method(cls, tail[0])
                    if hit is not None:
                        return [(hit, "direct")]
            return []
        return self._fallback(tail[-1])

    def _fallback(self, method: str) -> List[Tuple[str, str]]:
        if method in FALLBACK_BLOCKLIST or method.startswith("__"):
            return []
        return [
            (q, "fallback")
            for q in self.program.method_index.get(method, [])
        ]


def _pin_local_types(program: Program, module: ModuleInfo, fn: FunctionInfo) -> None:
    resolver = _Resolver(program, module, fn)
    for node in fn.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name) or not isinstance(node.value, ast.Call):
            continue
        cls_key = resolver.class_of_constructor(node.value)
        if cls_key is not None:
            fn.local_types[target.id] = cls_key
