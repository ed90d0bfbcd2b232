"""chronolint core: parsed files, findings, suppression tags, the one run.

A run is a pure function of source text. Every file under the given
paths is read, tokenised for ``chronolint:`` suppression tags and parsed
into an AST exactly once (:class:`FileContext`). Two kinds of registered
rule then consume the same parsed files:

- *per-file* rules (CHR001–CHR007, :mod:`repro.lint.rules`) subscribe to
  AST node types and are dispatched by a single tree walk per file,
  yielding ``(node, message)`` pairs;
- *whole-program* rules (CHF001, CHF003) see the call graph
  (:mod:`repro.lint.callgraph`) built over the library subset of those
  files (``module_name(path) is not None``) and yield findings whose
  evidence may be a call chain.

Both report :class:`Finding` records, resolved against the same tags and
audited by the same stale-tag check.

Suppression has one spelling, ``# chronolint: allow-<slug>`` (e.g.
``# chronolint: allow-broad-except`` for CHR003), in comments only —
tags inside string literals are inert, which is what lets the test
fixtures embed tagged sources. A tag covers its own physical line and
the line directly below it, so a justification can sit on its own line
above the violating statement. Suppressed findings are still collected
(``Finding.suppressed``) so ``--strict`` can report them and flag tags
that no longer match anything; any other token after ``chronolint:``
is stale from the start.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import PurePosixPath
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type,
)

from repro.lint.callgraph import Program, attr_chain

__all__ = [
    "AnalysisResult",
    "FileContext",
    "Finding",
    "REGISTRY",
    "Rule",
    "Suppressions",
    "all_rules",
    "analyze_paths",
    "build_program",
    "iter_python_files",
    "lint_source",
    "module_name",
    "parse_suppressions",
    "register",
]

#: Directories never descended into when expanding path arguments.
_SKIP_DIRS = frozenset({".git", "__pycache__", ".hypothesis", ".pytest_cache",
                        "node_modules", ".mypy_cache", "build", "dist"})


@dataclass(frozen=True)
class Finding:
    """One rule firing at one source location."""

    rule: str  #: rule id, e.g. ``"CHR003"``
    slug: str  #: suppression slug, e.g. ``"broad-except"``
    path: str  #: file path as given to the run
    line: int  #: 1-based line of the offending node
    col: int  #: 0-based column of the offending node
    message: str
    #: Qualnames from an analysis root to the offending function, when a
    #: whole-program finding is reachability-based — the offending line
    #: may be arbitrarily far from the contract it breaks.
    chain: Tuple[str, ...] = ()
    suppressed: bool = False  #: an ``allow-<slug>`` tag covered it

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"
        if self.chain:
            text += "\n    via " + " -> ".join(self.chain)
        return text

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "slug": self.slug,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "chain": list(self.chain),
            "suppressed": self.suppressed,
        }


@dataclass
class Suppressions:
    """Parsed ``chronolint:`` tags of one file."""

    #: line -> the slugs of the ``allow-<slug>`` tags on it.
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    #: ``(line, slug)`` pairs that matched a finding (strict-mode audit).
    used: Set[Tuple[int, str]] = field(default_factory=set)
    #: every ``(line, slug)`` pair declared in the file.
    declared: Set[Tuple[int, str]] = field(default_factory=set)
    #: ``(line, token)`` pairs that are not ``allow-<slug>``: always stale.
    unknown: Set[Tuple[int, str]] = field(default_factory=set)

    def cover(self, line: int, slug: str) -> bool:
        """Whether a tag suppresses ``slug`` at ``line`` (marks it used)."""
        hit = False
        for tag_line in (line, line - 1):
            if slug in self.by_line.get(tag_line, ()):
                self.used.add((tag_line, slug))
                hit = True
        return hit

    def unused(self) -> List[Tuple[int, str]]:
        """Tags that never matched a finding, sorted by line."""
        return sorted((self.declared - self.used) | self.unknown)


def parse_suppressions(source: str) -> Suppressions:
    """Extract ``# chronolint:`` tags from comment tokens.

    String literals are inert. Every whitespace-separated token after the
    prefix is a tag: ``allow-<slug>`` suppresses, anything else (an old
    ``disable=`` list or ``skip-file``, a typo) is recorded as unknown.
    """
    sup = Suppressions()
    if "chronolint:" not in source:
        return sup  # no tag can hide in a file without the prefix
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return sup  # the AST parse will report the real error
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        text = tok.string.lstrip("#").strip()
        if not text.startswith("chronolint:"):
            continue
        body = text[len("chronolint:"):].strip()
        line = tok.start[0]
        for part in body.split():
            slug = part.removeprefix("allow-")
            if slug == part or not slug:
                sup.unknown.add((line, part))
            else:
                sup.by_line.setdefault(line, set()).add(slug)
                sup.declared.add((line, slug))
    return sup


def module_name(path: str) -> Optional[str]:
    """Dotted module for a file under a ``src/repro`` (or ``repro``) tree.

    ``src/repro/engine/kernels.py`` -> ``"repro.engine.kernels"``;
    files outside the library (tests, benchmarks, examples) -> ``None``.
    Rules use this to scope themselves to library subtrees, and the run
    uses it to pick the files that make up the call graph.
    """
    norm = PurePosixPath(path.replace(os.sep, "/"))
    parts = list(norm.parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    try:
        i = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return None
    # Only treat it as the library when it's a package root: top-level,
    # or sitting under a directory named src.
    if i > 0 and parts[i - 1] != "src":
        return None
    mod_parts = parts[i:]
    mod_parts[-1] = mod_parts[-1][: -len(".py")]
    if mod_parts[-1] == "__init__":
        mod_parts.pop()
    return ".".join(mod_parts)


@dataclass
class FileContext:
    """One parsed file: everything per-file rules may consult."""

    path: str
    source: str
    tree: ast.Module
    module: Optional[str]  #: e.g. ``"repro.engine.kernels"``; None = non-library
    suppressions: Suppressions
    #: Names of the enclosing function defs, innermost last (maintained by
    #: the dispatcher during the walk).
    func_stack: List[str] = field(default_factory=list)
    #: Local name -> dotted target of the absolute imports the walk has
    #: passed so far (``t`` -> ``time``, ``shuffle`` -> ``random.shuffle``).
    aliases: Dict[str, str] = field(default_factory=dict)

    def note_import(self, node: ast.AST) -> None:
        """Record the names an ``import`` / ``from … import`` binds."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.partition(".")[0]
                self.aliases[alias.asname or head] = (
                    alias.name if alias.asname else head
                )
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                local = alias.asname or alias.name
                if node.level:  # in-package: never a clock or an RNG
                    self.aliases.pop(local, None)
                else:
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def call_chain(self, call: ast.Call) -> Optional[Tuple[str, ...]]:
        """The callee's attribute chain, its head resolved through imports.

        ``from time import perf_counter; perf_counter()`` and
        ``import numpy.random as npr; npr.rand()`` read as
        ``("time", "perf_counter")`` and ``("numpy", "random", "rand")``.
        """
        chain = attr_chain(call.func)
        if chain is None or chain[0] not in self.aliases:
            return chain
        return tuple(self.aliases[chain[0]].split(".")) + chain[1:]

    def in_module(self, *prefixes: str) -> bool:
        """Whether this file's module sits under any dotted prefix."""
        if self.module is None:
            return False
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )


class Rule:
    """Base class of every chronolint rule.

    A rule is one of two kinds. A *per-file* rule declares the AST node
    types it wants to see (``interests``) and implements :meth:`check`,
    yielding ``(node, message)`` pairs. A *whole-program* rule declares no
    interests and implements :meth:`run`, which sees the call graph of the
    library files and yields :class:`Finding` records; suppression is the
    run's job, so rules report every finding unconditionally. Registration
    is pluggable: decorate the class with :func:`register`.
    """

    rule_id: str = "CHR000"
    #: Suppression slug: ``# chronolint: allow-<slug>``.
    slug: str = "nothing"
    title: str = ""
    #: One-line statement of the invariant the rule guards (--list-rules).
    invariant: str = ""
    interests: Tuple[type, ...] = ()

    def check(
        self, node: ast.AST, ctx: "FileContext"
    ) -> Iterator[Tuple[ast.AST, str]]:
        raise NotImplementedError

    def run(self, program: Program) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        path: str,
        node: Optional[ast.AST],
        message: str,
        chain: Tuple[str, ...] = (),
    ) -> Finding:
        """A finding of this rule anchored at ``node`` (line 1 if None)."""
        return Finding(
            rule=self.rule_id,
            slug=self.slug,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            chain=chain,
        )


#: Registered rule classes by id.
REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, by id."""
    # Importing the rule modules registers them.
    import repro.lint.effects  # noqa: F401
    import repro.lint.rules  # noqa: F401
    import repro.lint.sinks  # noqa: F401

    return [cls() for _, cls in sorted(REGISTRY.items())]


def _resolve(found: Finding, sup: Suppressions) -> Finding:
    """``found``, marked suppressed when a tag of ``sup`` covers it."""
    return replace(found, suppressed=sup.cover(found.line, found.slug))


class _Dispatcher(ast.NodeVisitor):
    """One tree walk, dispatching nodes to the per-file rules that subscribed."""

    def __init__(
        self,
        rules: Sequence[Rule],
        ctx: FileContext,
        out: List[Finding],
    ) -> None:
        self._ctx = ctx
        self._out = out
        self._by_type: Dict[type, List[Rule]] = {}
        for rule in rules:
            for node_type in rule.interests:
                self._by_type.setdefault(node_type, []).append(rule)

    def _dispatch(self, node: ast.AST) -> None:
        ctx = self._ctx
        for rule in self._by_type.get(type(node), ()):
            for where, message in rule.check(node, ctx):
                found = rule.finding(ctx.path, where, message)
                self._out.append(_resolve(found, ctx.suppressions))

    def visit(self, node: ast.AST) -> None:
        self._ctx.note_import(node)
        self._dispatch(node)
        is_func = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_func:
            self._ctx.func_stack.append(node.name)  # type: ignore[union-attr]
        try:
            self.generic_visit(node)
        finally:
            if is_func:
                self._ctx.func_stack.pop()


def _parse(source: str, path: str) -> FileContext:
    """Tokenise and parse one file; :class:`SyntaxError` if unparsable."""
    return FileContext(
        path=path,
        source=source,
        tree=ast.parse(source, filename=path),
        module=module_name(path),
        suppressions=parse_suppressions(source),
    )


def _lint(ctx: FileContext, rules: Sequence[Rule]) -> List[Finding]:
    out: List[Finding] = []
    _Dispatcher(rules, ctx, out).visit(ctx.tree)
    out.sort(key=lambda f: (f.line, f.col, f.rule))
    return out


def lint_source(
    source: str, path: str = "<string>"
) -> Tuple[List[Finding], Suppressions]:
    """Run the per-file rules over one source string as if it lived at ``path``.

    Returns ``(findings, suppressions)``. Findings include suppressed
    ones (``Finding.suppressed`` set) so callers can audit tags. Raises
    :class:`SyntaxError` on unparsable input.
    """
    ctx = _parse(source, path)
    return _lint(ctx, all_rules()), ctx.suppressions


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    seen: Set[str] = set()
    collected: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        collected.append(os.path.join(root, name))
        elif path.endswith(".py"):
            collected.append(path)
    for path in collected:
        if path not in seen:
            seen.add(path)
            yield path


@dataclass
class AnalysisResult:
    """Everything one run produced."""

    program: Program
    findings: List[Finding] = field(default_factory=list)
    #: Files that could not be read or parsed: path -> error.
    errors: Dict[str, str] = field(default_factory=dict)
    #: Tags that matched no finding: (path, line, token).
    stale_tags: List[Tuple[str, int, str]] = field(default_factory=list)

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    def failed(self, strict: bool) -> bool:
        if self.active or self.errors:
            return True
        return strict and bool(self.stale_tags)

    def to_json(self) -> Dict[str, object]:
        by_rule: Dict[str, List[Dict[str, object]]] = {}
        for found in self.findings:
            by_rule.setdefault(found.rule, []).append(found.to_json())
        return {
            "tool": "chronolint",
            "modules": sorted(self.program.modules),
            "functions": len(self.program.functions),
            "call_edges": self.program.edge_count(),
            "findings": by_rule,
            "errors": dict(sorted(self.errors.items())),
            "stale_tags": [
                {"path": p, "line": l, "token": t}
                for p, l, t in self.stale_tags
            ],
            "summary": {
                "active": len(self.active),
                "suppressed": len(self.suppressed),
                "stale": len(self.stale_tags),
            },
        }


def analyze_paths(paths: Iterable[str]) -> AnalysisResult:
    """Run every rule over every python file under ``paths``.

    Each file is read, tokenised and parsed once; per-file rules walk
    every file, whole-program rules run over the call graph of the
    library files. A tag that matched nothing is audited as stale.
    """
    rules = all_rules()
    program = Program()
    result = AnalysisResult(program=program)
    sups: Dict[str, Suppressions] = {}
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                ctx = _parse(handle.read(), path)
        except (OSError, UnicodeDecodeError) as exc:
            result.errors[path] = str(exc)
            continue
        except SyntaxError as exc:
            result.errors[path] = f"syntax error: {exc}"
            continue
        sups[path] = ctx.suppressions
        result.findings.extend(_lint(ctx, rules))
        if ctx.module is not None:
            program.add(ctx.module, path, ctx.tree)
    program.link()

    for rule in rules:
        if rule.interests:
            continue
        for found in rule.run(program):
            result.findings.append(_resolve(found, sups[found.path]))
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    for path in sorted(sups):
        result.stale_tags.extend((path, line, t) for line, t in sups[path].unused())
    return result


def build_program(paths: Iterable[str]) -> Program:
    """The call graph over the library files under ``paths``, no rules run."""
    program = Program()
    for path in iter_python_files(paths):
        module = module_name(path)
        if module is not None:
            with open(path, "r", encoding="utf-8") as handle:
                program.add(module, path, ast.parse(handle.read(), filename=path))
    program.link()
    return program
