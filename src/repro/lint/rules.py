"""The per-file CHR rules.

Each rule mechanically enforces one invariant the engine's correctness
story rests on (bitwise-identical LABS results across the serial and
thread-parallel executors and result reuse — see
PAPER.md Section 4's disjoint-ownership argument). Rules are scoped by dotted module prefix
(:meth:`repro.lint.core.FileContext.in_module`), so fixing a violation in
scope is always preferable to tagging it; tags exist for the handful of
sites where broad behaviour is the contract (e.g. cleanup paths that must
never raise).

| id     | slug            | invariant                                       |
| ------ | --------------- | ----------------------------------------------- |
| CHR001 | global-rng      | no global-RNG nondeterminism                    |
| CHR002 | scatter         | in-place scatter only inside the native library |
|        |                 | (engine, parallel); native loads only in it     |
| CHR003 | broad-except    | no untagged bare/broad ``except``               |
| CHR005 | untyped-raise   | library raises use ``repro.errors`` types       |
| CHR006 | dtype           | explicit dtypes on engine/parallel allocations  |
| CHR007 | obs-boundary    | clocks and span recording live in repro.obs     |

Each property is checked by exactly one rule. Clock reads, global-RNG
draws and untyped raises are wrong anywhere in the library, not only
where an entry point reaches them, so they are per-file rules, which
flag every site. Calls are read through the file's own imports
(:meth:`~repro.lint.core.FileContext.call_chain`), so
``from time import perf_counter`` hides nothing.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.lint.core import FileContext, Rule, register

__all__ = [
    "BroadExceptRule",
    "DtypeDisciplineRule",
    "GlobalRandomnessRule",
    "ObservabilityBoundaryRule",
    "ScatterDisciplineRule",
    "TypedRaiseRule",
]

#: Modules whose results must be bitwise-reproducible: the engine, the
#: scatter kernels, and both parallel executors.
_DETERMINISTIC_SCOPE = ("repro.engine", "repro.parallel")

#: The one module allowed to load native code: the native library, whose
#: edge-array walk is also the engine's one in-place scatter.
_NATIVE_MODULE = "repro.native"

#: Call names that load a native library (``ctypes.CDLL(path)``,
#: ``ctypes.cdll.LoadLibrary(path)``, ``np.ctypeslib.load_library(...)``).
_NATIVE_LOADERS = frozenset({
    "CDLL", "PyDLL", "WinDLL", "OleDLL", "LoadLibrary", "load_library",
})

#: The one package allowed to read clocks or construct span recorders —
#: everything else receives time through injection (CHR007).
_OBS_MODULE = "repro.obs"

#: ``time`` module functions that read a clock.
_WALL_CLOCK = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})

#: Legacy ``np.random.*`` functions, which draw from hidden global state.
_NP_LEGACY_RNG = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "poisson", "binomial", "beta", "gamma",
    "exponential", "bytes", "get_state", "set_state", "RandomState",
})
#: Stdlib ``random.*`` functions, which draw from the interpreter-global RNG.
_STDLIB_RNG = frozenset({
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "betavariate", "expovariate",
    "normalvariate", "getrandbits", "triangular",
})

#: Builtins a library may raise anywhere outside ``repro.errors``...
_ALWAYS_ALLOWED = frozenset({"NotImplementedError"})
#: ...and the special methods whose protocol is a builtin raise.
_GETATTR_FUNCS = frozenset({
    "__getattr__", "__getattribute__", "__setattr__", "__delattr__",
})
_ITER_FUNCS = frozenset({"__next__", "__anext__"})


def _clock_read(chain: Tuple[str, ...]) -> bool:
    """Whether a call's attribute chain reads a clock (``time.*``, ``now``)."""
    if len(chain) == 2 and chain[0] == "time" and chain[1] in _WALL_CLOCK:
        return True
    return (
        len(chain) >= 2
        and chain[-1] in ("now", "utcnow", "today")
        and any(p in ("datetime", "date") for p in chain[:-1])
    )


def _has_kwarg(node: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in node.keywords)


@register
class GlobalRandomnessRule(Rule):
    """CHR001: no global-RNG state.

    Every random draw must come from an explicitly seeded
    ``np.random.Generator`` (``np.random.default_rng(seed)``) or seeded
    ``random.Random(seed)`` instance — the legacy module-level
    ``np.random.*`` / ``random.*`` functions share hidden global state, so
    a draw's value depends on unrelated call history and library results
    stop being a function of their inputs. (Clock reads, which used to be
    this rule's second arm, are now CHR007's observability boundary.)
    """

    rule_id = "CHR001"
    slug = "global-rng"
    title = "no global-RNG nondeterminism"
    invariant = (
        "all randomness flows from a seeded np.random.Generator or "
        "random.Random instance"
    )
    interests = (ast.Call,)

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        chain = ctx.call_chain(node)
        if chain is None:
            return
        if len(chain) == 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
            if chain[2] in _NP_LEGACY_RNG:
                yield node, (
                    f"np.random.{chain[2]} uses hidden global RNG state; draw "
                    "from a seeded np.random.Generator "
                    "(np.random.default_rng(seed))"
                )
            elif chain[2] == "default_rng" and not node.args and not node.keywords:
                yield node, (
                    "np.random.default_rng() without a seed is entropy-"
                    "seeded; pass an explicit seed for reproducible output"
                )
        elif len(chain) == 2 and chain[0] == "random" and chain[1] in _STDLIB_RNG:
            yield node, (
                f"random.{chain[1]} uses the interpreter-global RNG; use a "
                "seeded random.Random(seed) or np.random.default_rng(seed)"
            )


@register
class ScatterDisciplineRule(Rule):
    """CHR002: in-place scatters and native loads only in the native library.

    The bitwise-identity contract between the serial walk and the
    sharded thread executor (and the per-edge loops of
    ``tests/scatter_oracle.py``) holds because every accumulator write
    goes through the one audited sequential fold, the native edge-array walk of :mod:`repro.native` (reached
    through :func:`repro.engine.kernels.walk`; per-cell application order
    and NumPy's tie / NaN rules are pinned there). A stray ``ufunc.at`` in
    the engine or executors bypasses that audit, and under owner-computes
    sharding it can write cells the worker does not own. The library is
    also the package's only foreign code: a native load anywhere else in
    ``repro`` — a second library, loaded past the build's hash and
    ownership checks — is flagged too.
    """

    rule_id = "CHR002"
    slug = "scatter"
    title = "in-place scatters and native loads live in repro/native/ only"
    invariant = (
        "every accumulator scatter goes through the native edge-array walk "
        "(repro.native), preserving per-cell application order; no other "
        "module of the package loads native code"
    )
    interests = (ast.Call,)

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        if ctx.module is None or ctx.in_module(_NATIVE_MODULE):
            return
        func = node.func
        # The ufunc.at signature: <ufunc>.at(array, indices[, values]).
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "at"
            and len(node.args) >= 2
        ):
            if ctx.in_module(*_DETERMINISTIC_SCOPE):
                yield node, (
                    "in-place ufunc.at scatter outside the native "
                    "edge-array walk; fold through kernels.walk "
                    "(repro.native) so per-cell application order stays "
                    "audited"
                )
            return
        chain = ctx.call_chain(node)
        if chain is not None and chain[-1] in _NATIVE_LOADERS:
            yield node, (
                f"native library load ({'.'.join(chain)}) outside "
                "repro.native, the one module of the package that runs "
                "native code"
            )


@register
class BroadExceptRule(Rule):
    """CHR003: no bare/broad ``except`` without a justification tag.

    ``except Exception:`` swallows typed engine errors (ShardRaceError,
    IntegrityError, ...) that callers and the recovery paths dispatch
    on. Cleanup paths that genuinely must never raise
    keep the behaviour explicitly: tag the line
    ``# chronolint: allow-broad-except`` with a justifying comment.
    """

    rule_id = "CHR003"
    slug = "broad-except"
    title = "no untagged bare/broad except"
    invariant = (
        "failure handling catches the specific types it can handle; "
        "swallow-everything blocks are declared, not accidental"
    )
    interests = (ast.ExceptHandler,)

    _BROAD = frozenset({"Exception", "BaseException"})

    def _is_broad(self, expr: Optional[ast.expr]) -> Optional[str]:
        if expr is None:
            return "bare except"
        if isinstance(expr, ast.Name) and expr.id in self._BROAD:
            return f"except {expr.id}"
        if isinstance(expr, ast.Tuple):
            for elt in expr.elts:
                if isinstance(elt, ast.Name) and elt.id in self._BROAD:
                    return f"except (..., {elt.id})"
        return None

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        assert isinstance(node, ast.ExceptHandler)
        if ctx.module is None:  # library scope only; tests may probe broadly
            return
        what = self._is_broad(node.type)
        if what is not None:
            yield node, (
                f"{what} hides typed engine errors; catch the specific "
                "exception types, or justify with "
                "'# chronolint: allow-broad-except'"
            )


@register
class TypedRaiseRule(Rule):
    """CHR005: library raises use typed errors from ``repro.errors``.

    Callers dispatch on the :class:`~repro.errors.ChronosError`
    hierarchy — e.g. ``repro fsck`` reports a file as damaged on a
    ``StorageError``. A stray ``ValueError`` either escapes
    ``except ChronosError`` handlers or gets misclassified. Allowed
    outside the hierarchy: re-raises, exception *variables* and dynamic
    expressions, ``NotImplementedError`` (abstract interfaces),
    ``AttributeError`` inside a ``__getattr__``-family method and
    ``StopIteration`` inside ``__next__``.
    """

    rule_id = "CHR005"
    slug = "untyped-raise"
    title = "raises use typed errors from repro.errors"
    invariant = (
        "every library-raised exception is a repro.errors type, so "
        "callers can dispatch on the hierarchy"
    )
    interests = (ast.Raise,)

    def __init__(self) -> None:
        import repro.errors

        self._typed = {
            name
            for name, obj in vars(repro.errors).items()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == repro.errors.__name__
        }

    def _untyped(self, exc: Optional[ast.expr], funcs: Set[str]) -> Optional[str]:
        """The class an untyped ``raise exc`` constructs, or None if allowed."""
        name: Optional[str] = None
        if isinstance(exc, ast.Call):
            if isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc.func, ast.Attribute):
                name = exc.func.attr
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name is None or not name[:1].isupper():
            return None  # bare re-raise, dynamic expression, or caught variable
        if name in self._typed or name in _ALWAYS_ALLOWED:
            return None
        if name == "AttributeError" and funcs & _GETATTR_FUNCS:
            return None
        if name in ("StopIteration", "StopAsyncIteration") and funcs & _ITER_FUNCS:
            return None
        return name

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        assert isinstance(node, ast.Raise)
        if ctx.module is None:  # library scope only
            return
        name = self._untyped(node.exc, set(ctx.func_stack))
        if name is not None:
            yield node, (
                f"raise {name} inside the library; raise a typed error "
                "from repro.errors so callers can dispatch on the "
                "ChronosError hierarchy"
            )


@register
class DtypeDisciplineRule(Rule):
    """CHR006: explicit dtypes on engine/parallel array allocations.

    Accumulators and plan arrays are handed to the native fold as raw
    buffers whose element type it assumes; a dtype left to numpy's
    platform default (``np.zeros(n)``, ``np.full(shape, fill)``) makes
    the byte layout an accident of the fill value and platform instead
    of a declaration. Engine and parallel
    allocations must say ``np.float64`` / ``np.int64`` / ``np.bool_``
    explicitly.
    """

    rule_id = "CHR006"
    slug = "dtype"
    title = "explicit dtype on engine/parallel allocations"
    invariant = (
        "every allocated accumulator/plan array declares its dtype, so "
        "native buffer layouts and fold precision are pinned, not inferred"
    )
    interests = (ast.Call,)

    #: dtype is the 2nd positional argument of these...
    _ALLOCATORS_POS2 = frozenset({"zeros", "ones", "empty"})
    #: ...and the 3rd of np.full(shape, fill, dtype).
    _ALLOCATORS_POS3 = frozenset({"full"})

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        if not ctx.in_module(*_DETERMINISTIC_SCOPE):
            return
        chain = ctx.call_chain(node)
        if chain is None or len(chain) != 2 or chain[0] not in ("np", "numpy"):
            return
        fn = chain[1]
        if fn in self._ALLOCATORS_POS2:
            needed = 2
        elif fn in self._ALLOCATORS_POS3:
            needed = 3
        else:
            return
        if _has_kwarg(node, "dtype") or len(node.args) >= needed:
            return
        yield node, (
            f"np.{fn} without an explicit dtype in the engine/parallel "
            "scope; declare np.float64/np.int64/np.bool_ so native buffer "
            "layouts are pinned"
        )


@register
class ObservabilityBoundaryRule(Rule):
    """CHR007: clocks and span recording live in ``repro.obs`` only.

    Library results must be a function of their inputs, and the
    observability layer is designed so enabling it cannot change them:
    the engine never reads a clock — it calls :func:`repro.obs.span`,
    which returns the shared no-op while disabled and a recording span
    (whose *injected* clock is read inside :mod:`repro.obs`) while
    enabled. A direct ``time.perf_counter()`` / ``datetime.now()`` read,
    or a :class:`~repro.obs.trace.Tracer` constructed ad hoc in library
    code, punches through that boundary: timing state appears that the
    installed observation does not own, and determinism contracts
    (bitwise identity across executors and reruns) can no longer be
    argued from the absence of clock reads. ``time.sleep`` is
    not a clock read and stays allowed.
    """

    rule_id = "CHR007"
    slug = "obs-boundary"
    title = "clock reads and span recording only inside repro.obs"
    invariant = (
        "library code receives time through repro.obs injection; no "
        "direct clock reads or ad-hoc Tracer construction"
    )
    interests = (ast.Call,)

    _RECORDERS = frozenset({"Tracer"})

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        if ctx.module is None or ctx.in_module(_OBS_MODULE):
            return
        chain = ctx.call_chain(node)
        if chain is None:
            return
        if _clock_read(chain) and chain[0] == "time":
            yield node, (
                f"time.{chain[1]} read outside repro.obs; library timing "
                "flows through repro.obs.span / an injected clock so a "
                "disabled run stays provably clock-free"
            )
        elif _clock_read(chain):
            yield node, (
                f"{'.'.join(chain)} reads the wall clock outside repro.obs; "
                "inject time through the observability layer instead"
            )
        elif chain[-1] in self._RECORDERS:
            yield node, (
                f"{chain[-1]} constructed outside repro.obs; install an "
                "observation (repro.obs.observe / install) instead of "
                "recording spans ad hoc"
            )
