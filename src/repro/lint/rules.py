"""The CHR rule set: the engine's determinism and shm-safety contracts.

Each rule mechanically enforces one invariant the engine's correctness
story rests on (bitwise-identical LABS results across the serial,
process-parallel, and fault-recovery paths — see PAPER.md Section 4's
disjoint-ownership argument). Rules are scoped by dotted module prefix
(:meth:`repro.lint.core.FileContext.in_module`), so fixing a violation in
scope is always preferable to tagging it; tags exist for the handful of
sites where broad behaviour is the contract (e.g. cleanup paths that must
never raise).

| id     | slug            | invariant                                       |
| ------ | --------------- | ----------------------------------------------- |
| CHR001 | global-rng      | no global-RNG nondeterminism                    |
| CHR002 | scatter         | in-place scatter only inside engine/kernels.py  |
| CHR003 | broad-except    | no untagged bare/broad ``except``               |
| CHR004 | ipc             | WorkerPool IPC ships picklable primitives only  |
| CHR005 | untyped-raise   | library raises use ``repro.errors`` types       |
| CHR006 | dtype           | explicit dtypes on engine/parallel allocations  |
| CHR007 | obs-boundary    | clocks and span recording live in repro.obs     |
| CHR008 | atomic-write    | durable writes go through storage.atomic / WAL  |
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional, Tuple

from repro.lint.core import FileContext, Rule, register

__all__ = [
    "AtomicWriteRule",
    "BroadExceptRule",
    "DtypeDisciplineRule",
    "GlobalRandomnessRule",
    "IpcPicklableRule",
    "ObservabilityBoundaryRule",
    "ScatterDisciplineRule",
    "TypedRaiseRule",
]

#: Modules whose results must be bitwise-reproducible: the engine, the
#: scatter kernels, and both parallel executors.
_DETERMINISTIC_SCOPE = ("repro.engine", "repro.parallel")

#: The one module allowed to perform in-place scatter folds.
_KERNEL_MODULE = "repro.engine.kernels"

#: The one package allowed to read clocks or construct span recorders —
#: everything else receives time through injection (CHR007).
_OBS_MODULE = "repro.obs"

#: ``time`` module functions that read a clock.
_WALL_CLOCK = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})


def _attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``("np", "random", "seed")`` for ``np.random.seed``; None if dynamic."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


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

    _NP_LEGACY = frozenset({
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
        "normal", "standard_normal", "poisson", "binomial", "beta", "gamma",
        "exponential", "bytes", "get_state", "set_state", "RandomState",
    })
    _STDLIB_RANDOM = frozenset({
        "seed", "random", "randint", "randrange", "choice", "choices",
        "shuffle", "sample", "uniform", "gauss", "betavariate", "expovariate",
        "normalvariate", "getrandbits", "triangular",
    })

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        chain = _attr_chain(node.func)
        if chain is None:
            return
        if len(chain) == 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
            fn = chain[2]
            if fn in self._NP_LEGACY:
                yield node, (
                    f"np.random.{fn} uses hidden global RNG state; draw from "
                    "a seeded np.random.Generator (np.random.default_rng(seed))"
                )
            elif fn == "default_rng" and not node.args and not node.keywords:
                yield node, (
                    "np.random.default_rng() without a seed is entropy-"
                    "seeded; pass an explicit seed for reproducible output"
                )
        elif len(chain) == 2 and chain[0] == "random" and chain[1] in self._STDLIB_RANDOM:
            yield node, (
                f"random.{chain[1]} uses the interpreter-global RNG; use a "
                "seeded random.Random(seed) or np.random.default_rng(seed)"
            )


@register
class ScatterDisciplineRule(Rule):
    """CHR002: ``ufunc.at`` / in-place scatter only inside engine/kernels.py.

    The bitwise-identity contract between the serial fold, the simulated
    engine, and the sharded process executor holds because every
    vectorised accumulator write goes through the one audited sequential
    fold, :func:`repro.engine.kernels.fold_stream` (per-cell application
    order is pinned there). A stray ``ufunc.at`` elsewhere in the engine or
    executors bypasses that audit — and under owner-computes sharding it
    can write cells the worker does not own.
    """

    rule_id = "CHR002"
    slug = "scatter"
    title = "in-place scatter folds live in engine/kernels.py only"
    invariant = (
        "every accumulator scatter goes through the audited folds of "
        "repro.engine.kernels, preserving per-cell application order"
    )
    interests = (ast.Call,)

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        if not ctx.in_module(*_DETERMINISTIC_SCOPE):
            return
        if ctx.in_module(_KERNEL_MODULE):
            return
        func = node.func
        # The ufunc.at signature: <ufunc>.at(array, indices[, values]).
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "at"
            and len(node.args) >= 2
        ):
            yield node, (
                "in-place ufunc.at scatter outside repro.engine.kernels; "
                "route the fold through kernels.fold_stream "
                "so per-cell application order stays audited"
            )


@register
class BroadExceptRule(Rule):
    """CHR003: no bare/broad ``except`` without a justification tag.

    ``except Exception:`` swallows typed engine errors (WorkerError,
    ShardRaceError, IntegrityError, ...) that the retry/fault-recovery
    machinery dispatches on. Cleanup paths that genuinely must never raise
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
class IpcPicklableRule(Rule):
    """CHR004: WorkerPool IPC ships declared-picklable primitives only.

    Messages to :class:`repro.parallel.shm.WorkerPool` workers cross a
    process boundary through ``pickle``. Lambdas and closures do not
    pickle at all; ndarrays pickle by *copying*, silently defeating the
    shared-memory design (workers must map published segments, never
    receive array payloads). This rule statically rejects both appearing
    anywhere inside the arguments of ``call_each`` / ``call_all`` /
    ``conn.send`` calls.
    """

    rule_id = "CHR004"
    slug = "ipc"
    title = "WorkerPool IPC args are picklable primitives"
    invariant = (
        "worker messages contain primitives/dataclass specs only — arrays "
        "travel via named shm segments, code via top-level defs"
    )
    interests = (ast.Call,)

    _IPC_METHODS = frozenset({"call_each", "call_all"})
    _NDARRAY_FACTORIES = frozenset({
        "array", "asarray", "ascontiguousarray", "zeros", "ones", "empty",
        "full", "arange", "frombuffer", "copy", "memmap",
    })

    def _is_ipc_call(self, func: ast.expr) -> bool:
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr in self._IPC_METHODS:
            return True
        # send_bytes is the batched-dispatch framing (pickle.dumps +
        # send_bytes); its payload obeys the same picklable-primitives
        # contract as Connection.send.
        if func.attr in ("send", "send_bytes"):
            chain = _attr_chain(func.value)
            terminal = chain[-1] if chain else ""
            return "conn" in terminal or "pipe" in terminal
        return False

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        if not self._is_ipc_call(node.func):
            return
        payload = list(node.args) + [kw.value for kw in node.keywords]
        for arg in payload:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    yield sub, (
                        "lambda inside a WorkerPool IPC message; closures "
                        "do not pickle — ship a top-level function name or "
                        "a declared spec instead"
                    )
                elif isinstance(sub, ast.Call):
                    chain = _attr_chain(sub.func)
                    if (
                        chain is not None
                        and len(chain) == 2
                        and chain[0] in ("np", "numpy")
                        and chain[1] in self._NDARRAY_FACTORIES
                    ):
                        yield sub, (
                            f"np.{chain[1]} constructed inside a WorkerPool "
                            "IPC message; arrays must travel through named "
                            "shared-memory segments (BlockSpec), not pickles"
                        )


def _typed_error_names() -> FrozenSet[str]:
    """Exception class names exported by :mod:`repro.errors` (live set)."""
    import repro.errors

    return frozenset(
        name
        for name, obj in vars(repro.errors).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    )


@register
class TypedRaiseRule(Rule):
    """CHR005: library raises use typed errors from ``repro.errors``.

    Callers (and the retry machinery) dispatch on the
    :class:`~repro.errors.ChronosError` hierarchy — e.g. only
    ``WorkerError`` is retryable. A stray ``ValueError`` either escapes
    ``except ChronosError`` handlers or gets misclassified. Allowed
    outside the hierarchy: re-raises, exception *variables*,
    ``NotImplementedError`` (abstract interfaces), and ``AttributeError``
    inside ``__getattr__``-family protocol methods.
    """

    rule_id = "CHR005"
    slug = "untyped-raise"
    title = "raises use typed errors from repro.errors"
    invariant = (
        "every library-raised exception is a repro.errors type, so "
        "callers and the retry machinery can dispatch on the hierarchy"
    )
    interests = (ast.Raise,)

    _ALWAYS_ALLOWED = frozenset({"NotImplementedError"})
    _GETATTR_FUNCS = frozenset({
        "__getattr__", "__getattribute__", "__setattr__", "__delattr__",
    })

    def __init__(self) -> None:
        self._allowed = _typed_error_names() | self._ALWAYS_ALLOWED

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        assert isinstance(node, ast.Raise)
        if ctx.module is None:  # library scope only
            return
        exc = node.exc
        if exc is None:  # bare re-raise
            return
        name: Optional[str] = None
        if isinstance(exc, ast.Call):
            if isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc.func, ast.Attribute):
                name = exc.func.attr
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name is None or not name[:1].isupper():
            return  # dynamic expression or a caught-exception variable
        if name in self._allowed:
            return
        if (
            name == "AttributeError"
            and any(f in self._GETATTR_FUNCS for f in ctx.func_stack)
        ):
            return
        yield node, (
            f"raise {name} inside the library; raise a typed error from "
            "repro.errors so callers can dispatch on the ChronosError "
            "hierarchy"
        )


@register
class DtypeDisciplineRule(Rule):
    """CHR006: explicit dtypes on engine/parallel array allocations.

    Accumulators and plan arrays cross the shm boundary as raw bytes
    described by a :class:`~repro.parallel.shm.BlockSpec` dtype string; a
    dtype left to numpy's platform default (``np.zeros(n)``,
    ``np.full(shape, fill)``) makes the byte layout an accident of the
    fill value and platform instead of a declaration. Engine and parallel
    allocations must say ``np.float64`` / ``np.int64`` / ``np.bool_``
    explicitly.
    """

    rule_id = "CHR006"
    slug = "dtype"
    title = "explicit dtype on engine/parallel allocations"
    invariant = (
        "every allocated accumulator/plan array declares its dtype, so "
        "shm block layouts and fold precision are pinned, not inferred"
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
        chain = _attr_chain(node.func)
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
            "scope; declare np.float64/np.int64/np.bool_ so shm block "
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
    or a :class:`~repro.obs.trace.Tracer` / ``PhaseTimer`` constructed
    ad hoc in library code, punches through that boundary: timing state
    appears that the installed observation does not own, and determinism
    contracts (bitwise identity across executors and reruns) can no
    longer be argued from the absence of clock reads. ``time.sleep`` is
    not a clock read and stays allowed (retry backoff).
    """

    rule_id = "CHR007"
    slug = "obs-boundary"
    title = "clock reads and span recording only inside repro.obs"
    invariant = (
        "library code receives time through repro.obs injection; no "
        "direct clock reads or ad-hoc Tracer/PhaseTimer construction"
    )
    interests = (ast.Call,)

    _RECORDERS = frozenset({"Tracer", "PhaseTimer"})

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        if ctx.module is None or ctx.in_module(_OBS_MODULE):
            return
        chain = _attr_chain(node.func)
        if chain is None:
            return
        if len(chain) == 2 and chain[0] == "time" and chain[1] in _WALL_CLOCK:
            yield node, (
                f"time.{chain[1]} read outside repro.obs; library timing "
                "flows through repro.obs.span / an injected clock so a "
                "disabled run stays provably clock-free"
            )
        elif (
            len(chain) >= 2
            and chain[-1] in ("now", "utcnow", "today")
            and any(p in ("datetime", "date") for p in chain[:-1])
        ):
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


@register
class AtomicWriteRule(Rule):
    """CHR008: durable writes go through ``repro.storage.atomic`` or the WAL.

    A reader that observes a half-written file sees torn state: the crash
    matrix (PR 8) proves recovery only because every durable byte is
    published via write-to-temp → fsync → ``os.replace`` → dir-fsync
    (:mod:`repro.storage.atomic`) or the CRC-framed WAL
    (:mod:`repro.streaming`). A raw ``open(path, "wb")`` / ``np.save`` /
    ``os.replace`` anywhere else in the library is either a latent
    torn-write bug or an intentional non-durable output (bench reports,
    trace dumps) — the latter get a justified
    ``# chronolint: allow-atomic-write`` tag. This is the fast syntactic
    companion to chronoflow's interprocedural sink pass (CHF003), which
    additionally proves temp-scoped paths never escape.
    """

    rule_id = "CHR008"
    slug = "atomic-write"
    title = "durable writes flow through storage.atomic or the WAL"
    invariant = (
        "every durable filesystem write is published atomically "
        "(storage.atomic helpers) or WAL-framed; raw writes are declared"
    )
    interests = (ast.Call,)

    #: The modules that implement the publish discipline itself.
    _EXEMPT = ("repro.storage.atomic", "repro.streaming")

    _NP_WRITERS = frozenset({"save", "savez", "savez_compressed", "savetxt"})
    _OS_REPLACERS = frozenset({"replace", "rename", "renames"})
    _PATH_WRITERS = frozenset({"write_bytes", "write_text"})

    @staticmethod
    def _write_mode(node: ast.Call) -> Optional[str]:
        """The mode literal of an ``open()`` call when it writes, else None."""
        mode: Optional[ast.expr] = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return None  # default "r" — not a write
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value if any(c in mode.value for c in "wxa") else None
        return None  # dynamic mode expression — out of syntactic reach

    def check(
        self, node: ast.AST, ctx: FileContext
    ) -> Iterator[Tuple[ast.AST, str]]:
        assert isinstance(node, ast.Call)
        if ctx.module is None or ctx.in_module(*self._EXEMPT):
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = self._write_mode(node)
            if mode is not None:
                yield node, (
                    f"open(..., {mode!r}) outside repro.storage.atomic / "
                    "repro.streaming; publish durable bytes via "
                    "atomic_write_bytes/atomic_write_via or the WAL, or tag "
                    "non-durable output with "
                    "'# chronolint: allow-atomic-write'"
                )
            return
        chain = _attr_chain(func)
        if chain is None:
            return
        if len(chain) == 2 and chain[0] in ("np", "numpy") and chain[1] in self._NP_WRITERS:
            yield node, (
                f"np.{chain[1]} writes a file in place; route it through "
                "atomic_write_via so readers never observe a torn array"
            )
        elif len(chain) == 2 and chain[0] == "os" and chain[1] in self._OS_REPLACERS:
            yield node, (
                f"os.{chain[1]} outside repro.storage.atomic; publication "
                "renames belong to the atomic helpers (which also fsync "
                "the file and directory)"
            )
        elif len(chain) >= 2 and chain[-1] in self._PATH_WRITERS:
            yield node, (
                f"Path.{chain[-1]} writes in place; publish via "
                "repro.storage.atomic, or tag non-durable output with "
                "'# chronolint: allow-atomic-write'"
            )
