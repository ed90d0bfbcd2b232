"""The native gather-fold: the scatter's inner loop in C, called through ctypes.

``native_fold.c`` holds one loop per combine kind — ``fold_add``,
``fold_min`` and ``fold_max`` — each applying
``acc[dst[p]] = op(acc[dst[p]], m)`` entry by entry in stream order, with
``p = sel[i]`` (or ``i``) and ``m = msg[src[p]]`` (or ``msg[i]``). Each
combine is NumPy's scalar rule with the operands in NumPy's order, so the
fold equals the sequential ``ufunc.at`` it replaced byte for byte,
including ``-0.0`` ties, NaNs and infinities (``tests/test_kernel_plans.py``
keeps ``ufunc.at`` as the oracle).

**Build.** The library is built on the first fold, never on import, with
``gcc -O2 -shared -fPIC`` into the per-user cache directory
``$XDG_CACHE_HOME/repro/native`` (``~/.cache/repro/native`` by default). Its
file name is a hash of the C source, the compiler and flags, and the
platform, so an edited source or another platform never loads a stale
build, and a later process loads the published library without running
the compiler. Publication goes through
:func:`repro.storage.atomic.atomic_write_via`: concurrent first builds
each compile into their own temporary sibling and rename it over the same
final name, so every process loads a complete library and none leaves a
temporary file behind. A missing compiler, a failed build and a cache
directory that is not the user's own — owned by someone else, or writable
by group or others — are typed :class:`~repro.errors.EngineError`\\ s; a
refused directory is never ``dlopen``-ed from.

This is the one module of the engine and the executors that loads native
code (chronolint CHR002).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import sysconfig
import threading
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import EngineError
from repro.storage.atomic import atomic_write_via

#: The C source, shipped as package data next to this module.
SOURCE = Path(__file__).with_name("native_fold.c")
COMPILER = "gcc"
CFLAGS = ("-O2", "-shared", "-fPIC")
#: Combine kinds; the library exports ``fold_<kind>`` for each.
KINDS = ("add", "min", "max")

_INDEX = np.ctypeslib.ndpointer(np.intp, ndim=1, flags="C_CONTIGUOUS")


def _or_null(pointer: Any) -> Any:
    """The ``pointer`` argtype, also accepting ``None`` (passed as NULL)."""
    return type(
        f"{pointer.__name__}_or_null",
        (pointer,),
        {
            "from_param": classmethod(
                lambda cls, obj: None if obj is None else pointer.from_param(obj)
            )
        },
    )


#: ``fold_<kind>(acc, dst, sel|NULL, src|NULL, msg, n)``: ctypes checks
#: dtype, rank, contiguity and (for ``acc``) writability on every call.
_ARGTYPES = [
    np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"),
    _INDEX,
    _or_null(_INDEX),
    _or_null(_INDEX),
    np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS"),
    ctypes.c_ssize_t,
]

_LOCK = threading.Lock()
#: ``kind -> foreign function``, loaded once per process on the first fold.
_FOLDS: Optional[Dict[str, Any]] = None


def cache_dir() -> Path:
    """The per-user directory native builds are published into."""
    # Where the build is kept, never what it computes.
    root = os.environ.get("XDG_CACHE_HOME", "")  # chronolint: disable=CHF001
    base = Path(root) if os.path.isabs(root) else Path.home() / ".cache"
    return base / "repro" / "native"


def library_path(directory: Path) -> Path:
    """The library's name in ``directory``: a hash of source, flags, platform."""
    digest = hashlib.sha256()
    for part in (
        SOURCE.read_bytes(),
        " ".join((COMPILER,) + CFLAGS).encode(),
        sysconfig.get_platform().encode(),
    ):
        digest.update(len(part).to_bytes(8, "little") + part)
    return directory / f"native_fold-{digest.hexdigest()[:16]}.so"


def _owned_dir(directory: Path) -> Path:
    """Create ``directory`` (mode 0700) and refuse it unless only we can write it."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
    except OSError as exc:
        raise EngineError(
            f"cannot create the native build directory {directory}: {exc}"
        ) from exc
    if info.st_uid != os.getuid():
        raise EngineError(
            f"refusing to load native code from {directory}: it is owned by "
            f"uid {info.st_uid}, not by this user (uid {os.getuid()})"
        )
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise EngineError(
            f"refusing to load native code from {directory}: it is writable "
            f"by group or others (mode {stat.S_IMODE(info.st_mode):o})"
        )
    return directory


def _build(target: Path) -> None:
    """Compile the source into ``target``, published atomically."""
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise EngineError(
            f"the native gather-fold needs the C compiler {COMPILER!r} on "
            f"PATH to build {SOURCE.name} (once per user and platform)"
        )

    def compile_into(tmp: Path) -> None:
        try:
            proc = subprocess.run(
                [compiler, *CFLAGS, "-o", str(tmp), str(SOURCE)],
                capture_output=True,
                text=True,
                check=False,
            )
        except OSError as exc:
            raise EngineError(f"cannot run the C compiler {COMPILER!r}: {exc}") from exc
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            raise EngineError(
                f"{COMPILER} failed to build {SOURCE.name}: {proc.stderr.strip()}"
            )

    # A per-process, per-thread temporary name: concurrent builders never
    # write the same file, and the last rename wins with a whole library.
    atomic_write_via(
        target, compile_into, tag=f"{os.getpid()}-{threading.get_ident()}"
    )


def _load() -> Dict[str, Any]:
    path = library_path(_owned_dir(cache_dir()))
    if not path.exists():
        _build(path)
    try:
        library = ctypes.CDLL(str(path))
    except OSError as exc:
        raise EngineError(
            f"cannot load the native gather-fold {path}: {exc} "
            "(delete the file to rebuild it)"
        ) from exc
    folds: Dict[str, Any] = {}
    for kind in KINDS:
        function = getattr(library, f"fold_{kind}")
        function.argtypes = _ARGTYPES
        function.restype = None
        folds[kind] = function
    return folds


def fold(
    kind: str,
    acc: np.ndarray,
    dst: np.ndarray,
    msg: np.ndarray,
    sel: Optional[np.ndarray] = None,
    src: Optional[np.ndarray] = None,
) -> int:
    """Fold entries ``sel`` (None = all of ``dst``) into ``acc``; returns the count.

    ``kind`` is one of :data:`KINDS`. Messages are ``msg[src[p]]`` when
    ``src`` is given (one message per cell), else ``msg[i]`` (one per
    folded entry). ``dst``, ``sel`` and ``src`` are trusted plan indices:
    the sizes are checked here, the index values are not.
    """
    global _FOLDS
    with _LOCK:
        if _FOLDS is None:
            _FOLDS = _load()
        folds = _FOLDS
    n = int(dst.shape[0] if sel is None else sel.shape[0])
    if src is None and msg.shape[0] < n:
        raise EngineError(f"fold of {n} entries got only {msg.shape[0]} messages")
    if src is not None and src.shape[0] != dst.shape[0]:
        raise EngineError(
            f"fold source index has {src.shape[0]} entries, the stream {dst.shape[0]}"
        )
    folds[kind](acc, dst, sel, src, msg, n)
    return n
