"""The native library: the engine's gather-fold and the store's section codec.

One shared library, built from the two C sources shipped beside this module
and called through ctypes:

- ``fold.c``, the scatter's inner loop (:func:`fold`). One loop per combine
  kind — ``fold_add``, ``fold_min`` and ``fold_max`` — each applying
  ``acc[dst[p]] = op(acc[dst[p]], m)`` entry by entry in stream order, with
  ``p = sel[i]`` (or ``i``) and ``m = msg[src[p]]`` (or ``msg[i]``). Each
  combine is NumPy's scalar rule with the operands in NumPy's order, so the
  fold equals the sequential ``ufunc.at`` it replaced byte for byte,
  including ``-0.0`` ties, NaNs and infinities (``tests/test_kernel_plans.py``
  keeps ``ufunc.at`` as the oracle).
- ``sections.c``, the edge file's section codec (:func:`scan_sections`,
  :func:`pack_sections`). A table-driven CRC-32 equal to ``zlib.crc32``; the
  reader checks every segment's two CRCs against its stored trailer and
  gathers the checkpoint and activity sections into two buffers in one
  call, and the writer lays segments out with their trailers in one call
  (``tests/test_native_sections.py`` keeps ``zlib`` and the per-segment
  loops as the oracles).

**Build.** The library is built on the first native call, never on import,
with ``gcc -O2 -shared -fPIC`` into the per-user cache directory
``$XDG_CACHE_HOME/repro/native`` (``~/.cache/repro/native`` by default). Its
file name is a hash of both C sources, the compiler and flags, and the
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

This is the one module of the package that loads native code (chronolint
CHR002). It imports nothing from the rest of the package at import time,
so storage, below the engine, can call it.
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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import EngineError, StorageError

#: The C sources, shipped as package data next to this module.
SOURCES = (
    Path(__file__).with_name("fold.c"),
    Path(__file__).with_name("sections.c"),
)
COMPILER = "gcc"
CFLAGS = ("-O2", "-shared", "-fPIC")
#: Combine kinds; the library exports ``fold_<kind>`` for each.
KINDS = ("add", "min", "max")
#: Bytes of a segment trailer: the two sections' CRC-32s.
TRAILER_SIZE = 8

_INDEX = np.ctypeslib.ndpointer(np.intp, ndim=1, flags="C_CONTIGUOUS")
_BYTES = np.ctypeslib.ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS")
_OUT_BYTES = np.ctypeslib.ndpointer(
    np.uint8, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"
)
_LENGTHS = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")


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
_FOLD = (
    [
        np.ctypeslib.ndpointer(
            np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"
        ),
        _INDEX,
        _or_null(_INDEX),
        _or_null(_INDEX),
        np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS"),
        ctypes.c_ssize_t,
    ],
    None,
)

#: Every exported function: ``name -> (argtypes, restype)``.
_SIGNATURES: Dict[str, Tuple[List[Any], Any]] = {
    **{f"fold_{kind}": _FOLD for kind in KINDS},
    "scan_sections": (
        [
            _BYTES, ctypes.c_int64,
            _LENGTHS, _LENGTHS, _LENGTHS, ctypes.c_ssize_t, ctypes.c_int,
            _OUT_BYTES, ctypes.c_int64, _OUT_BYTES, ctypes.c_int64,
        ],
        ctypes.c_ssize_t,
    ),
    "pack_sections": (
        [
            _BYTES, ctypes.c_int64, _BYTES, ctypes.c_int64,
            _LENGTHS, _LENGTHS, ctypes.c_ssize_t, _OUT_BYTES, ctypes.c_int64,
        ],
        ctypes.c_int,
    ),
}

_LOCK = threading.Lock()
#: ``name -> foreign function``, loaded once per process on the first call.
_FUNCTIONS: Optional[Dict[str, Any]] = None


def cache_dir() -> Path:
    """The per-user directory native builds are published into."""
    # Where the build is kept, never what it computes.
    root = os.environ.get("XDG_CACHE_HOME", "")  # chronolint: disable=CHF001
    base = Path(root) if os.path.isabs(root) else Path.home() / ".cache"
    return base / "repro" / "native"


def library_path(directory: Path) -> Path:
    """The library's name in ``directory``: a hash of sources, flags, platform."""
    digest = hashlib.sha256()
    for part in (
        *(source.read_bytes() for source in SOURCES),
        " ".join((COMPILER,) + CFLAGS).encode(),
        sysconfig.get_platform().encode(),
    ):
        digest.update(len(part).to_bytes(8, "little") + part)
    return directory / f"repro_native-{digest.hexdigest()[:16]}.so"


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
    """Compile the sources into ``target``, published atomically."""
    # Imported here: storage calls this package, so importing it must not
    # import storage.
    from repro.storage.atomic import atomic_write_via

    names = ", ".join(source.name for source in SOURCES)
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise EngineError(
            f"the native library needs the C compiler {COMPILER!r} on "
            f"PATH to build {names} (once per user and platform)"
        )

    def compile_into(tmp: Path) -> None:
        try:
            proc = subprocess.run(
                [compiler, *CFLAGS, "-o", str(tmp), *map(str, SOURCES)],
                capture_output=True,
                text=True,
                check=False,
            )
        except OSError as exc:
            raise EngineError(f"cannot run the C compiler {COMPILER!r}: {exc}") from exc
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            raise EngineError(
                f"{COMPILER} failed to build {names}: {proc.stderr.strip()}"
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
            f"cannot load the native library {path}: {exc} "
            "(delete the file to rebuild it)"
        ) from exc
    functions: Dict[str, Any] = {}
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = restype
        functions[name] = function
    return functions


def _function(name: str) -> Any:
    """The library's ``name``, building and loading the library on first use."""
    global _FUNCTIONS
    with _LOCK:
        if _FUNCTIONS is None:
            _FUNCTIONS = _load()
        return _FUNCTIONS[name]


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
    function = _function(f"fold_{kind}")
    n = int(dst.shape[0] if sel is None else sel.shape[0])
    if src is None and msg.shape[0] < n:
        raise EngineError(f"fold of {n} entries got only {msg.shape[0]} messages")
    if src is not None and src.shape[0] != dst.shape[0]:
        raise EngineError(
            f"fold source index has {src.shape[0]} entries, the stream {dst.shape[0]}"
        )
    function(acc, dst, sel, src, msg, n)
    return n


def scan_sections(
    data: np.ndarray,
    offset: np.ndarray,
    cp_len: np.ndarray,
    act_len: np.ndarray,
    gather: bool,
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Verify and gather the segments of the file bytes ``data`` (``uint8``).

    Segment ``i`` holds ``cp_len[i]`` checkpoint bytes at ``offset[i]``,
    then ``act_len[i]`` activity bytes (all ``int64``); its trailer must
    hold both sections' CRC-32s. Returns the first segment whose trailer does not match (``len(offset)``
    when all do) and, with ``gather`` and all matching, every section back
    to back as a checkpoint and an activity byte array (empty arrays
    without). The caller proves every segment lies inside ``data`` first;
    the C checks it again, and a range that does not is a
    :class:`~repro.errors.StorageError`.
    """
    function = _function("scan_sections")
    n = int(offset.shape[0])
    if cp_len.shape[0] != n or act_len.shape[0] != n:
        raise StorageError(
            f"section scan of {n} segments got {cp_len.shape[0]} checkpoint "
            f"and {act_len.shape[0]} activity lengths"
        )
    cp_out = np.empty(max(int(cp_len.sum()), 0) if gather else 0, dtype=np.uint8)
    act_out = np.empty(max(int(act_len.sum()), 0) if gather else 0, dtype=np.uint8)
    first_bad = int(
        function(
            data, data.shape[0], offset, cp_len, act_len, n,
            gather, cp_out, cp_out.shape[0], act_out, act_out.shape[0],
        )
    )
    if first_bad < 0:
        raise StorageError(
            f"section scan of {n} segments: a section lies outside the "
            f"{data.shape[0]} bytes it was given"
        )
    return first_bad, cp_out, act_out


def pack_sections(
    cp: np.ndarray,
    act: np.ndarray,
    cp_len: np.ndarray,
    act_len: np.ndarray,
) -> np.ndarray:
    """The segments of an edge file, back to back, as one ``uint8`` array.

    Segment ``i`` is the next ``cp_len[i]`` bytes of ``cp``, the next
    ``act_len[i]`` bytes of ``act`` (both ``uint8``, lengths ``int64``) and
    the trailer of their two CRC-32s. The lengths must use up both arrays
    exactly, else a :class:`~repro.errors.StorageError`.
    """
    function = _function("pack_sections")
    n = int(cp_len.shape[0])
    if act_len.shape[0] != n:
        raise StorageError(
            f"section pack of {n} checkpoint lengths got {act_len.shape[0]} "
            "activity lengths"
        )
    out = np.empty(cp.shape[0] + act.shape[0] + TRAILER_SIZE * n, dtype=np.uint8)
    if function(
        cp, cp.shape[0], act, act.shape[0], cp_len, act_len, n, out, out.shape[0]
    ):
        raise StorageError(
            f"section pack: {n} segment lengths do not use up the "
            f"{cp.shape[0]} checkpoint and {act.shape[0]} activity bytes"
        )
    return out
