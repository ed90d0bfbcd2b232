"""The native library: the engine's walk and settle, a series' degrees, the
edge order, and the store's section codec.

One shared library, built from the two C sources shipped beside this module
and called through ctypes:

- ``fold.c``, the scatter (:func:`walk`), apply's :func:`settle`
  (``tests/apply_oracle.py`` is its oracle) and a snapshot series'
  per-snapshot out-degrees in one pass over its edges (:func:`out_degrees`;
  ``tests/degree_oracle.py`` keeps the per-snapshot ``bincount`` loop it
  replaced as the oracle), and the stable counting sort of key pairs
  behind every edge order (:func:`pair_order`; ``np.lexsort`` is its
  oracle, a property test in ``tests/test_reconstruct_parity.py``). The
  walk is one loop per combine kind — ``walk_add``, ``walk_min`` and
  ``walk_max`` — over a LABS group's edge array: for every edge of the
  range and every set bit ``s`` of its snapshot bitmap (masked by the
  running snapshots or by the source's frontier word), ``acc[dst, s] =
  op(acc[dst, s], m)`` with ``m`` the source cell's message, or that
  message combined with the edge's weight.
  The dense walk runs over a range of in-edges, the sparse walk over the
  frontier's out-edges, keeping one destination interval. Each combine is
  NumPy's scalar rule with the operands in NumPy's order, so the walk
  equals the sequential ``ufunc.at`` over the per-(edge, snapshot) stream
  it replaced byte for byte, including ``-0.0`` ties, NaNs and
  infinities (``tests/test_kernel_plans.py`` keeps ``ufunc.at`` and that
  stream, ``tests/plan_oracle.py``, as the oracles).
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

from repro.errors import EngineError, SnapshotError, StorageError

#: The C sources, shipped as package data next to this module.
SOURCES = (
    Path(__file__).with_name("fold.c"),
    Path(__file__).with_name("sections.c"),
)
COMPILER = "gcc"
CFLAGS = ("-O2", "-shared", "-fPIC")
#: Combine kinds; the library exports ``walk_<kind>`` for each.
KINDS = ("add", "min", "max")
#: Bytes of a segment trailer: the two sections' CRC-32s.
TRAILER_SIZE = 8

_BYTES = np.ctypeslib.ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS")
_OUT_BYTES = np.ctypeslib.ndpointer(
    np.uint8, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"
)
_LENGTHS = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
_OUT_LENGTHS = np.ctypeslib.ndpointer(
    np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"
)


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


_WORDS = np.ctypeslib.ndpointer(np.uint64, ndim=1, flags="C_CONTIGUOUS")
_SIZE = ctypes.c_ssize_t

#: ``walk_<kind>(acc, msg, bitmap, src, dst, index, rows, nrows, weight,
#: wrow, edge_op, front, mask, lo, hi, vs, ss, nsnap)``: ctypes checks
#: dtype, rank, contiguity and (for ``acc``) writability on every call. The
#: weight matrix is passed through its row stride (``wrow``), so a column
#: slice of a wider matrix needs no copy.
_WALK = (
    [
        np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE"),
        np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS"),
        _WORDS, _LENGTHS, _LENGTHS, _or_null(_LENGTHS), _or_null(_LENGTHS), _SIZE,
        _or_null(np.ctypeslib.ndpointer(np.float64, ndim=2)), _SIZE, ctypes.c_int,
        _or_null(_WORDS), ctypes.c_uint64, _SIZE, _SIZE, _SIZE, _SIZE, _SIZE,
    ],
    _SIZE,
)

#: Every exported function: ``name -> (argtypes, restype)``. ``settle`` reads
#: its value arrays through their element strides: a view needs no copy.
_SIGNATURES: Dict[str, Tuple[List[Any], Any]] = {
    **{f"walk_{kind}": _WALK for kind in KINDS},
    "settle": (
        [
            np.ctypeslib.ndpointer(np.float64, ndim=2, flags="WRITEABLE"), _SIZE, _SIZE,
            np.ctypeslib.ndpointer(np.float64, ndim=2), _SIZE, _SIZE, _WORDS,
            ctypes.c_uint64, np.ctypeslib.ndpointer(np.uint64, ndim=1, flags="C,W"),
            ctypes.c_double, _SIZE,
        ],
        ctypes.c_uint64,
    ),
    "out_degrees": (
        [_WORDS, _LENGTHS, _SIZE, _SIZE,
         np.ctypeslib.ndpointer(np.int64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")],
        None,
    ),
    "pair_order": (
        [_LENGTHS, _LENGTHS, _SIZE, _OUT_LENGTHS, _SIZE, _OUT_LENGTHS, _OUT_LENGTHS],
        None,
    ),
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
    root = os.environ.get("XDG_CACHE_HOME", "")  # chronolint: allow-effect
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


def walk(
    kind: str,
    acc: np.ndarray,
    msg: np.ndarray,
    edges: Tuple[np.ndarray, np.ndarray, np.ndarray],
    lo: int,
    hi: int,
    strides: Tuple[int, int],
    num_snapshots: int,
    *,
    mask: int = 0,
    front: Optional[np.ndarray] = None,
    rows: Optional[np.ndarray] = None,
    index: Optional[np.ndarray] = None,
    weight: Optional[np.ndarray] = None,
    edge_op: Optional[str] = None,
) -> int:
    """Fold one walk of an edge array into ``acc``; returns the pairs folded.

    ``edges`` is ``(bitmap, src, dst)``. Without ``rows`` this is the dense
    walk over the edges ``[lo, hi)``, each edge's bits masked by
    ``front[src]`` (one ``uint64`` word per vertex) or, without ``front``,
    by ``mask``; with ``rows`` it is the sparse walk over the out-edges
    ``[index[u], index[u + 1])`` of each frontier row ``u``, keeping
    destinations in ``[lo, hi)``. ``kind`` is one of :data:`KINDS`;
    ``strides`` are the accumulator's vertex and snapshot strides; ``msg``
    holds one message per accumulator cell, combined with ``weight[e, s]``
    by ``edge_op`` (``"add"`` or ``"mul"``) when given. The sizes are
    checked here, the index values are not: they are the group's own edge
    arrays, proven owner-safe before every walk
    (:func:`repro.parallel.shm.cut_ranges`).
    """
    function = _function(f"walk_{kind}")
    bitmap, src, dst = edges
    length = int(bitmap.shape[0])
    if msg.shape != acc.shape:
        raise EngineError(f"walk got {msg.shape[0]} messages for {acc.shape[0]} cells")
    if src.shape[0] != length or dst.shape[0] != length:
        raise EngineError(
            f"walk edge arrays disagree: {length}, {src.shape[0]}, {dst.shape[0]}"
        )
    if not 1 <= num_snapshots <= 64:
        raise EngineError(f"walk of {num_snapshots} snapshots (1..64 fit a word)")
    if rows is None and not 0 <= lo <= hi <= length:
        raise EngineError(f"walk range [{lo}, {hi}) outside {length} edges")
    if rows is not None and (front is None or index is None or index[-1] != length):
        raise EngineError("a sparse walk needs frontier words and its edges' index")
    ops = {None: 0, "add": 1, "mul": 2}
    if edge_op not in ops or (edge_op is None) != (weight is None):
        raise EngineError(f"walk edge op {edge_op!r} with weights {weight is not None}")
    if weight is not None and length and (
        weight.shape[0] != length
        or weight.shape[1] < num_snapshots
        or weight.strides[1] != weight.itemsize
        or weight.strides[0] % weight.itemsize
    ):
        raise EngineError(f"walk weights {weight.shape} miss {length} edge rows")
    wrow = 0 if weight is None else weight.strides[0] // weight.itemsize
    nrows = 0 if rows is None else int(rows.shape[0])
    return int(
        function(
            acc, msg, bitmap, src, dst, index, rows, nrows, weight, wrow,
            ops[edge_op], front, mask, lo, hi, strides[0], strides[1],
            num_snapshots,
        )
    )


def settle(
    values: np.ndarray, cand: Any, exists: np.ndarray, running: int,
    front: np.ndarray, tol: float, program: str,
) -> int:
    """Write apply's ``cand`` into the ``(V, S_g)`` ``values`` on each set bit
    ``s`` of ``exists[v] & running`` and set ``front[v]``'s bits to the cells
    that changed (``fold.c`` states the rule); returns the words' OR.

    ``cand`` is promoted to ``float64`` and broadcast as ``np.where`` would;
    any other shape is an :class:`~repro.errors.EngineError` naming ``program``.
    """
    function = _function("settle")
    try:
        cells = np.broadcast_to(np.asarray(cand, np.float64), values.shape)
    except ValueError:
        raise EngineError(
            f"{program}: apply returned shape {np.shape(cand)}, not {values.shape}"
        ) from None
    if np.may_share_memory(cells, values) or not cells.flags.aligned:
        cells = np.array(cells)
    V = values.shape[0]
    if exists.shape != (V,) or front.shape != (V,):
        raise EngineError(
            f"settle of {V} vertices got {exists.shape}, {front.shape} words"
        )
    vs, ss, cv, cs = (stride // 8 for stride in values.strides + cells.strides)
    return int(function(values, vs, ss, cells, cv, cs, exists, running, front, tol, V))


def out_degrees(
    bitmap: np.ndarray, src: np.ndarray, num_vertices: int, num_snapshots: int
) -> np.ndarray:
    """The ``(V, S)`` ``int64`` out-degrees of an edge array, per snapshot.

    Cell ``[v, s]`` counts the edges ``e`` with ``src[e] == v`` and bit
    ``s`` of ``bitmap[e]`` (``uint64``) set; bits ``s >= S`` count nowhere.
    Mismatched lengths, ``S`` outside ``1..64`` and a source outside
    ``[0, V)`` are a :class:`~repro.errors.SnapshotError`, raised before
    the C writes anything.
    """
    function = _function("out_degrees")
    if bitmap.shape != src.shape or bitmap.ndim != 1:
        raise SnapshotError(
            f"out-degrees of {bitmap.shape} bitmaps and {src.shape} sources"
        )
    if not 1 <= num_snapshots <= 64:
        raise SnapshotError(
            f"out-degrees of {num_snapshots} snapshots (1..64 fit a word)"
        )
    if src.shape[0] and not 0 <= src.min() <= src.max() < num_vertices:
        raise SnapshotError(
            f"out-degrees: a source id in [{src.min()}, {src.max()}] lies "
            f"outside the {num_vertices} vertices"
        )
    degrees = np.zeros((num_vertices, num_snapshots), dtype=np.int64)
    function(bitmap, src, src.shape[0], num_snapshots, degrees)
    return degrees


def pair_order(major: np.ndarray, minor: np.ndarray, bound: int) -> np.ndarray:
    """The stable permutation sorting key pairs by ``major``, then ``minor``.

    Equal to ``np.lexsort((minor, major))`` (``int64``), in ``O(n + K)``
    for ``n`` pairs whose largest key is ``K - 1``: a linear check returns
    the identity for pairs already in order, else two stable counting
    passes. The scratch follows the keys present, never ``bound``.
    Mismatched lengths and a key outside ``[0, bound)`` are a
    :class:`~repro.errors.SnapshotError`, raised before the C writes
    anything.
    """
    function = _function("pair_order")
    major = np.ascontiguousarray(major, dtype=np.int64)
    minor = np.ascontiguousarray(minor, dtype=np.int64)
    if major.shape != minor.shape or major.ndim != 1:
        raise SnapshotError(f"pair order of {major.shape} and {minor.shape} keys")
    n = major.shape[0]
    low = min(major.min(initial=0), minor.min(initial=0))
    high = max(major.max(initial=-1), minor.max(initial=-1))
    if low < 0 or high >= bound:
        raise SnapshotError(
            f"pair order: a key in [{low}, {high}] lies outside [0, {bound})"
        )
    out = np.empty(n, dtype=np.int64)
    count = np.empty(high + 2, dtype=np.int64)
    function(major, minor, n, count, high + 1, np.empty(n, dtype=np.int64), out)
    return out


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
