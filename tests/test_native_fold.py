"""The native library's build path: lazy, cached, race-safe, typed failures;
and its series degree pass against the loop it replaced.

The scatter's walk, a series' degree count and the store's section codec
share the one library, so the first walk here is the first native call of
the process.

Each subprocess is a fresh interpreter with its own cache root
(``XDG_CACHE_HOME``), so "first import", "second process" and "two
processes building at once" are real; the in-process tests reset the
module's loaded library with ``monkeypatch`` so later tests keep theirs.
"""

import ast
import fnmatch
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.engine import kernels
from repro.errors import EngineError, SnapshotError
from tests.degree_oracle import oracle_out_degrees

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Imports the engine, lists what the cache holds, then walks once: the
#: in-edges 0->0, 1->2, 2->2 of one snapshot, one message per vertex.
_PROBE = """
import sys
from pathlib import Path
import numpy as np
import repro
from repro.engine import kernels
cache = Path(sys.argv[1])
print(sorted(p.name for p in cache.rglob("*") if p.is_file()))
acc = np.zeros(3)
edges = (np.ones(3, np.uint64), np.arange(3), np.array([0, 2, 2]))
kernels.walk(acc, np.add, np.array([1.0, 2.0, 3.0]), edges, 0, 3, (1, 1), 1, mask=1)
print(acc.tolist())
"""


def _env(cache_root, path=None):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_root), PYTHONPATH=str(SRC))
    if path is not None:
        env["PATH"] = str(path)
    return env


def _probe(cache_root, path=None):
    return subprocess.Popen(
        [sys.executable, "-c", _PROBE, str(cache_root)],
        env=_env(cache_root, path),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(proc):
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, err
    return out.splitlines()


def _cache_files(cache_root):
    return sorted(p.name for p in (cache_root / "repro" / "native").iterdir())


def test_import_does_not_build_and_the_first_fold_does(tmp_path):
    listing, result = _finish(_probe(tmp_path))
    assert listing == "[]"  # import repro ran no compiler
    assert result == "[1.0, 0.0, 5.0]"
    (library,) = _cache_files(tmp_path)
    assert library.startswith("repro_native-") and library.endswith(".so")
    mode = (tmp_path / "repro" / "native").stat().st_mode
    assert mode & 0o077 == 0


def test_a_second_process_loads_without_the_compiler(tmp_path):
    _finish(_probe(tmp_path))
    no_compiler = tmp_path / "empty-bin"
    no_compiler.mkdir()
    listing, result = _finish(_probe(tmp_path, path=no_compiler))
    assert listing == str(_cache_files(tmp_path))  # the first build, reused
    assert result == "[1.0, 0.0, 5.0]"


def test_concurrent_first_builds_both_load_and_leave_no_temp_files(tmp_path):
    procs = [_probe(tmp_path) for _ in range(2)]
    for proc in procs:
        assert _finish(proc)[1] == "[1.0, 0.0, 5.0]"
    (library,) = _cache_files(tmp_path)  # no ".tmp-" sibling survives
    assert library.endswith(".so")


@pytest.fixture
def fresh_library(tmp_path, monkeypatch):
    """An unloaded native library whose cache root is ``tmp_path``."""
    monkeypatch.setattr(native, "_FUNCTIONS", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "repro" / "native"


def _fold_once():
    acc = np.zeros(2)
    edges = (np.ones(1, np.uint64), np.zeros(1, np.int64), np.ones(1, np.int64))
    kernels.walk(acc, np.add, np.ones(2), edges, 0, 1, (1, 1), 1, mask=1)
    return acc


def test_a_missing_compiler_is_a_typed_error_naming_it(fresh_library, monkeypatch, tmp_path):
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    with pytest.raises(EngineError, match="'gcc'"):
        _fold_once()
    assert list(fresh_library.iterdir()) == []


@pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
def test_a_group_or_world_writable_cache_dir_is_refused(fresh_library, monkeypatch, mode):
    fresh_library.mkdir(parents=True)
    fresh_library.chmod(mode)
    monkeypatch.setattr(native.ctypes, "CDLL", _never_dlopen)
    with pytest.raises(EngineError, match="writable by group or others"):
        _fold_once()
    assert list(fresh_library.iterdir()) == []


def test_a_cache_dir_owned_by_another_user_is_refused(fresh_library, monkeypatch):
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    monkeypatch.setattr(native.ctypes, "CDLL", _never_dlopen)
    with pytest.raises(EngineError, match="owned by uid"):
        _fold_once()


def _never_dlopen(*args, **kwargs):
    raise AssertionError("dlopen from a refused cache directory")


def _edited_sources(tmp_path, which):
    """``SOURCES`` with source ``which`` replaced by an edited copy."""
    sources = list(native.SOURCES)
    edited = tmp_path / sources[which].name
    edited.write_bytes(sources[which].read_bytes() + b"\n")
    sources[which] = edited
    return tuple(sources)


def test_the_library_name_hashes_source_flags_and_platform(monkeypatch, tmp_path):
    base = native.library_path(tmp_path)
    for target, name, value in (
        *(
            (native, "SOURCES", _edited_sources(tmp_path, which))
            for which in range(len(native.SOURCES))
        ),
        (native, "CFLAGS", native.CFLAGS + ("-g",)),
        (native.sysconfig, "get_platform", lambda: "other-arch"),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(target, name, value)
            assert native.library_path(tmp_path) != base, name
    assert native.library_path(tmp_path) == base


def test_a_short_message_array_is_a_typed_error():
    edges = (np.ones(2, np.uint64), np.zeros(2, np.int64), np.array([0, 1]))
    with pytest.raises(EngineError, match="walk got 1 messages for 2 cells"):
        kernels.walk(np.zeros(2), np.add, np.array([1.0]), edges, 0, 2, (1, 1), 1, mask=1)


def _setup_py_package_data():
    tree = ast.parse((REPO / "setup.py").read_text())
    (data,) = (
        kw.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "package_data"
    )
    return ast.literal_eval(data)["repro"]


def test_every_c_source_ships_with_the_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((REPO / "pyproject.toml").read_text())
    shipped = {
        "pyproject.toml": pyproject["tool"]["setuptools"]["package-data"]["repro"],
        "setup.py": _setup_py_package_data(),
    }
    sources = sorted(
        path.relative_to(SRC / "repro").as_posix()
        for path in (SRC / "repro").rglob("*.c")
    )
    assert sources == sorted(
        source.relative_to(SRC / "repro").as_posix() for source in native.SOURCES
    )
    for where, patterns in shipped.items():
        for source in sources:
            assert any(fnmatch.fnmatch(source, p) for p in patterns), (where, source)


# --------------------------------------------------------------------- #
# out_degrees: one pass over a series' edges, against the per-snapshot loop
# --------------------------------------------------------------------- #


def _degree_case(seed, num_vertices, num_edges, S):
    """Random edges over ``num_vertices`` sources, every bitmap bit random
    (bits at and past ``S`` included: they must count nowhere)."""
    rng = np.random.default_rng(seed)
    src = np.sort(rng.integers(0, num_vertices, num_edges)).astype(np.int64)
    bitmap = rng.integers(0, 1 << 63, num_edges, dtype=np.uint64)
    bitmap |= rng.integers(0, 2, num_edges, dtype=np.uint64) << np.uint64(63)
    return src, bitmap


@pytest.mark.parametrize("S", [1, 8, 63, 64])
@pytest.mark.parametrize("seed", range(3))
def test_out_degrees_equal_the_per_snapshot_loop(S, seed):
    src, bitmap = _degree_case(seed, 50, 2_000, S)
    if S == 64:
        bitmap[0] |= np.uint64(1) << np.uint64(63)  # the top bit counts
    got = native.out_degrees(bitmap, src, 60, S)  # vertices 50..59: no edges
    want = oracle_out_degrees(src, bitmap, 60, S)
    assert got.dtype == want.dtype and got.shape == want.shape == (60, S)
    assert got.tobytes() == want.tobytes()
    assert not got[50:].any()


@pytest.mark.parametrize("S", [1, 64])
def test_out_degrees_of_no_edges_are_zero(S):
    src, bitmap = np.zeros(0, np.int64), np.zeros(0, np.uint64)
    got = native.out_degrees(bitmap, src, 4, S)
    assert got.tobytes() == oracle_out_degrees(src, bitmap, 4, S).tobytes()


def _no_c_call(name):
    def tripwire(*args):
        raise AssertionError(f"{name} ran on input its wrapper must refuse")

    return tripwire


@pytest.mark.parametrize(
    "src, S, message",
    [
        ([0, -1], 8, "outside the 4 vertices"),
        ([0, 4], 8, "outside the 4 vertices"),
        ([0, 1], 0, "0 snapshots"),
        ([0, 1], 65, "65 snapshots"),
    ],
)
def test_hostile_out_degree_input_is_refused_before_the_c_runs(
    monkeypatch, src, S, message
):
    monkeypatch.setattr(native, "_function", _no_c_call)
    bitmap = np.full(2, ~np.uint64(0))
    with pytest.raises(SnapshotError, match=message):
        native.out_degrees(bitmap, np.array(src, np.int64), 4, S)


def test_mismatched_out_degree_arrays_are_refused(monkeypatch):
    monkeypatch.setattr(native, "_function", _no_c_call)
    with pytest.raises(SnapshotError, match="bitmaps and"):
        native.out_degrees(np.ones(3, np.uint64), np.zeros(2, np.int64), 4, 8)
