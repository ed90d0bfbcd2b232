"""chronolint: every CHR rule has a firing and a passing fixture.

All lint fixtures live inside string literals — chronolint parses
comments with ``tokenize``, so suppression tags (and violations) inside
strings are inert, which is exactly what lets this file itself stay
clean under ``chronolint tests/``. The fixtures of the retired syntactic
rule CHR008 are inputs of the call-graph rule that subsumes it, CHF003.
"""

import tempfile
import textwrap
from pathlib import Path

import pytest

from repro.lint import analyze_paths, lint_source, module_name
from repro.lint.cli import main as chronolint_main
from repro.lint.core import parse_suppressions

REPO = Path(__file__).resolve().parents[1]

ENGINE = "src/repro/engine/push.py"
KERNELS = "src/repro/engine/kernels.py"
NATIVE = "src/repro/native/__init__.py"
STORAGE = "src/repro/storage/edge_file.py"
PARALLEL = "src/repro/parallel/shm.py"
LIBRARY = "src/repro/temporal/series.py"
OUTSIDE = "tests/test_something.py"


def lint(source, path):
    found, _ = lint_source(textwrap.dedent(source), path=path)
    return found


def fired(source, path):
    """Rule ids of unsuppressed violations for a fixture."""
    return sorted({v.rule for v in lint(source, path) if not v.suppressed})


def analyze_in_function(tmp_path, source, path, rule):
    """Findings of ``rule`` over a fresh tree holding one file, ``path``
    (a ``src/repro/...`` module or a test file), whose one function has
    ``source`` as its body."""
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    target = root / path
    target.parent.mkdir(parents=True)
    body = textwrap.indent(textwrap.dedent(source), "    ")
    target.write_text("def site():\n" + body)
    return [f for f in analyze_paths([str(root)]).findings if f.rule == rule]


def flow_fired(tmp_path, source, path, rule):
    """Rule ids of unsuppressed findings of ``analyze_in_function``."""
    found = analyze_in_function(tmp_path, source, path, rule)
    return sorted({v.rule for v in found if not v.suppressed})


# ---------------------------------------------------------------------- #
# CHR001 — global RNG


def test_chr001_fires_on_legacy_np_random():
    src = """
    import numpy as np
    np.random.seed(0)
    x = np.random.rand(4)
    """
    assert fired(src, LIBRARY) == ["CHR001"]
    assert len(lint(src, LIBRARY)) == 2


def test_chr001_fires_on_unseeded_default_rng():
    assert fired("import numpy as np\nr = np.random.default_rng()\n", ENGINE) == [
        "CHR001"
    ]


def test_chr001_fires_on_stdlib_global_random():
    assert fired("import random\nx = random.random()\n", OUTSIDE) == ["CHR001"]


def test_chr001_passes_seeded_generator():
    ok = """
    import numpy as np
    rng = np.random.default_rng(42)
    x = rng.normal(size=4)
    """
    assert fired(ok, ENGINE) == []


# Clock and RNG calls are read through the file's own imports.
ALIASED = [
    ("from time import perf_counter\nt = perf_counter()\n", "CHR007"),
    ("import time as t\nx = t.monotonic()\n", "CHR007"),
    ("from random import shuffle\nshuffle(x)\n", "CHR001"),
    ("import numpy.random as npr\nx = npr.rand()\n", "CHR001"),
]


@pytest.mark.parametrize("source, rule", ALIASED)
def test_aliased_clock_and_rng_imports_fire(source, rule):
    assert fired(source, ENGINE) == [rule]


def test_seeded_generator_imported_by_name_passes():
    named = "from numpy.random import default_rng\n"
    assert fired(named + "r = default_rng(1)\n", ENGINE) == []
    assert fired(named + "r = default_rng()\n", ENGINE) == ["CHR001"]


# ---------------------------------------------------------------------- #
# CHR002 — scatter discipline


SCATTER = """
import numpy as np

def fold(acc, idx, vals):
    np.add.at(acc, idx, vals)
"""


NATIVE_LOADS = [
    "import ctypes\nlib = ctypes.CDLL('libfold.so')\n",
    "import ctypes\nlib = ctypes.cdll.LoadLibrary('libfold.so')\n",
    "from ctypes import CDLL\nlib = CDLL('libfold.so')\n",
    "import numpy as np\nlib = np.ctypeslib.load_library('libfold', '.')\n",
    "from ctypes import CDLL as load\nlib = load('libfold.so')\n",
]


def test_chr002_fires_outside_the_native_fold():
    assert fired(SCATTER, ENGINE) == ["CHR002"]
    assert fired(SCATTER, PARALLEL) == ["CHR002"]
    assert fired(SCATTER, KERNELS) == ["CHR002"]


def test_chr002_passes_inside_the_native_fold_and_out_of_scope():
    assert fired(SCATTER, NATIVE) == []
    assert fired(SCATTER, LIBRARY) == []
    assert fired(SCATTER, STORAGE) == []
    assert fired(SCATTER, OUTSIDE) == []


@pytest.mark.parametrize("source", NATIVE_LOADS)
def test_chr002_fires_on_a_native_library_load_outside_the_native_fold(source):
    assert fired(source, ENGINE) == ["CHR002"]
    assert fired(source, PARALLEL) == ["CHR002"]
    assert fired(source, KERNELS) == ["CHR002"]
    assert fired(source, LIBRARY) == ["CHR002"]
    assert fired(source, STORAGE) == ["CHR002"]
    assert fired(source, NATIVE) == []
    assert fired(source, OUTSIDE) == []


def test_chr002_ignores_non_scatter_at():
    # A one-argument .at() is not the ufunc scatter signature.
    assert fired("df.at(key)\n", ENGINE) == []


# ---------------------------------------------------------------------- #
# CHR003 — broad except


def test_chr003_fires_on_bare_and_broad_except():
    src = """
    try:
        work()
    except:
        pass
    """
    assert fired(src, LIBRARY) == ["CHR003"]
    src2 = """
    try:
        work()
    except Exception:
        pass
    """
    assert fired(src2, LIBRARY) == ["CHR003"]
    src3 = """
    try:
        work()
    except (ValueError, BaseException):
        pass
    """
    assert fired(src3, LIBRARY) == ["CHR003"]


def test_chr003_passes_typed_except_and_test_code():
    ok = """
    try:
        work()
    except (OSError, ValueError):
        pass
    """
    assert fired(ok, LIBRARY) == []
    broad = """
    try:
        work()
    except Exception:
        pass
    """
    assert fired(broad, OUTSIDE) == []  # tests may probe broadly


def test_chr003_suppressed_by_allow_tag():
    src = """
    try:
        work()
    # must never raise past cleanup
    except Exception:  # chronolint: allow-broad-except
        pass
    """
    found = lint(src, LIBRARY)
    assert [v.rule for v in found] == ["CHR003"]
    assert found[0].suppressed


# ---------------------------------------------------------------------- #
# CHR005 — typed raises


def test_chr005_fires_on_stray_builtin_raise():
    src = "def f(x):\n    raise ValueError(f\"bad {x}\")\n"
    assert fired(src, LIBRARY) == ["CHR005"]
    assert fired("raise RuntimeError(\"boom\")\n", ENGINE) == ["CHR005"]


def test_chr005_passes_typed_and_sanctioned_raises():
    ok = """
    from repro.errors import EngineError, ShardRaceError, ValidationError

    def f(x):
        if x < 0:
            raise ValidationError(f"bad {x}")
        if x == 1:
            raise EngineError("nope")
        if x == 2:
            raise ShardRaceError("race", worker=0)
        raise NotImplementedError

    def g(exc):
        try:
            f(0)
        except EngineError as err:
            raise err
        raise

    class Proxy:
        def __getattr__(self, name):
            raise AttributeError(name)
    """
    assert fired(ok, LIBRARY) == []


def test_chr005_ignores_test_code():
    assert fired("raise ValueError(\"x\")\n", OUTSIDE) == []


# ---------------------------------------------------------------------- #
# CHR006 — dtype discipline


def test_chr006_fires_on_default_dtype_allocations():
    src = """
    import numpy as np
    a = np.zeros(5)
    b = np.full((2, 2), np.nan)
    """
    found = [v.rule for v in lint(src, ENGINE) if not v.suppressed]
    assert found == ["CHR006", "CHR006"]
    assert fired("from numpy import zeros\na = zeros(5)\n", ENGINE) == ["CHR006"]


def test_chr006_passes_explicit_dtype_and_out_of_scope():
    ok = """
    import numpy as np
    a = np.zeros(5, dtype=np.float64)
    b = np.full((2, 2), np.nan, dtype=np.float64)
    c = np.ones((3,), np.int64)
    d = np.full((2,), 0.0, np.float64)
    """
    assert fired(ok, ENGINE) == []
    assert fired("import numpy as np\na = np.zeros(5)\n", LIBRARY) == []


# ---------------------------------------------------------------------- #
# CHR007 — observability boundary

OBS = "src/repro/obs/trace.py"


def test_chr007_fires_on_clock_reads_anywhere_in_library():
    src = "import time\nt = time.perf_counter()\n"
    assert fired(src, ENGINE) == ["CHR007"]
    assert fired(src, PARALLEL) == ["CHR007"]
    assert fired(src, LIBRARY) == ["CHR007"]
    assert fired("import time\nt = time.monotonic_ns()\n", LIBRARY) == [
        "CHR007"
    ]


def test_chr007_fires_on_datetime_now():
    src = "import datetime\nt = datetime.datetime.now()\n"
    assert fired(src, PARALLEL) == ["CHR007"]
    assert fired(src, LIBRARY) == ["CHR007"]


def test_chr007_fires_on_ad_hoc_span_recorders():
    src = "from repro.obs import Tracer\nt = Tracer()\n"
    assert fired(src, ENGINE) == ["CHR007"]
    src2 = "from repro.obs.trace import Tracer\nt = Tracer(pid=2)\n"
    assert fired(src2, LIBRARY) == ["CHR007"]
    src3 = "from repro.obs import trace\nt = trace.Tracer(pid=1)\n"
    assert fired(src3, PARALLEL) == ["CHR007"]


def test_chr007_passes_inside_obs_and_outside_library():
    src = "import time\nt = time.perf_counter()\n"
    # repro.obs owns the clock; tests/benchmarks are out of scope.
    assert fired(src, OBS) == []
    assert fired(src, OUTSIDE) == []
    assert fired("from repro.obs.trace import Tracer\nt = Tracer()\n", OBS) == []
    # time.sleep is not a clock read.
    assert fired("import time\ntime.sleep(0.1)\n", PARALLEL) == []


# ---------------------------------------------------------------------- #
# Atomic writes — the retired CHR008's fixtures, now CHF003 inputs

ATOMIC = "src/repro/storage/atomic.py"
STREAMING = "src/repro/streaming/wal.py"
STORE = "src/repro/storage/store.py"


def test_chr008_fires_on_raw_write_modes(tmp_path):
    def sink(src, path):
        return flow_fired(tmp_path, src, path, "CHF003")

    assert sink("fh = open(p, \"wb\")\n", STORE) == ["CHF003"]
    assert sink("fh = open(p, mode=\"w\")\n", LIBRARY) == ["CHF003"]
    assert sink("fh = open(p, \"ab\")\n", ENGINE) == ["CHF003"]
    # Reads are fine, as is the default mode.
    assert sink("fh = open(p, \"rb\")\n", STORE) == []
    assert sink("fh = open(p)\n", STORE) == []


def test_chr008_fires_on_np_save_and_os_replace(tmp_path):
    def sink(src, path):
        return flow_fired(tmp_path, src, path, "CHF003")

    assert sink("import numpy as np\nnp.save(p, arr)\n", STORE) == ["CHF003"]
    assert sink("import os\nos.replace(a, b)\n", LIBRARY) == ["CHF003"]
    assert sink("path.write_bytes(b\"x\")\n", STORE) == ["CHF003"]
    assert sink("path.write_text(\"x\")\n", LIBRARY) == ["CHF003"]


def test_chr008_passes_inside_publish_machinery_and_tests(tmp_path):
    raw = "import os\nfh = open(p, \"wb\")\nos.replace(a, b)\n"
    assert flow_fired(tmp_path, raw, ATOMIC, "CHF003") == []
    assert flow_fired(tmp_path, raw, STREAMING, "CHF003") == []
    # tests/benchmarks are out of scope
    assert flow_fired(tmp_path, raw, OUTSIDE, "CHF003") == []


def test_chr008_suppressed_by_allow_tag(tmp_path):
    src = """
    # trace dump, not a durability artifact
    # chronolint: allow-atomic-write
    fh = open(p, "w")
    """
    found = analyze_in_function(tmp_path, src, LIBRARY, "CHF003")
    assert [v.rule for v in found] == ["CHF003"]
    assert found[0].suppressed


# ---------------------------------------------------------------------- #
# suppression machinery


def test_stale_tags_are_reported():
    src = "x = 1  # chronolint: allow-broad-except\n"
    found, sup = lint_source(src, path=LIBRARY)
    assert found == []
    assert sup.unused() == [(1, "broad-except")]


def test_parse_suppressions_alternate_prefixes():
    # One prefix: a # chronoflow: comment (the retired second tool's) is
    # an ordinary comment.
    src = (
        "# chronoflow: allow-atomic-write\nx = 1\n"
        "# chronolint: allow-scatter\ny = 2\n"
    )
    sup = parse_suppressions(src)
    assert sup.declared == {(3, "scatter")}


def test_old_tag_spellings_are_stale(tmp_path, capsys):
    # allow-<slug> is the one spelling: rule-id lists, skip-file and bare
    # slugs suppress nothing, and --strict fails on them.
    src = textwrap.dedent("""
    import numpy as np
    # chronolint: disable=CHR001
    np.random.seed(0)  # chronolint: skip-file
    x = 1  # chronolint: CHR001 broad-except
    """)
    found, sup = lint_source(src, path=LIBRARY)
    assert [(v.rule, v.suppressed) for v in found] == [("CHR001", False)]
    assert sup.unused() == [
        (3, "disable=CHR001"), (4, "skip-file"), (5, "CHR001"), (5, "broad-except"),
    ]
    f = tmp_path / "old.py"
    f.write_text("x = 1  # chronolint: disable=CHR003\n")
    assert chronolint_main([str(f), "--strict"]) == 1
    assert "STALE suppression tag 'disable=CHR003'" in capsys.readouterr().out


def test_tags_inside_strings_are_inert():
    src = 'import numpy as np\ns = "# chronolint: allow-global-rng"; np.random.seed(0)\n'
    found, sup = lint_source(src, path=LIBRARY)
    assert not sup.declared and not sup.unknown
    assert [v.rule for v in found] == ["CHR001"]
    assert not found[0].suppressed


# ---------------------------------------------------------------------- #
# scoping


def test_module_name_mapping():
    assert module_name("src/repro/engine/kernels.py") == "repro.engine.kernels"
    assert module_name("/abs/path/src/repro/lint/__init__.py") == "repro.lint"
    assert module_name("repro/errors.py") == "repro.errors"
    assert module_name("tests/test_lint.py") is None
    assert module_name("benchmarks/bench_x.py") is None
    # A directory merely *named* repro that is not a src package root.
    assert module_name("somewhere/repro/thing.py") is None



# ---------------------------------------------------------------------- #
# the CLI


def test_cli_clean_and_failing_exit_codes(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "engine" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import numpy as np\na = np.zeros(5)\n")
    assert chronolint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "CHR006" in out and "FAILED" in out

    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert chronolint_main([str(good)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_syntax_error_fails(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert chronolint_main([str(broken)]) == 1


def test_cli_strict_flags_stale_tags(tmp_path, capsys):
    f = tmp_path / "stale.py"
    f.write_text("x = 1  # chronolint: allow-scatter\n")
    assert chronolint_main([str(f)]) == 0  # stale tags only fail --strict
    assert chronolint_main([str(f), "--strict"]) == 1
    assert "STALE" in capsys.readouterr().out


def test_cli_usage_errors_and_list_rules(capsys):
    assert chronolint_main([]) == 2
    assert chronolint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines() if line[:1] == "C"]
    assert listed == [
        "CHF001", "CHF003",
        "CHR001", "CHR002", "CHR003", "CHR005", "CHR006", "CHR007",
    ]


def test_repro_cli_lint_subcommand(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", "--list-rules"]) == 0
    assert "CHR001" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# the repository itself is clean (the CI gate, run in-process)


def test_repository_is_chronolint_clean(capsys):
    paths = [
        str(REPO / name)
        for name in ("src", "benchmarks", "tests", "examples", "scripts")
        if (REPO / name).exists()
    ]
    status = chronolint_main(paths + ["--strict"])
    out = capsys.readouterr().out
    assert status == 0, f"chronolint found violations:\n{out}"


# ---------------------------------------------------------------------- #
# mypy strict (runs only where mypy is installed; CI installs it)


def test_mypy_strict_on_checked_packages():
    pytest.importorskip("mypy")
    from mypy import api

    out, err, status = api.run(
        ["--config-file", str(REPO / "pyproject.toml"), "--no-error-summary"]
    )
    assert status == 0, f"mypy --strict failed:\n{out}\n{err}"
