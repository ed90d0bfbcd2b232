"""chronolint's call-graph rules: every CHF rule has a firing and a
passing golden fixture.

Each fixture is a synthetic ``src/repro`` mini-package written to a tmp
dir — the call graph is built over the files ``module_name`` places in
the library, so the on-disk layout must look like the real tree. Sources
live inside string literals, so suppression tags within them are inert
to the run scanning this repository (same trick as ``test_lint.py``).
Every run applies every rule, so the fixtures of the retired CHF002 and
of CHF001's clock and RNG arms show the per-file rule that flags them.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import analyze_paths, build_program
from repro.lint.cli import main as chronolint_main

REPO = Path(__file__).resolve().parents[1]


def write_pkg(tmp_path, files):
    """Materialize ``{relpath-under-repro: source}`` as a src/repro tree."""
    root = tmp_path / "src" / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path / "src"


def analyze(tmp_path, files):
    return analyze_paths([str(write_pkg(tmp_path, files))])


def fired(result):
    """Rule ids of unsuppressed findings."""
    return sorted({v.rule for v in result.active})


# ---------------------------------------------------------------------- #
# call graph construction


def test_callgraph_resolves_imports_and_methods(tmp_path):
    src = write_pkg(tmp_path, {
        "a.py": """
        from repro.b import helper

        def entry(x):
            return helper(x)
        """,
        "b.py": """
        def helper(x):
            return x + 1

        class Widget:
            def poke(self):
                return self._quiet()

            def _quiet(self):
                return 0
        """,
    })
    program = build_program([str(src)])
    assert "repro.a:entry" in program.functions
    assert "repro.b:Widget.poke" in program.functions
    callees = {e.callee for e in program.callees("repro.a:entry")}
    assert "repro.b:helper" in callees
    callees = {e.callee for e in program.callees("repro.b:Widget.poke")}
    assert "repro.b:Widget._quiet" in callees
    callers = {e.caller for e in program.callers("repro.b:helper")}
    assert callers == {"repro.a:entry"}


# ---------------------------------------------------------------------- #
# CHF001 — effect/purity inference on the run path


def test_chr007_fires_on_clock_read_deep_under_runner(tmp_path):
    result = analyze(tmp_path, {
        "engine/runner.py": """
        from repro.engine.helpers import step

        def run(series, config):
            return step(series)
        """,
        "engine/helpers.py": """
        import time

        def step(series):
            return time.perf_counter()
        """,
    })
    # CHR007 flags the read wherever it sits, reachable or not.
    assert fired(result) == ["CHR007"]
    (violation,) = result.active
    assert violation.path.endswith("helpers.py")
    assert "time.perf_counter" in violation.message


def test_chf001_fires_on_global_rng_and_env(tmp_path):
    result = analyze(tmp_path, {
        "engine/runner.py": """
        import numpy as np
        from repro.engine.helpers import setting

        def _run_series(series):
            jitter = np.random.rand()
            return setting(jitter)
        """,
        "engine/helpers.py": """
        import os

        def setting(default):
            return os.environ.get("CHRONOS_X", default)
        """,
    })
    by_rule = {v.rule: v for v in result.active}
    assert sorted(by_rule) == ["CHF001", "CHR001"]
    env = by_rule["CHF001"]
    assert env.path.endswith("helpers.py")
    assert env.message.startswith("env-read effect")
    # The report carries the root-to-effect chain per-file lint cannot see.
    assert env.chain == (
        "repro.engine.runner:_run_series", "repro.engine.helpers:setting",
    )
    assert "np.random.rand" in by_rule["CHR001"].message


def test_chf001_set_iteration_is_an_effect(tmp_path):
    result = analyze(tmp_path, {
        "engine/runner.py": """
        def run(series, config):
            total = 0
            for v in {1, 2, 3}:
                total += v
            return total
        """,
    })
    assert fired(result) == ["CHF001"]
    assert "set" in result.active[0].message


def test_chf001_obs_boundary_is_sanctioned(tmp_path):
    # An env read is fine inside repro.obs: enabling observability cannot
    # change results, and the walk stops at its boundary.
    result = analyze(tmp_path, {
        "engine/runner.py": """
        from repro.obs.config import enabled

        def run(series, config):
            enabled()
            return series
        """,
        "obs/config.py": """
        import os

        def enabled():
            return os.environ.get("CHRONOS_TRACE")
        """,
    })
    assert result.active == []


def test_chf001_unreachable_effects_do_not_fire(tmp_path):
    result = analyze(tmp_path, {
        "engine/runner.py": """
        def run(series, config):
            return series
        """,
        "bench/settings.py": """
        import os

        def scale():
            return os.environ.get("CHRONOS_SCALE")
        """,
    })
    assert result.active == []


# ---------------------------------------------------------------------- #
# Untyped raises — the retired CHF002's fixtures, now CHR005 inputs


def test_chr005_fires_on_deep_untyped_raise(tmp_path):
    result = analyze(tmp_path, {
        "errors.py": """
        class ChronosError(Exception):
            pass
        """,
        "api.py": """
        from repro.deep import _inner

        def public(x):
            return _inner(x)
        """,
        "deep.py": """
        def _inner(x):
            if x < 0:
                raise ValueError("negative")
            return x
        """,
    })
    # CHR005 flags the raise whether or not a public function reaches it.
    assert fired(result) == ["CHR005"]
    (violation,) = result.active
    assert violation.path.endswith("deep.py")
    assert "raise ValueError" in violation.message


def test_chr005_typed_raise_passes(tmp_path):
    result = analyze(tmp_path, {
        "errors.py": """
        class ChronosError(Exception):
            pass

        class EngineError(ChronosError):
            pass
        """,
        "api.py": """
        from repro.errors import EngineError

        def public(x):
            if x < 0:
                raise EngineError("negative")
            return x
        """,
    })
    assert result.active == []


# ---------------------------------------------------------------------- #
# CHF003 — durable-write sink analysis


def test_chf003_fires_on_raw_durable_write(tmp_path):
    result = analyze(tmp_path, {
        "io.py": """
        def save(path, payload):
            with open(path, "wb") as fh:
                fh.write(payload)
        """,
    })
    assert fired(result) == ["CHF003"]
    assert "temp scope" in result.active[0].message


def test_chf003_temp_scoped_write_passes(tmp_path):
    result = analyze(tmp_path, {
        "io.py": """
        import os
        import tempfile

        def save(payload):
            d = tempfile.mkdtemp()
            scratch = os.path.join(d, "x.bin")
            with open(scratch, "wb") as fh:
                fh.write(payload)
            return scratch
        """,
    })
    assert result.active == []


def test_chf003_writer_callback_param_is_sanctioned(tmp_path):
    # atomic_write_via hands the writer a tmp sibling; both the inline
    # lambda and the named-function forms are proven safe.
    result = analyze(tmp_path, {
        "storage/atomic.py": """
        def atomic_write_via(final_path, writer, tag):
            writer(str(final_path) + ".tmp")
        """,
        "io.py": """
        from repro.storage.atomic import atomic_write_via

        def _fill(tmp):
            with open(tmp, "wb") as fh:
                fh.write(b"payload")

        def publish(final):
            atomic_write_via(final, _fill, tag="io")
            atomic_write_via(final, lambda tmp: open(tmp, "wb").close(), tag="io")
        """,
    })
    assert result.active == []


def test_chf003_param_obligation_propagates_to_callers(tmp_path):
    # The writer primitive is safe only because its sole in-package
    # caller passes a tempfile path; a second caller passing a module
    # constant breaks the proof at the *caller's* file.
    clean = {
        "storage/edge_io.py": """
        def write_blob(path, payload):
            with open(path, "wb") as fh:
                fh.write(payload)
        """,
        "storage/store.py": """
        import tempfile

        from repro.storage.edge_io import write_blob

        def create(payload):
            scratch = tempfile.mkdtemp() + "/blob.bin"
            write_blob(scratch, payload)
        """,
    }
    assert analyze(tmp_path / "clean", clean).active == []

    dirty = dict(clean)
    dirty["cache.py"] = """
    from repro.storage.edge_io import write_blob

    RESULTS = "results/blob.bin"

    def persist(payload):
        write_blob(RESULTS, payload)
    """
    result = analyze(tmp_path / "dirty", dirty)
    assert fired(result) == ["CHF003"]


def test_chf003_publish_machinery_is_exempt(tmp_path):
    result = analyze(tmp_path, {
        "storage/atomic.py": """
        import os

        def atomic_write_bytes(final, payload, tag):
            tmp = str(final) + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, final)
        """,
        "streaming/wal.py": """
        def append(path, record):
            with open(path, "ab") as fh:
                fh.write(record)
        """,
    })
    assert result.active == []


# ---------------------------------------------------------------------- #
# suppression tags (one prefix, one audit for both kinds of rule)


def test_suppression_tag_covers_and_chronolint_prefix_works(tmp_path):
    # Whole-program findings honour the same # chronolint: tags as the
    # per-file rules; the retired # chronoflow: prefix is inert.
    for prefix, covered in (("chronolint", True), ("chronoflow", False)):
        result = analyze(tmp_path / prefix, {
            "io.py": f"""
            RESULTS = "results/out.bin"

            def save(payload):
                # {prefix}: allow-atomic-write
                with open(RESULTS, "wb") as fh:
                    fh.write(payload)
            """,
        })
        assert [v.rule for v in result.suppressed] == (["CHF003"] if covered else [])
        assert [v.rule for v in result.active] == ([] if covered else ["CHF003"])
        assert result.stale_tags == []


def test_stale_chronoflow_tag_is_reported(tmp_path):
    # A tag naming a whole-program rule is audited like any other.
    result = analyze(tmp_path, {
        "clean.py": """
        # chronolint: allow-atomic-write
        def nothing():
            return 0
        """,
    })
    assert result.active == []
    assert len(result.stale_tags) == 1
    assert result.failed(strict=True) and not result.failed(strict=False)


def test_stale_chronolint_tag_is_not_chronoflows_business(tmp_path):
    # One audit: a stale tag in a library file — which both the per-file
    # walk and the call graph see — is reported exactly once.
    src = write_pkg(tmp_path, {
        "clean.py": """
        # chronolint: allow-broad-except
        def nothing():
            return 0
        """,
    })
    result = analyze_paths([str(src)])
    assert result.stale_tags == [
        (str(src / "repro" / "clean.py"), 2, "broad-except")
    ]


# ---------------------------------------------------------------------- #
# CLI


def test_cli_exit_codes_and_json(tmp_path, capsys):
    src = write_pkg(tmp_path, {
        "io.py": """
        RESULTS = "results/out.bin"

        def save(payload):
            with open(RESULTS, "wb") as fh:
                fh.write(payload)
        """,
    })
    report = tmp_path / "report.json"
    status = chronolint_main([str(src), "--json", str(report)])
    out = capsys.readouterr().out
    assert status == 1
    assert "CHF003" in out and "FAILED" in out
    payload = json.loads(report.read_text())
    assert payload["summary"]["active"] == 1
    assert "CHF003" in payload["findings"]


def test_cli_clean_package_and_select(tmp_path, capsys):
    src = write_pkg(tmp_path, {
        "pure.py": """
        def double(x):
            return 2 * x
        """,
    })
    assert chronolint_main([str(src), "--strict"]) == 0
    capsys.readouterr()
    # Every run applies every rule: there is no --select.
    with pytest.raises(SystemExit) as exc:
        chronolint_main([str(src), "--select", "CHF001"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert chronolint_main([]) == 2


def test_cli_syntax_error_fails(tmp_path):
    src = write_pkg(tmp_path, {"broken.py": "def oops(:\n"})
    assert chronolint_main([str(src)]) == 1


def test_cli_list_passes(capsys):
    # --list-rules lists the whole-program rules beside the per-file ones.
    assert chronolint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines() if line[:1] == "C"]
    assert len(listed) == 8
    assert [r for r in listed if r.startswith("CHF")] == ["CHF001", "CHF003"]


def test_repro_cli_analyze_subcommand(tmp_path, capsys):
    # `repro lint` is the one subcommand, and it runs the CHF rules.
    from repro.cli import main as repro_main

    src = write_pkg(tmp_path, {
        "io.py": """
        RESULTS = "results/out.bin"

        def save(payload):
            with open(RESULTS, "wb") as fh:
                fh.write(payload)
        """,
    })
    assert repro_main(["lint", str(src), "--strict"]) == 1
    assert "CHF003" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# the repository itself satisfies all three contracts (the CI gate)


def test_repository_is_chronoflow_clean():
    result = analyze_paths([str(REPO / "src")])
    chf = [f for f in result.findings if f.rule.startswith("CHF")]
    active = [f.format() for f in chf if not f.suppressed]
    assert active == [], "\n".join(active)
    # The analyzer is live on the real tree, not vacuously passing: the
    # tagged non-durable outputs (reports, trace dumps) are still found.
    assert any(f.rule == "CHF003" for f in chf)
    assert result.stale_tags == []
    assert "repro.engine.runner:run" in result.program.functions
    assert len(result.program.functions) > 500
