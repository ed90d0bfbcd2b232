"""Tests for the command-line interface."""

import tempfile

import pytest

from repro.cli import main


class TestRunCommand:
    def test_basic_run(self, capsys):
        rc = main(
            [
                "run", "--graph", "wiki", "--app", "pagerank",
                "--snapshots", "4", "--batch", "2", "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "pagerank on wiki" in out
        assert "iterations" in out
        assert "top 5 values" in out

    def test_traced_run_reports_misses(self, capsys):
        rc = main(
            [
                "run", "--graph", "twitter", "--app", "sssp",
                "--snapshots", "4", "--simulate",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "L1d misses" in out
        assert "simulated:" in out

    def test_undirected_app_symmetrised(self, capsys):
        rc = main(
            ["run", "--graph", "wiki", "--app", "wcc", "--snapshots", "3"]
        )
        assert rc == 0
        assert "wcc on wiki" in capsys.readouterr().out

    def test_structure_layout(self, capsys):
        rc = main(
            [
                "run", "--graph", "wiki", "--app", "spmv",
                "--snapshots", "3", "--layout", "structure", "--batch", "1",
            ]
        )
        assert rc == 0

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--app", "bfs"])

    def test_mmap_run_leaves_no_store_behind(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        rc = main(
            [
                "run", "--graph", "wiki", "--app", "pagerank",
                "--snapshots", "4", "--batch", "2", "--mmap",
            ]
        )
        assert rc == 0
        assert "pagerank on wiki" in capsys.readouterr().out
        assert list(tmp_path.glob("repro-store-*")) == []


class TestStatsCommand:
    def test_stats_lists_all_graphs(self, capsys):
        rc = main(["stats"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("wiki", "web", "twitter", "weibo"):
            assert name in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestStreamingCommands:
    def _ingest(self, store_dir, extra=()):
        return main(
            [
                "ingest", "--store", str(store_dir),
                "--graph", "wiki", "--seed", "1",
                "--batch-records", "1000", *extra,
            ]
        )

    def test_ingest_then_recover_then_fsck(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert self._ingest(store, ["--compact"]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out
        assert "compacted to generation 1" in out
        assert "fingerprint" in out

        assert main(["recover", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "base generation" in out

        assert main(["fsck", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "DAMAGED" not in out

    def test_ingest_json_summary(self, capsys, tmp_path):
        import json as jsonlib

        store = tmp_path / "store"
        assert self._ingest(store, ["--json"]) == 0
        summary = jsonlib.loads(capsys.readouterr().out)
        assert summary["records_ingested"] == summary["num_activities"]
        assert summary["generation"] == 0
        assert summary["wal.records"] == summary["records_ingested"]
        assert len(summary["fingerprint"]) == 32

    def test_recover_replays_wal_only_store(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert self._ingest(store) == 0
        capsys.readouterr()
        assert main(["recover", "--store", str(store), "--json"]) == 0
        import json as jsonlib

        report = jsonlib.loads(capsys.readouterr().out)
        assert not report["had_base"]
        assert report["replayed_records"] > 0
        assert report["truncated_bytes"] == 0

    def test_fsck_flags_torn_wal_and_recover_repairs_it(
        self, capsys, tmp_path
    ):
        store = tmp_path / "store"
        assert self._ingest(store) == 0
        capsys.readouterr()
        with open(store / "wal.chronos", "ab") as fh:
            fh.write(b"\x99" * 11)  # torn tail past the last valid frame
        assert main(["fsck", "--store", str(store)]) == 1
        assert "torn tail" in capsys.readouterr().out
        assert main(["recover", "--store", str(store)]) == 0
        assert "truncated 11 bytes" in capsys.readouterr().out
        assert main(["fsck", "--store", str(store)]) == 0

    def test_fsck_detects_edge_file_corruption(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert self._ingest(store, ["--compact"]) == 0
        capsys.readouterr()
        victim = sorted(store.glob("edges_*.chronos"))[0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        assert main(["fsck", "--store", str(store)]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out
        assert "CORRUPTION FOUND" in out

    def test_fsck_empty_directory_fails(self, capsys, tmp_path):
        assert main(["fsck", "--store", str(tmp_path / "nothing")]) == 1
