"""Tests for the benchmark harness and reporting plumbing."""

import numpy as np

from repro.bench import baseline_config, chronos_config, report_table
from repro.bench.harness import SIM
from repro.bench.reporting import Table, all_tables, clear_tables
from repro.layout import LayoutKind
from repro.memsim import HierarchyConfig


class TestReporting:
    def test_render_markdown(self):
        table = Table(
            title="T", headers=["a", "b"], rows=[(1, 2.5), ("x", 0.0001)]
        )
        text = table.render()
        assert "### T" in text
        assert "| a | b |" in text
        assert "| 1 | 2.500 |" in text
        assert "0.0001" in text

    def test_report_table_registers(self, tmp_path, monkeypatch):
        import repro.bench.reporting as reporting

        monkeypatch.setattr(reporting, "_RESULTS_DIR", tmp_path)
        clear_tables()
        report_table("My Table", ["x"], [(1,)], notes="n")
        tables = all_tables()
        assert len(tables) == 1
        written = list(tmp_path.glob("*.md"))
        assert len(written) == 1
        assert "My Table" in written[0].read_text()
        clear_tables()


class TestConfigFactories:
    def test_chronos_config(self):
        cfg = chronos_config("push", batch_size=16)
        assert cfg.layout is LayoutKind.TIME_LOCALITY
        assert cfg.batch_size == 16

    def test_baseline_config(self):
        cfg = baseline_config("pull")
        assert cfg.layout is LayoutKind.STRUCTURE_LOCALITY
        assert cfg.batch_size == 1
        # Traced experiments run on the one experiment-scale machine.
        assert SIM.hierarchy == HierarchyConfig.experiment_scale()


class TestHarnessSeries:
    def test_bench_series_symmetrises_undirected_apps(self):
        from repro.bench.harness import small_series

        directed = small_series("wiki", "pagerank", snapshots=4)
        sym = small_series("wiki", "wcc", snapshots=4)
        assert sym.num_edges >= 2 * directed.num_edges * 0.9

    def test_sweep_cap(self):
        from repro.bench.harness import sweep_cap

        assert sweep_cap("sssp") is not None
        assert sweep_cap("mis") is not None
        assert sweep_cap("pagerank") is None  # caps itself via iterations
