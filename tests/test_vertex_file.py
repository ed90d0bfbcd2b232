"""Tests for on-disk vertex property files."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.vertex_file import (
    VertexFile,
    store_result_series,
    write_vertex_file,
)


class TestRoundTrip:
    def test_checkpoint_roundtrip(self, tmp_path):
        cp = np.array([1.0, 2.5, -3.0])
        path = tmp_path / "ranks.chronosv"
        write_vertex_file(path, "rank", 0, 100, cp)
        vf = VertexFile(path)
        assert vf.name == "rank"
        assert vf.num_vertices == 3
        np.testing.assert_array_equal(vf.checkpoint, cp)

    def test_updates_applied_in_time_order(self, tmp_path):
        cp = np.zeros(2)
        updates = [(0, 10, 1.0), (1, 20, 2.0), (0, 30, 3.0)]
        path = tmp_path / "p.chronosv"
        write_vertex_file(path, "p", 0, 50, cp, updates)
        vf = VertexFile(path)
        assert vf.value_at(0, 5) == 0.0
        assert vf.value_at(0, 10) == 1.0
        assert vf.value_at(0, 29) == 1.0
        assert vf.value_at(0, 30) == 3.0
        assert vf.value_at(1, 25) == 2.0

    def test_values_at_matches_value_at(self, tmp_path):
        cp = np.array([1.0, 1.0, 1.0])
        updates = [(0, 5, 9.0), (2, 7, 4.0), (0, 9, 8.0)]
        path = tmp_path / "q.chronosv"
        write_vertex_file(path, "q", 0, 10, cp, updates)
        vf = VertexFile(path)
        for t in (0, 5, 6, 7, 9, 10):
            col = vf.values_at(t)
            for v in range(3):
                assert col[v] == vf.value_at(v, t)

    def test_unicode_name(self, tmp_path):
        path = tmp_path / "u.chronosv"
        write_vertex_file(path, "rank-βeta", 0, 1, np.zeros(1))
        assert VertexFile(path).name == "rank-βeta"


class TestValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(StorageError):
            VertexFile(path)

    def test_unsorted_updates_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            write_vertex_file(
                tmp_path / "x", "x", 0, 10, np.zeros(2),
                [(0, 5, 1.0), (1, 3, 2.0)],
            )

    def test_update_outside_range_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            write_vertex_file(
                tmp_path / "x", "x", 0, 10, np.zeros(2), [(0, 11, 1.0)]
            )

    def test_update_bad_vertex_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            write_vertex_file(
                tmp_path / "x", "x", 0, 10, np.zeros(2), [(7, 5, 1.0)]
            )

    def test_partial_trailing_update_rejected(self, tmp_path):
        # The last update (vertex 3 = 3.5 at t=10) cut 5 bytes short must
        # not load as a file that simply lacks it.
        path = tmp_path / "x"
        updates = [(1, 4, 1.5), (2, 7, 2.5), (3, 10, 3.5)]
        write_vertex_file(path, "x", 0, 10, np.zeros(4), updates)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(StorageError, match="partial update"):
            VertexFile(path)

    def test_stored_update_vertex_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "x"
        write_vertex_file(path, "x", 0, 10, np.zeros(4), [(3, 5, 1.0)])
        data = bytearray(path.read_bytes())
        # The update record is the file's last 28 bytes; its vertex id
        # leads it as a little-endian u32.
        data[-28:-24] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="vertex 99"):
            VertexFile(path)

    def test_query_outside_range_rejected(self, tmp_path):
        write_vertex_file(tmp_path / "x", "x", 5, 10, np.zeros(1))
        vf = VertexFile(tmp_path / "x")
        with pytest.raises(StorageError):
            vf.value_at(0, 4)


class TestStoreResultSeries:
    def test_roundtrip_computed_result(self, tmp_path, small_series):
        """Persist an engine result and read back each snapshot's values."""
        from repro.algorithms import SingleSourceShortestPath
        from repro.engine import EngineConfig, run

        res = run(small_series, SingleSourceShortestPath(0), EngineConfig())
        paths = store_result_series(
            tmp_path, "sssp", small_series.times, res.values
        )
        vf = VertexFile(paths[0])
        for s, t in enumerate(small_series.times):
            got = vf.values_at(t)
            want = res.values[:, s]
            both_nan = np.isnan(got) & np.isnan(want)
            assert np.all((got == want) | both_nan)
