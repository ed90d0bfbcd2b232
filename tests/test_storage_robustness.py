"""Failure-injection tests for the on-disk format readers."""

import json

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import EdgeFile, TemporalGraphStore, write_edge_file
from repro.storage import format as fmt
from tests.conftest import random_temporal_graph


@pytest.fixture(scope="module")
def graph():
    return random_temporal_graph(seed=81, num_vertices=20, num_events=200)


@pytest.fixture
def edge_path(graph, tmp_path):
    t0, t1 = graph.time_range
    path = tmp_path / "edges.chronos"
    write_edge_file(path, graph, t0 - 1, t1)
    return path


class TestCorruptEdgeFiles:
    def test_truncated_index(self, edge_path):
        data = edge_path.read_bytes()
        edge_path.write_bytes(data[: fmt.HEADER_SIZE + 4])
        with pytest.raises(StorageError):
            EdgeFile(edge_path)

    def test_wrong_version(self, edge_path):
        data = bytearray(edge_path.read_bytes())
        data[4] = 99  # version field (little-endian u16 after magic)
        edge_path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            EdgeFile(edge_path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(StorageError):
            EdgeFile(path)

    def test_header_only_file_reads_empty_segments(self, graph, tmp_path):
        """A file whose index says 'no segment' for every vertex."""
        path = tmp_path / "hollow.chronos"
        header = fmt.EdgeFileHeader(graph.num_vertices, 0, 10)
        with open(path, "wb") as fh:
            fmt.write_header(fh, header)
            fmt.write_index(fh, [(0, 0, 0)] * graph.num_vertices)
        ef = EdgeFile(path)
        for v in range(graph.num_vertices):
            assert ef.segment(v) == ([], [])
            assert ef.out_edges_at(v, 5) == {}


def _drop_first_edge_file(path, manifest):
    (path / manifest["groups"][0]["edge_file"]).unlink()


def _drop_groups(path, manifest):
    del manifest["groups"]
    (path / "manifest.json").write_text(json.dumps(manifest))


class TestCorruptStore:
    @pytest.mark.parametrize(
        "damage,names",
        [
            (_drop_first_edge_file, "edges_0000.chronos, which does not exist"),
            (_drop_groups, "missing required fields: 'groups'"),
        ],
        ids=["missing-edge-file", "no-groups"],
    )
    def test_damaged_manifest_is_a_typed_error(self, graph, tmp_path, damage, names):
        store = TemporalGraphStore.create(tmp_path / "s", graph)
        manifest_path = store.path / "manifest.json"
        damage(store.path, json.loads(manifest_path.read_text()))
        with pytest.raises(StorageError, match=names) as err:
            TemporalGraphStore(store.path)
        assert str(manifest_path) in str(err.value)

    def test_manifest_must_exist(self, tmp_path):
        with pytest.raises(StorageError):
            TemporalGraphStore(tmp_path / "nowhere")

    def test_group_for_before_first_group(self, graph, tmp_path):
        store = TemporalGraphStore.create(tmp_path / "s2", graph)
        t0 = graph.time_range[0]
        # The first group's checkpoint time is t0 - 1, so t0 is covered.
        assert store.group_for(t0) is not None


class TestBoundaryConsistency:
    def test_states_consistent_across_group_boundary(self, graph, tmp_path):
        """The state at a group boundary time must be identical whether
        read from the closing group or the opening one's checkpoint."""
        store = TemporalGraphStore.create(
            tmp_path / "s3", graph, redundancy_ratio=0.8
        )
        if store.num_groups < 2:
            pytest.skip("graph too small to split")
        for g_prev, g_next in zip(store.groups, store.groups[1:]):
            t = g_prev.t2
            assert g_next.t1 == t
            for v in range(graph.num_vertices):
                assert g_prev.out_edges_at(v, t) == g_next.out_edges_at(v, t)


class TestHeaderTimeRange:
    """Regression tests for signed header times (t1 = t0 - 1 can be -1)."""

    def test_group_starting_at_time_zero_roundtrips(self, tmp_path):
        # The store plans the first group's checkpoint time as t0 - 1; a
        # graph whose first activity is at time 0 therefore writes t1 = -1,
        # which used to overflow the (unsigned) header field.
        from repro.storage import load_series
        from repro.temporal import TemporalGraphBuilder

        builder = TemporalGraphBuilder(strict=False)
        builder.add_edge(0, 1, 0)
        builder.add_edge(1, 2, 1)
        builder.add_edge(2, 0, 2)
        graph = builder.build()
        store = TemporalGraphStore.create(tmp_path / "zero", graph)
        assert store.groups[0].t1 == -1
        times = [0, 1, 2]
        direct = graph.series(times)
        loaded = load_series(store, times)
        assert set(
            zip(direct.out_src.tolist(), direct.out_dst.tolist())
        ) == set(zip(loaded.out_src.tolist(), loaded.out_dst.tolist()))

    @pytest.mark.parametrize(
        "t1,t2",
        [
            (-1, 0),
            (-(1 << 62), 1 << 62),
            (-(1 << 63), (1 << 63) - 1),
        ],
    )
    def test_extreme_times_roundtrip(self, tmp_path, t1, t2):
        import io

        buf = io.BytesIO()
        fmt.write_header(buf, fmt.EdgeFileHeader(num_vertices=3, t1=t1, t2=t2))
        buf.seek(0)
        header = fmt.read_header(buf)
        assert header.t1 == t1
        assert header.t2 == t2
        assert header.num_vertices == 3

    @pytest.mark.parametrize("t1,t2", [((1 << 63), 0), (0, -(1 << 63) - 1)])
    def test_out_of_range_times_rejected(self, t1, t2):
        import io

        with pytest.raises(StorageError, match="signed 64-bit"):
            fmt.write_header(
                io.BytesIO(), fmt.EdgeFileHeader(num_vertices=1, t1=t1, t2=t2)
            )
