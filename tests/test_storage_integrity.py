"""Corruption matrix for format v2: every byte flip / truncation is typed.

The integrity contract (ISSUE 4): any truncation and any single-byte
corruption of an edge file must surface as a typed
:class:`~repro.errors.StorageError` / :class:`~repro.errors.IntegrityError`
*naming the corrupt section* — never as silently wrong data and never as a
bare ``struct.error``. Version-1 files (no checksums) must keep loading
byte-for-byte identically to version-2 files of the same graph.
"""

import io
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, StorageError
from repro.storage import EdgeFile, TemporalGraphStore, write_edge_file
from repro.storage import format as fmt
from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from tests.conftest import random_temporal_graph


@pytest.fixture(scope="module")
def graph():
    return random_temporal_graph(seed=91, num_vertices=12, num_events=120)


@pytest.fixture
def edge_path(graph, tmp_path):
    t0, t1 = graph.time_range
    path = tmp_path / "edges.chronos"
    write_edge_file(path, graph, t0 - 1, t1)
    return path


def _full_read(path):
    """Open + exhaustively verify; the strictest read path."""
    ef = EdgeFile(path)
    ef.verify()
    return ef


def _section_boundaries(path, graph):
    """Every section boundary offset in file order."""
    header = fmt.header_size(2)
    index_end = header + graph.num_vertices * fmt.INDEX_ENTRY_SIZE + fmt.CRC_SIZE
    bounds = [
        fmt.HEADER_SIZE,  # header struct | header crc
        header,  # header crc | index
        index_end - fmt.CRC_SIZE,  # index | index crc
        index_end,  # index crc | segments
    ]
    ef = EdgeFile(path)
    for offset, n_cp, n_act in ef._index_columns.tolist():
        if offset == 0:
            continue
        cp_end = offset + n_cp * fmt.CHECKPOINT_ENTRY_SIZE
        act_end = cp_end + n_act * fmt.ACTIVITY_SIZE
        bounds += [offset, cp_end, act_end, act_end + 2 * fmt.CRC_SIZE]
    return sorted(set(bounds))


class TestTruncationMatrix:
    def test_truncation_at_every_section_boundary(self, edge_path, graph):
        data = edge_path.read_bytes()
        cuts = set(_section_boundaries(edge_path, graph))
        # ... plus one byte short of each boundary: mid-section cuts.
        cuts |= {b - 1 for b in cuts if b > 0}
        cuts |= {0, 1, len(data) - 1}
        for cut in sorted(cuts):
            if cut >= len(data):
                continue
            edge_path.write_bytes(data[:cut])
            with pytest.raises(StorageError):
                _full_read(edge_path)
        edge_path.write_bytes(data)
        _full_read(edge_path)  # restored file is clean again

    def test_truncation_error_is_not_struct_error(self, edge_path):
        data = edge_path.read_bytes()
        for cut in range(0, len(data), 7):
            edge_path.write_bytes(data[:cut])
            try:
                _full_read(edge_path)
            except StorageError:
                pass
            except struct.error as exc:  # pragma: no cover - the regression
                pytest.fail(f"bare struct.error at cut {cut}: {exc}")
            else:
                pytest.fail(f"truncation to {cut} bytes went undetected")


class TestBitFlipMatrix:
    def test_every_single_byte_flip_is_detected(self, edge_path):
        """Exhaustive: no byte of a v2 file can flip silently."""
        data = bytearray(edge_path.read_bytes())
        for pos in range(len(data)):
            orig = data[pos]
            data[pos] = orig ^ 0xFF
            edge_path.write_bytes(bytes(data))
            with pytest.raises(StorageError):
                _full_read(edge_path)
            data[pos] = orig
        edge_path.write_bytes(bytes(data))
        _full_read(edge_path)

    def test_integrity_error_names_the_section(self, edge_path, graph):
        data = bytearray(edge_path.read_bytes())
        # A byte inside the vertex index (past the header).
        pos = fmt.header_size(2) + 3
        data[pos] ^= 0xFF
        edge_path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError) as exc_info:
            EdgeFile(edge_path)
        err = exc_info.value
        assert err.section == "vertex index"
        assert err.path == str(edge_path)
        assert err.expected != err.actual
        assert "vertex index" in str(err)

    def test_segment_flip_names_the_vertex_sector(self, edge_path):
        ef = EdgeFile(edge_path)
        target = next(
            (v, off)
            for v, (off, n_cp, n_act) in enumerate(ef._index_columns.tolist())
            if off != 0 and n_cp + n_act > 0
        )
        v, offset = target
        data = bytearray(edge_path.read_bytes())
        data[offset] ^= 0xFF  # first data byte of vertex v's segment
        edge_path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match=f"vertex {v}"):
            EdgeFile(edge_path).segment(v)

    def test_version_field_flip_cannot_demote_to_v1(self, edge_path):
        # No single-bit flip maps version 2 onto version 1 (2 ^ (1<<k) != 1
        # for every k), so a corrupt v2 header can never be silently read
        # under the checksum-free v1 rules.
        for bit in range(16):
            assert (2 ^ (1 << bit)) != 1
        data = bytearray(edge_path.read_bytes())
        for bit in range(8):
            flipped = bytearray(data)
            flipped[4] ^= 1 << bit  # low byte of the version u16
            edge_path.write_bytes(bytes(flipped))
            with pytest.raises(StorageError):
                EdgeFile(edge_path)
        edge_path.write_bytes(bytes(data))


class TestFaultPlanStorageCorruption:
    def test_injected_corruption_is_caught_by_verify(self, graph, tmp_path):
        plan = FaultPlan(seed=7).corrupt_file(match="edges_*.chronos")
        with faults.injected(plan):
            store = TemporalGraphStore.create(tmp_path / "s", graph)
        assert plan.fired.get("corrupt") == 1
        with pytest.raises(StorageError):
            store.verify()

    def test_clean_store_verifies(self, graph, tmp_path):
        store = TemporalGraphStore.create(tmp_path / "clean", graph)
        assert store.verify() > 0

    def test_corruption_is_seed_deterministic(self, graph, tmp_path):
        blobs = []
        for trial in range(2):
            plan = FaultPlan(seed=13).corrupt_file(match="*.chronos")
            d = tmp_path / f"t{trial}"
            with faults.injected(plan):
                TemporalGraphStore.create(d, graph)
            blobs.append((d / "edges_0000.chronos").read_bytes())
        assert blobs[0] == blobs[1]


class TestVersionParity:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        num_vertices=st.integers(2, 16),
        num_events=st.integers(1, 80),
    )
    def test_v1_and_v2_load_identically(
        self, seed, num_vertices, num_events, tmp_path_factory
    ):
        g = random_temporal_graph(
            seed=seed, num_vertices=num_vertices, num_events=num_events
        )
        assume(g.activities)  # self-loop-only draws produce an empty log
        t0, t1 = g.time_range
        d = tmp_path_factory.mktemp("parity")
        p1, p2 = d / "v1.chronos", d / "v2.chronos"
        write_edge_file(p1, g, t0 - 1, t1, version=1)
        write_edge_file(p2, g, t0 - 1, t1, version=2)
        ef1, ef2 = EdgeFile(p1), EdgeFile(p2)
        assert (ef1.version, ef2.version) == (1, 2)
        assert ef1.header.num_vertices == ef2.header.num_vertices
        for v in range(g.num_vertices):
            assert ef1.segment(v) == ef2.segment(v)
            assert ef1.out_edges_at(v, t1) == ef2.out_edges_at(v, t1)

    def test_v1_has_no_checksums_and_smaller_size(self, graph, tmp_path):
        t0, t1 = graph.time_range
        p1, p2 = tmp_path / "v1", tmp_path / "v2"
        write_edge_file(p1, graph, t0 - 1, t1, version=1)
        write_edge_file(p2, graph, t0 - 1, t1, version=2)
        segments = EdgeFile(p2).verify()
        overhead = (
            fmt.CRC_SIZE  # header crc
            + fmt.CRC_SIZE  # index crc
            + segments * 2 * fmt.CRC_SIZE  # per-segment trailers
        )
        assert p2.stat().st_size == p1.stat().st_size + overhead

    def test_unsupported_write_version_rejected(self, graph, tmp_path):
        t0, t1 = graph.time_range
        with pytest.raises(StorageError, match="version"):
            write_edge_file(tmp_path / "v9", graph, t0 - 1, t1, version=9)

    def test_header_roundtrip_both_versions(self):
        for version in fmt.SUPPORTED_VERSIONS:
            buf = io.BytesIO()
            fmt.write_header(
                buf, fmt.EdgeFileHeader(7, -3, 99, version)
            )
            buf.seek(0)
            header = fmt.read_header(buf)
            assert header == fmt.EdgeFileHeader(7, -3, 99, version)
