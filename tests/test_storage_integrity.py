"""Corruption matrix for the edge file: every byte flip / truncation is typed.

The integrity contract: any truncation and any single-byte corruption of
an edge file must surface as a typed :class:`~repro.errors.StorageError` /
:class:`~repro.errors.IntegrityError` *naming the corrupt section* — never
as silently wrong data and never as a bare ``struct.error``. A header
carrying any version but the one format's is refused.
"""

import io
import struct
import zlib

import pytest

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
    header = fmt.HEADER_SIZE
    index_end = header + graph.num_vertices * fmt.INDEX_ENTRY_SIZE + fmt.CRC_SIZE
    bounds = [
        header - fmt.CRC_SIZE,  # header struct | header crc
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
        """Exhaustive: no byte of an edge file can flip silently."""
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
        pos = fmt.HEADER_SIZE + 3
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


class TestVersion:
    def test_header_roundtrip(self):
        buf = io.BytesIO()
        fmt.write_header(buf, fmt.EdgeFileHeader(7, -3, 99))
        assert len(buf.getvalue()) == fmt.HEADER_SIZE
        buf.seek(0)
        assert fmt.read_header(buf) == fmt.EdgeFileHeader(7, -3, 99)

    def test_every_other_version_is_rejected(self, tmp_path):
        """One format: every u16 version other than 2, under a valid
        header CRC, is a typed error (header-only, zero-vertex files)."""
        buf = io.BytesIO()
        fmt.write_header(buf, fmt.EdgeFileHeader(0, 0, 10))
        fmt.write_index(buf, [])
        data = bytearray(buf.getvalue())
        crc_at = fmt.HEADER_SIZE - fmt.CRC_SIZE
        rejected = 0
        for version in range(1 << 16):
            struct.pack_into("<H", data, 4, version)
            struct.pack_into("<I", data, crc_at, zlib.crc32(data[:crc_at]))
            try:
                fmt.read_header(io.BytesIO(bytes(data)))
            except StorageError as exc:
                assert str(exc) == f"unsupported edge file version {version}"
                rejected += 1
            else:
                assert version == fmt.VERSION
            if version in (0, 1, fmt.VERSION, 0xFFFF):
                path = tmp_path / f"v{version}.chronos"
                path.write_bytes(bytes(data))
                if version == fmt.VERSION:
                    assert EdgeFile(path).verify() == 0
                else:
                    with pytest.raises(StorageError, match="unsupported"):
                        EdgeFile(path)
        assert rejected == (1 << 16) - 1
