"""The native section codec against zlib, the per-segment loops and hostile indexes.

``repro.native.scan_sections`` / ``pack_sections`` replaced a
``zlib.crc32`` comprehension plus two ``b"".join``\\ s in the reader and a
per-segment trailer loop in the writer; the store fingerprint's gather
replaced a seek-per-segment loop. Each old form is the oracle here:
``zlib.crc32`` for the CRC, ``tests.test_writer_parity.oracle_sections``
for the layout and :func:`oracle_fingerprint` for the digest. The fuzz test rewrites vertex
index rows (recomputing the index CRC, so the file opens) and requires a
typed error or the records the per-vertex reads give — never another
exception and never an allocation sized by the index.
"""

import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.cache.fingerprint import DIGEST_SIZE, combine_digests, digest_bytes
from repro.errors import IntegrityError, StorageError
from repro.storage import EdgeFile, TemporalGraphStore, write_edge_file
from repro.storage import format as fmt
from tests.conftest import random_temporal_graph
from tests.test_writer_parity import oracle_sections

SRC = Path(__file__).resolve().parents[1] / "src"

#: The golden fingerprint of ``_golden_store``: cache keys written before
#: the native codec must still hit.
GOLDEN_STORE_FINGERPRINT = "17be10780458723d79a18a3bcca8bfd7"


def _lengths(values):
    return np.asarray(values, dtype=np.int64)


def native_crcs(cp, act=b""):
    """The codec's two CRCs of ``cp`` and ``act`` (one packed segment)."""
    cp = np.frombuffer(bytes(cp), np.uint8) if not isinstance(cp, np.ndarray) else cp
    act = np.frombuffer(bytes(act), np.uint8)
    packed = native.pack_sections(cp, act, _lengths([cp.shape[0]]), _lengths([act.shape[0]]))
    return struct.unpack("<II", packed[-8:].tobytes())


def oracle_fingerprint(edge_file):
    """The seek-per-segment store fingerprint the vectorised gather replaced."""
    h = hashlib.blake2b(digest_size=DIGEST_SIZE)
    with open(edge_file.path, "rb") as fh:
        h.update(fh.read(edge_file.header.segments_offset))
        for offset, n_cp, n_act in edge_file._index_columns.tolist():
            if offset == 0:
                continue
            fh.seek(offset + n_cp * fmt.CHECKPOINT_ENTRY_SIZE + n_act * fmt.ACTIVITY_SIZE)
            h.update(fh.read(fmt.TRAILER_SIZE))
    return h.hexdigest()


# ---------------------------------------------------------------------- #
# the CRC is zlib's


def test_crc_equals_zlib_for_every_short_length_and_a_long_one():
    rng = np.random.default_rng(0)
    blob = rng.integers(0, 256, 4097 + 64, dtype=np.uint8).tobytes()
    for n in [*range(65), 4097]:
        assert native_crcs(blob[:n], blob[-n:] if n else b"") == (
            zlib.crc32(blob[:n]),
            zlib.crc32(blob[-n:] if n else b""),
        ), n


def test_crc_equals_zlib_at_unaligned_starts():
    rng = np.random.default_rng(1)
    base = rng.integers(0, 256, 1 << 14, dtype=np.uint8)
    for _ in range(200):
        start = int(rng.integers(0, 16))
        n = int(rng.integers(0, base.shape[0] - start))
        view = base[start : start + n]  # a misaligned pointer into base
        assert native_crcs(view)[0] == zlib.crc32(view.tobytes()), (start, n)


# ---------------------------------------------------------------------- #
# pack and scan are mirrors


def _random_sections(rng, n):
    cp_len = rng.integers(0, 40, n) * rng.integers(0, 2, n)  # many empty
    act_len = rng.integers(0, 90, n) * rng.integers(0, 2, n)
    cp = rng.integers(0, 256, int(cp_len.sum()), dtype=np.uint8)
    act = rng.integers(0, 256, int(act_len.sum()), dtype=np.uint8)
    return cp, act, _lengths(cp_len), _lengths(act_len)


@pytest.mark.parametrize("gather", [True, False])
@pytest.mark.parametrize("mmap", [False, True])
def test_pack_then_scan_round_trips(gather, mmap, tmp_path):
    rng = np.random.default_rng(2)
    cp, act, cp_len, act_len = _random_sections(rng, 300)
    packed = native.pack_sections(cp, act, cp_len, act_len)
    assert packed.tobytes() == oracle_sections(
        cp.tobytes(), act.tobytes(), cp_len.tolist(), act_len.tolist()
    )
    prefix = 13  # segments start mid-file, as after a header and index
    path = tmp_path / "sections.bin"
    path.write_bytes(b"\xab" * prefix + packed.tobytes())
    data = (
        np.memmap(path, dtype=np.uint8, mode="r")
        if mmap
        else np.frombuffer(path.read_bytes(), np.uint8)
    )
    sizes = cp_len + act_len + native.TRAILER_SIZE
    offset = prefix + np.cumsum(sizes) - sizes
    first_bad, got_cp, got_act = native.scan_sections(
        data, offset, cp_len, act_len, gather
    )
    assert first_bad == len(offset)  # the verdict does not depend on gather
    # Without gather nothing is copied.
    assert got_cp.tobytes() == (cp.tobytes() if gather else b"")
    assert got_act.tobytes() == (act.tobytes() if gather else b"")


def test_scan_reports_the_first_mismatching_segment(tmp_path):
    rng = np.random.default_rng(3)
    cp, act, cp_len, act_len = _random_sections(rng, 50)
    packed = native.pack_sections(cp, act, cp_len, act_len)
    sizes = cp_len + act_len + native.TRAILER_SIZE
    offset = np.cumsum(sizes) - sizes
    for victim in (7, 31, 49):
        for where in range(int(sizes[victim])):  # data bytes and trailer bytes
            flipped = packed.copy()
            flipped[offset[victim] + where] ^= 0x01
            first_bad, _, _ = native.scan_sections(
                flipped, offset, cp_len, act_len, gather=True
            )
            assert first_bad == victim


def test_ranges_outside_the_buffer_are_a_typed_error():
    data = np.zeros(64, dtype=np.uint8)
    for offset, cp_len, act_len in [(60, 0, 0), (-1, 0, 0), (0, 70, 0), (0, 8, -8)]:
        with pytest.raises(StorageError, match="outside"):
            native.scan_sections(
                data, _lengths([offset]), _lengths([cp_len]), _lengths([act_len]),
                gather=True,
            )
    with pytest.raises(StorageError, match="do not use up"):
        native.pack_sections(data, data, _lengths([10]), _lengths([10]))


# ---------------------------------------------------------------------- #
# hostile vertex indexes


@pytest.fixture(scope="module")
def edge_file_bytes(tmp_path_factory):
    graph = random_temporal_graph(seed=91, num_vertices=12, num_events=120)
    t0, t1 = graph.time_range
    path = tmp_path_factory.mktemp("clean") / "edges.chronos"
    write_edge_file(path, graph, t0 - 1, t1)
    return path.read_bytes()


def _rewrite_index(raw, rows):
    """``raw`` with index rows replaced and the index CRC recomputed."""
    data = bytearray(raw)
    (num_vertices,) = struct.unpack_from("<I", data, 6)
    start = fmt.HEADER_SIZE
    end = start + num_vertices * fmt.INDEX_ENTRY_SIZE
    index = np.frombuffer(bytes(data[start:end]), dtype=fmt.INDEX_DTYPE).copy()
    for v, (offset, n_cp, n_act) in rows.items():
        index[v % num_vertices] = (offset, n_cp, n_act)
    data[start:end] = index.tobytes()
    data[end : end + fmt.CRC_SIZE] = struct.pack("<I", zlib.crc32(index.tobytes()))
    return bytes(data), index


_U32 = (1 << 32) - 1


@st.composite
def hostile_rows(draw, raw):
    index = np.frombuffer(raw[fmt.HEADER_SIZE :], dtype=fmt.INDEX_DTYPE, count=12)
    real = [int(o) for o in index["offset"] if o]
    offsets = st.one_of(
        st.sampled_from(real),  # another segment's: overlap
        st.integers(1, fmt.HEADER_SIZE + 12 * fmt.INDEX_ENTRY_SIZE),  # header
        st.integers(len(raw) - 16, len(raw) + 64),  # around and past EOF
        st.sampled_from([1 << 63, (1 << 64) - 1, (1 << 64) - 8]),  # huge
        st.integers(0, len(raw)),
    )
    counts = st.one_of(
        st.integers(0, 4), st.sampled_from([_U32, _U32 - 1, 1 << 31]), st.integers(0, _U32)
    )
    return draw(
        st.dictionaries(st.integers(0, 11), st.tuples(offsets, counts, counts), min_size=1, max_size=4)
    )


def _records_or_typed_error(action):
    try:
        return action()
    except StorageError:  # IntegrityError included
        return None


@settings(max_examples=80, deadline=None)
@given(data=st.data(), mmap=st.booleans())
def test_hostile_index_rows_give_typed_errors_or_the_records(
    edge_file_bytes, tmp_path_factory, data, mmap
):
    raw = edge_file_bytes
    rows = data.draw(hostile_rows(raw))
    hostile, index = _rewrite_index(raw, rows)
    path = tmp_path_factory.mktemp("hostile") / "edges.chronos"
    path.write_bytes(hostile)

    tracemalloc.start()
    try:
        edge_file = EdgeFile(path, mmap=mmap)
        verified = _records_or_typed_error(edge_file.verify)
        scanned = _records_or_typed_error(lambda: list(edge_file.all_segments()))
        one_by_one = {
            v: _records_or_typed_error(lambda v=v: edge_file.segment(v))
            for v in range(edge_file.num_vertices)
        }
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Nothing is sized by an index field: a few copies of the file at most.
    assert peak < 8 * len(hostile) + (1 << 20)
    if scanned is None:
        return
    # A scan that passes read what each vertex's own read gives (repr:
    # garbage weights may decode to NaN).
    assert verified == len(scanned)
    for v, checkpoint, activities in scanned:
        assert repr(one_by_one[v]) == repr((checkpoint, activities))
    assert {v for v, _, _ in scanned} == set(np.flatnonzero(index["offset"]).tolist())


def test_overlapping_segments_cannot_size_the_gather(edge_file_bytes, tmp_path):
    raw = edge_file_bytes
    (num_vertices,) = struct.unpack_from("<I", raw, 6)
    index = np.frombuffer(raw[fmt.HEADER_SIZE :], dtype=fmt.INDEX_DTYPE, count=num_vertices)
    nbytes = index["n_cp"] * fmt.CHECKPOINT_ENTRY_SIZE + index["n_act"] * fmt.ACTIVITY_SIZE
    widest = int(np.argmax(nbytes))
    assert num_vertices * int(nbytes[widest]) > len(raw)
    hostile, _ = _rewrite_index(
        raw, {v: tuple(int(x) for x in index[widest]) for v in range(num_vertices)}
    )
    path = tmp_path / "overlap.chronos"
    path.write_bytes(hostile)
    for mmap in (False, True):
        with pytest.raises(StorageError, match="overlap"):
            EdgeFile(path, mmap=mmap).scan()


# ---------------------------------------------------------------------- #
# the store fingerprint digests the bytes it always did


def _golden_store(path):
    graph = random_temporal_graph(seed=7)
    return TemporalGraphStore.create(path, graph, redundancy_ratio=0.8)


def test_store_fingerprint_is_the_golden_cache_key(tmp_path):
    store = _golden_store(tmp_path / "s")
    assert store.fingerprint() == GOLDEN_STORE_FINGERPRINT
    groups = [oracle_fingerprint(g.edge_file) for g in store.groups]
    assert store.group_fingerprints() == groups


def test_fingerprint_equals_the_seek_loop_on_damaged_files(edge_file_bytes, tmp_path):
    path = tmp_path / "edges.chronos"
    raw = edge_file_bytes
    cases = {"intact": raw}
    for cut in range(fmt.EdgeFileHeader(12, 0, 0).segments_offset, len(raw), 5):
        cases[f"cut {cut}"] = raw[:cut]
    for pos in range(len(raw) - 16, len(raw)):  # the last trailers
        flipped = bytearray(raw)
        flipped[pos] ^= 0xFF
        cases[f"flip {pos}"] = bytes(flipped)
    for name, content in cases.items():
        path.write_bytes(raw)
        edge_file = EdgeFile(path)  # opened intact, then damaged
        path.write_bytes(content)
        assert edge_file.fingerprint() == oracle_fingerprint(edge_file), name


def test_a_flipped_trailer_moves_the_fingerprint_and_refuses_the_load(tmp_path):
    from repro.storage import load_series

    store = _golden_store(tmp_path / "s")
    target = sorted(store.path.glob("edges_*.chronos"))[-1]
    data = bytearray(target.read_bytes())
    data[-1] ^= 0xFF
    target.write_bytes(bytes(data))
    reopened = TemporalGraphStore(store.path)
    assert reopened.fingerprint() != GOLDEN_STORE_FINGERPRINT
    with pytest.raises(IntegrityError):
        load_series(reopened, [reopened.groups[-1].t2])
    with pytest.raises(IntegrityError):
        reopened.verify()


def test_store_fingerprint_is_manifest_plus_group_digests(tmp_path):
    import json

    store = _golden_store(tmp_path / "s")
    manifest = digest_bytes(json.dumps(store._manifest, sort_keys=True).encode())
    assert store.fingerprint() == combine_digests(
        [manifest, *(oracle_fingerprint(g.edge_file) for g in store.groups)]
    )


# ---------------------------------------------------------------------- #
# one library for the fold and the store


_STORE_FIRST = """
import sys
from pathlib import Path
import numpy as np
import repro
from repro.engine import kernels
from repro.storage import EdgeFile, write_edge_file
from repro.temporal import TemporalGraphBuilder
cache = Path(sys.argv[1]) / "repro" / "native"
graph = TemporalGraphBuilder().add_edge(0, 1, 1).add_edge(1, 2, 2).build()
write_edge_file(Path(sys.argv[2]), graph, 0, 2)
print(EdgeFile(Path(sys.argv[2])).verify())
print(sorted(p.name for p in cache.iterdir()))
acc = np.zeros(2)
edges = (np.ones(1, np.uint64), np.zeros(1, np.int64), np.ones(1, np.int64))
kernels.walk(acc, np.add, np.ones(2), edges, 0, 1, (1, 1), 1, mask=1)
print(sorted(p.name for p in cache.iterdir()))
"""


def test_a_store_read_builds_the_one_library_the_fold_reuses(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _STORE_FIRST, str(tmp_path), str(tmp_path / "e.chronos")],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    segments, after_store, after_fold = proc.stdout.splitlines()
    assert segments == "2"
    assert after_store == after_fold
    (library,) = eval(after_store)
    assert library.startswith("repro_native-") and library.endswith(".so")
