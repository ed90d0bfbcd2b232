"""Out-of-core stores: memory-mapped reads are bitwise-identical.

``StoreConfig(mmap=True)`` (or a memory budget the store exceeds) opens
every edge file as a read-only ``np.memmap`` instead of eager per-access
file reads. The contract tested here is total equivalence: identical
series, identical engine values and counters for every application in
push and pull, identical integrity errors on corruption — the *only*
difference mmap is allowed to make is where the bytes live, under
the serial and the process executor alike.
"""

import os

import pytest

from repro.algorithms import make_program
from repro.engine.config import EngineConfig
from repro.engine.runner import run
from repro.errors import IntegrityError
from repro.parallel import shm
from repro.storage import format as fmt
from repro.storage.edge_file import EdgeFile, write_edge_file
from repro.storage.loader import load_series
from repro.storage.store import StoreConfig, TemporalGraphStore
from tests.conftest import random_temporal_graph

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
ALGOS = ["pagerank", "wcc", "sssp", "mis", "spmv"]
MODES = ["push", "pull"]


@pytest.fixture(scope="module")
def graph():
    return random_temporal_graph(
        num_vertices=30, num_events=260, seed=11, symmetric=True, weighted=True
    )


@pytest.fixture(scope="module")
def store_path(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "graph-store"
    TemporalGraphStore.create(path, graph)
    return path


@pytest.fixture(scope="module")
def times(graph):
    return graph.evenly_spaced_times(8)


@pytest.fixture(scope="module")
def eager_series(store_path, times):
    return load_series(TemporalGraphStore(store_path), times)


@pytest.fixture(scope="module")
def mmap_series(store_path, times):
    store = TemporalGraphStore(store_path, StoreConfig(mmap=True))
    assert store.mmap is True
    assert all(g.edge_file.mmap for g in store.groups)
    return load_series(store, times)


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pool_after():
    yield
    shm.shutdown_pool()


# ---------------------------------------------------------------------- #
# mmap vs eager: bitwise parity across the application matrix


def test_loaded_series_are_structurally_identical(eager_series, mmap_series):
    assert (
        eager_series.out_src.tobytes() == mmap_series.out_src.tobytes()
    )
    assert (
        eager_series.out_dst.tobytes() == mmap_series.out_dst.tobytes()
    )
    assert (
        eager_series.out_bitmap.tobytes() == mmap_series.out_bitmap.tobytes()
    )
    assert (
        eager_series.vertex_bitmap.tobytes()
        == mmap_series.vertex_bitmap.tobytes()
    )
    if eager_series.out_weight is None:
        assert mmap_series.out_weight is None
    else:
        assert (
            eager_series.out_weight.tobytes()
            == mmap_series.out_weight.tobytes()
        )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algo", ALGOS)
def test_mmap_vs_eager_bitwise_parity(eager_series, mmap_series, algo, mode):
    program = make_program(algo)
    config = EngineConfig(mode=mode, batch_size=4)
    eager = run(eager_series, program, config)
    mapped = run(mmap_series, program, config)
    assert mapped.values.tobytes() == eager.values.tobytes()
    assert mapped.counters == eager.counters


# ---------------------------------------------------------------------- #
# the acceptance scenario: a store past its memory budget, end to end


def test_store_past_memory_budget_runs_out_of_core(store_path, times):
    """A 1-byte budget forces mmap on; serial and process runs over the
    out-of-core store must be bitwise identical to the fully in-memory
    path."""
    eager_store = TemporalGraphStore(store_path)
    assert eager_store.mmap is False
    assert eager_store.total_bytes() > 1  # the budget is genuinely exceeded

    budget_store = TemporalGraphStore(
        store_path, StoreConfig(memory_budget_bytes=1)
    )
    assert budget_store.mmap is True

    small_budget_is_irrelevant = TemporalGraphStore(
        store_path,
        StoreConfig(memory_budget_bytes=eager_store.total_bytes() + 1),
    )
    assert small_budget_is_irrelevant.mmap is False

    program = make_program("pagerank")
    in_memory = run(
        load_series(eager_store, times),
        program,
        EngineConfig(mode="push", batch_size=4),
    )
    ooc_series = load_series(budget_store, times)
    ooc_serial = run(
        ooc_series, program, EngineConfig(mode="push", batch_size=4)
    )
    ooc_process = run(
        ooc_series,
        program,
        EngineConfig(
            mode="push",
            batch_size=4,
            executor="process",
            workers=WORKERS,
        ),
    )
    assert ooc_serial.values.tobytes() == in_memory.values.tobytes()
    assert ooc_serial.counters == in_memory.counters
    assert ooc_process.values.tobytes() == in_memory.values.tobytes()
    assert ooc_process.counters == in_memory.counters


# ---------------------------------------------------------------------- #
# satellite bugfix: identical IntegrityError naming in both modes


def _flipped_copy(path, tmp_path):
    """A copy of the edge file with one byte inside vertex data flipped."""
    data = bytearray(path.read_bytes())
    ef = EdgeFile(path)
    offset = next(
        off for off, _cp, _act in ef._index_columns.tolist() if off != 0
    )
    data[offset] ^= 0xFF
    out = tmp_path / "corrupt.chronos"
    out.write_bytes(bytes(data))
    return out


def test_mmap_integrity_error_names_section_like_eager(graph, tmp_path):
    t0, t1 = graph.time_range
    clean = tmp_path / "edges.chronos"
    write_edge_file(clean, graph, t0 - 1, t1)
    corrupt = _flipped_copy(clean, tmp_path)

    with pytest.raises(IntegrityError) as eager_err:
        EdgeFile(corrupt).verify()
    with pytest.raises(IntegrityError) as mmap_err:
        EdgeFile(corrupt, mmap=True).verify()
    # Shared CRC-check path: not just "both raise", but the *same* words —
    # section name, vertex, expected/actual checksums, file path.
    assert str(mmap_err.value) == str(eager_err.value)
    assert mmap_err.value.section == eager_err.value.section
    assert "vertex" in str(mmap_err.value)


def test_mmap_truncation_error_matches_eager(graph, tmp_path):
    t0, t1 = graph.time_range
    clean = tmp_path / "edges.chronos"
    write_edge_file(clean, graph, t0 - 1, t1)
    # Cut the file mid-way through the last vertex segment.
    data = clean.read_bytes()
    truncated = tmp_path / "short.chronos"
    truncated.write_bytes(data[: len(data) - fmt.CRC_SIZE - 1])

    def error_of(**kwargs):
        with pytest.raises(Exception) as ei:
            EdgeFile(truncated, **kwargs).verify()
        return ei.value

    eager_exc = error_of()
    mmap_exc = error_of(mmap=True)
    assert type(mmap_exc) is type(eager_exc)
    assert str(mmap_exc) == str(eager_exc)


def test_mmap_random_access_reads_match_eager(graph, tmp_path):
    """Point reads (segment / out_edges_at) agree between modes too."""
    t0, t1 = graph.time_range
    path = tmp_path / "edges.chronos"
    write_edge_file(path, graph, t0 - 1, t1)
    eager = EdgeFile(path)
    mapped = EdgeFile(path, mmap=True)
    t_mid = (t0 + t1) // 2
    for v in range(graph.num_vertices):
        assert mapped.segment(v) == eager.segment(v)
        assert mapped.out_edges_at(v, t_mid) == eager.out_edges_at(v, t_mid)
