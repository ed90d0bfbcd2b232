"""The owner-computes proof every group run makes, traced or not.

The scatter's lock-free correctness rests on one invariant: each range
walks a destination-vertex interval cut from ``in_index``, so it folds
into accumulator cells nobody else touches, and the native walk trusts
the group's index values. :func:`repro.parallel.shm.cut_ranges` turns
that invariant into a runtime check before the first scatter of every
group run, serial included — the in-edge array is proven
destination-sorted, and every range's in-edges proven inside its
interval — and these tests prove that a mid-vertex cut, an
out-of-interval destination and an unsorted edge array are caught with
the offending group/worker identified, with the accumulator untouched,
instead of silently corrupting results. Clean runs are the parity
matrices of ``tests/test_parallel_shm.py``.
"""

import os
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro import native
from repro.algorithms import make_program
from repro.engine.config import EngineConfig
from repro.engine import kernels
from repro.engine.runner import run, run_group, simulate
from repro.engine.state import GroupState
from repro.errors import ShardRaceError
from repro.parallel import shm
from repro.parallel.shm import (
    assert_destination_sorted,
    shard_boundaries,
    verify_disjoint_ownership,
)
from tests.conftest import random_temporal_graph

#: Overridable so the CI multi-worker smoke job can run the same tests
#: at workers=4 (see .github/workflows/ci.yml).
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


@pytest.fixture(scope="module")
def series16():
    g = random_temporal_graph(
        num_vertices=40, num_events=360, seed=7, symmetric=True, weighted=True
    )
    return g.series(g.evenly_spaced_times(16))


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pool_after():
    yield
    shm.shutdown_pool()


# ---------------------------------------------------------------------- #
# primitives


def _index(keys, num_vertices):
    counts = np.bincount(keys, minlength=num_vertices)
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def test_verify_disjoint_accepts_snapped_boundaries():
    rng = np.random.default_rng(3)
    keys = np.sort(rng.integers(0, 50, size=200)).astype(np.int64)
    index = _index(keys, 50)
    for workers in (1, 2, 3, 7):
        bounds = shard_boundaries(index, workers)
        verify_disjoint_ownership(keys, index, bounds, group=0)  # must not raise


def test_verify_disjoint_rejects_mid_segment_cut():
    # An index whose cut lands inside vertex 0's in-edges hands vertex 0
    # to both workers.
    keys = np.array([0, 0, 0, 0, 2, 2], dtype=np.int64)
    index = np.array([0, 2, 4, 6], dtype=np.int64)  # honest: [0, 4, 4, 6]
    with pytest.raises(ShardRaceError) as ei:
        verify_disjoint_ownership(keys, index, np.array([0, 1, 3]), group=4)
    err = ei.value
    assert err.group == 4
    assert err.worker == 1
    assert err.other == 0
    assert err.cell == 0
    assert "group 4" in str(err) and "cell 0" in str(err)


def test_verify_disjoint_rejects_non_tiling_bounds():
    keys = np.arange(6, dtype=np.int64)
    index = _index(keys, 6)
    for bounds in ([0, 3, 5], [1, 3, 6], [0, 4, 3, 6]):
        with pytest.raises(ShardRaceError):
            verify_disjoint_ownership(keys, index, np.array(bounds), group=0)


def test_assert_destination_sorted():
    assert_destination_sorted(np.array([0, 1, 1, 4], dtype=np.int64), group=0)
    with pytest.raises(ShardRaceError) as ei:
        assert_destination_sorted(np.array([0, 2, 1, 4], dtype=np.int64), group=8)
    assert ei.value.group == 8


def _group(dst=(0, 0, 1, 2, 2)):
    """A 3-vertex, 2-snapshot weighted group of the in-edges 1->0, 2->0,
    0->1, 0->2, 1->2, each live in both snapshots (``dst`` may be
    corrupted; the index stays the honest one). Time-locality cells are
    ``dst * 2 + snapshot``; two ranges own vertex 0 and vertices {1, 2}."""
    src = np.array([1, 2, 0, 0, 1], dtype=np.int64)
    honest = np.array([0, 0, 1, 2, 2], dtype=np.int64)
    return SimpleNamespace(
        num_vertices=3, in_src=src, in_dst=np.array(dst, dtype=np.int64),
        in_bitmap=np.full(5, 0b11, dtype=np.uint64),
        in_weight=np.arange(1.0, 11.0).reshape(5, 2),
        in_index=_index(honest, 3),
    )


def test_cut_rejects_write_into_another_workers_cell():
    with pytest.raises(ShardRaceError) as ei:
        shm.cut_ranges(_group(dst=(0, 1, 1, 2, 2)), 2, 16)
    err = ei.value
    assert err.worker == 0 and err.other == 1
    assert err.cell == 1 and err.group == 16


def test_cut_rejects_write_into_unclaimed_cell():
    with pytest.raises(ShardRaceError) as ei:
        shm.cut_ranges(_group(dst=(0, 0, 1, 2, 3)), 2, 16)
    assert ei.value.worker == 1
    assert ei.value.other is None and ei.value.cell == 3


def _spmv_walk(group, acc, lo, hi):
    """One SpMV walk over in-edges ``[lo, hi)`` (value of cell c = c + 1)."""
    return kernels.walk(
        acc, np.add, np.arange(1.0, 7.0),
        (group.in_bitmap, group.in_src, group.in_dst), lo, hi, (2, 1), 2,
        mask=0b11, weight=group.in_weight, edge_op="mul",
    )


def test_cut_ranges_fold_matches_the_whole_walk():
    group = _group()
    clean = np.zeros(6, dtype=np.float64)
    assert _spmv_walk(group, clean, 0, 5) == 10
    edge_bounds, vertex_bounds = shm.cut_ranges(group, 2, 16)
    assert vertex_bounds.tolist() == [0, 1, 3]
    ranged = np.zeros(6, dtype=np.float64)
    for w in range(2):
        _spmv_walk(group, ranged, int(edge_bounds[w]), int(edge_bounds[w + 1]))
    assert ranged.tobytes() == clean.tobytes()
    # message = source value * weight, summed per cell in source order
    assert clean.tolist() == [18.0, 32.0, 5.0, 12.0, 34.0, 56.0]


def test_shard_race_error_survives_pickling():
    err = ShardRaceError("boom", group=3, worker=1, other=0, cell=42)
    back = pickle.loads(pickle.dumps(err))
    assert isinstance(back, ShardRaceError)
    assert (back.group, back.worker, back.other, back.cell) == (3, 1, 0, 42)
    assert str(back) == str(err)


# ---------------------------------------------------------------------- #
# end to end through the executors


def _corrupted_run(group, mutate, configs):
    """Run ``group`` under each config with ``mutate`` applied to one of its
    arrays: each must raise ``ShardRaceError`` before any write, leaving
    the accumulator byte-identical. Returns the errors; restores the array
    (group views are memoised on the series)."""
    program = make_program("pagerank")
    state = GroupState(group, configs[0].layout, program)
    before = state.acc_flat.copy()
    errors = []
    restore = mutate()
    try:
        for config in configs:
            with pytest.raises(ShardRaceError) as ei:
                run_group(group, program, config, state=state)
            assert state.acc_flat.tobytes() == before.tobytes()  # nothing folded
            errors.append(ei.value)
    finally:
        restore()
    return errors


def _threaded(**kwargs):
    return EngineConfig(batch_size=8, executor="process", workers=WORKERS, **kwargs)


def test_parent_detects_corrupted_shard_plan(series16):
    # A mid-vertex cut: the first cut's in-edge offset moves one edge into
    # the cut vertex, so worker 0's range reaches worker 1's vertex.
    group = series16.group(0, 8)
    cut = int(shard_boundaries(group.in_index, WORKERS)[1])
    assert group.in_index[cut + 1] > group.in_index[cut]

    def mutate():
        group.in_index[cut] += 1
        return lambda: group.in_index.__setitem__(cut, group.in_index[cut] - 1)

    (err,) = _corrupted_run(group, mutate, [_threaded()])
    assert err.group == 0
    assert (err.worker, err.other, err.cell) == (0, 1, cut)


def test_worker_detects_out_of_ownership_write(series16):
    # An out-of-interval destination: the last in-edge is redirected past
    # every vertex (the array stays sorted), which no range owns.
    group = series16.group(0, 8)
    last = group.num_edges - 1
    dst = int(group.in_dst[last])

    def mutate():
        group.in_dst[last] = group.num_vertices
        return lambda: group.in_dst.__setitem__(last, dst)

    for err in _corrupted_run(group, mutate, [EngineConfig(batch_size=8), _threaded()]):
        assert err.worker is not None
        assert err.cell == group.num_vertices
        assert err.other is None  # unclaimed, not another worker's


def _swapped_pair(group):
    """``(low, swap)``: ``swap()`` exchanges the first rising ``in_dst``
    pair, so the array is no longer destination-sorted, and returns
    itself (a second call restores it); ``low`` is the smaller
    destination, found out of order after the swap."""
    rising = np.flatnonzero(group.in_dst[1:] > group.in_dst[:-1])
    assert rising.size, "fixture group must span more than one destination"
    i = int(rising[0])

    def swap():
        group.in_dst[[i, i + 1]] = group.in_dst[[i + 1, i]]
        return swap

    return int(group.in_dst[i]), swap


def test_serial_sanitize_detects_unsorted_plan(series16):
    group = series16.group(0, 8)
    low, swap = _swapped_pair(group)
    # One proof for both executors: serial runs check the order too.
    for err in _corrupted_run(group, swap, [EngineConfig(batch_size=8), _threaded()]):
        assert err.group == 0
        assert err.cell == low


@pytest.mark.parametrize("trace", [False, True])
def test_default_serial_run_refuses_an_unsorted_edge_array(
    series16, monkeypatch, trace
):
    # No option selects the proof: a default-config run() checks the
    # order before its first walk, so nothing is folded — traced runs
    # scatter with the same walk and are proven the same way.
    group = series16.group(0, 8)
    low, swap = _swapped_pair(group)
    walks = []
    real = native.walk

    def counting(*args, **kwargs):
        walks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(native, "walk", counting)
    swap()
    try:
        with pytest.raises(ShardRaceError) as ei:
            (simulate if trace else run)(
                series16, make_program("pagerank"), EngineConfig(batch_size=8)
            )
    finally:
        swap()
    assert (ei.value.group, ei.value.cell) == (0, low)
    assert walks == []


def test_serial_sanitize_accepts_clean_plan(series16):
    group = series16.group(0, 8)
    program = make_program("pagerank")
    vals, _ = run_group(group, program, EngineConfig(batch_size=8))
    ref, _ = run_group(group, program, _threaded())
    assert vals.tobytes() == ref.tobytes()
