"""Property tests: the plan-driven scatter is bit-identical to a per-edge fold.

The vectorised scatter (:mod:`repro.engine.kernels`) promises *bitwise*
identical values and *identical* logical counters versus the per-edge
simulated engine (:mod:`repro.engine.traced`, ``trace=True``) — an
independent implementation of the same fold order — for every mode,
layout, gather kind, and semantics; selection + fold are checked against a
pure-Python per-edge loop, the native fold against NumPy's sequential
``ufunc.at`` (:func:`oracle_fold`), and the plan's no-sort stream order
against the property of the series it rests on. These tests state that
promise as properties over random temporal graphs and random COO streams.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import make_program
from repro.algorithms.program import GatherKind, Semantics, VertexProgram
from repro.engine import kernels
from repro.engine.config import EngineConfig, Mode
from repro.engine.kernels import GatherPlan
from repro.engine.runner import run
from repro.layout.vertex_array import LayoutKind
from repro.parallel.plan_shard import shard_boundaries
from repro.temporal.builder import TemporalGraphBuilder
from tests.conftest import assert_matches_traced, random_temporal_graph

MODES = [Mode.PUSH, Mode.PULL, Mode.STREAM]
LAYOUTS = [LayoutKind.TIME_LOCALITY, LayoutKind.STRUCTURE_LOCALITY]


class ReachabilityOr(VertexProgram):
    """A logical-OR flood program (exercises the truth-valued fold)."""

    name = "reach-or"
    semantics = Semantics.REGATHER
    gather = GatherKind.OR
    max_iterations = 3

    def initial_values(self, group):
        seeds = (np.arange(group.num_vertices) % 3 == 0).astype(np.float64)
        return self.masked_initial_array(group, seeds[:, None])

    def masked_initial_array(self, group, vals):
        out = np.full(
            (group.num_vertices, group.num_snapshots), np.nan, dtype=np.float64
        )
        return np.where(group.vertex_exists, vals, out)

    def scatter(self, values, weights, src_degrees):
        return values

    def apply(self, old, acc, group):
        return np.maximum(old, acc.astype(np.float64))


def _program(app: str) -> VertexProgram:
    if app == "reach-or":
        return ReachabilityOr()
    if app in ("pagerank", "spmv"):
        return make_program(app, iterations=3)
    return make_program(app)


def _assert_kernels_agree(series, app, mode, layout, batch):
    cfg = EngineConfig(mode=mode, layout=layout, batch_size=batch)
    assert_matches_traced(
        run(series, _program(app), cfg),
        run(series, _program(app), cfg.with_(trace=True)),
        f"for {app}/{mode}/{layout}/batch {batch}",
    )


@given(
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(MODES),
    layout=st.sampled_from(LAYOUTS),
    batch=st.sampled_from([1, 3, 8]),
    # additive REGATHER (weighted and unweighted), min MONOTONE (weighted
    # and unweighted), min REGATHER, logical OR
    app=st.sampled_from(["pagerank", "sssp", "wcc", "spmv", "mis", "reach-or"]),
)
@settings(max_examples=25, deadline=None)
def test_plan_matches_ufunc_at_on_random_graphs(seed, mode, layout, batch, app):
    graph = random_temporal_graph(num_vertices=16, num_events=80, seed=seed)
    series = graph.series(graph.evenly_spaced_times(6))
    _assert_kernels_agree(series, app, mode, layout, batch)


#: Message values every fold must survive: NaN is truthy, ``-0.0`` falsy.
_HOSTILE = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 5e-324])

#: Logical gathers fold as max / min over truth values (see kernels).
_ORACLE_TRUTH_FOLDS = {np.logical_or: np.maximum, np.logical_and: np.minimum}


def oracle_fold(acc_flat, ufunc, dst_flat, msg, sel=None, src=None):
    """:func:`repro.engine.kernels.fold_stream` as NumPy's sequential
    ``ufunc.at`` — the engine's fold before the native loop replaced it.

    ``ufunc.at`` applies its entries one at a time in order, each with the
    ufunc's scalar rule: ``(a < m || isnan(a)) ? a : m`` for minimum (a tie
    takes the message, so ``min(0.0, -0.0)`` is ``-0.0``), the mirror for
    maximum, and ``a + m`` with the accumulator's NaN payload winning.
    """
    truth = _ORACLE_TRUTH_FOLDS.get(ufunc)
    if truth is not None:
        ufunc, msg = truth, (msg != 0).astype(np.float64)
    pick = slice(None) if sel is None else sel
    if src is not None:
        msg = msg[src[pick]]
    ufunc.at(acc_flat, dst_flat[pick], msg)


def _random_in_edges(rng, num_vertices, num_edges, num_snapshots):
    """Distinct random edges in ``(dst, src)`` order + live bitmaps."""
    pairs = np.sort(
        rng.choice(
            num_vertices * num_vertices,
            size=min(num_edges, num_vertices * num_vertices),
            replace=False,
        )
    )
    dst, src = np.divmod(pairs.astype(np.int64), num_vertices)
    bitmap = rng.integers(
        0, 1 << num_snapshots, size=pairs.shape[0], dtype=np.uint64
    )
    return src, dst, bitmap


def _stream_triples(plan):
    """``(dst, src, snapshot)`` per stream entry, decoded from the plan's
    own index arrays (the only thing the fold and the gathers read)."""
    V, S = plan.num_vertices, plan.num_snapshots
    src, snap = np.divmod(plan.src_flat_c, S)
    if plan.layout is LayoutKind.TIME_LOCALITY:
        dst, dsnap = np.divmod(plan.dst_flat, S)
        src_phys = src * S + snap
    else:
        dsnap, dst = np.divmod(plan.dst_flat, V)
        src_phys = snap * V + src
    assert np.array_equal(dsnap, snap) and np.array_equal(plan.snap_ids, snap)
    assert np.array_equal(plan.src_flat, src_phys)
    return dst, src, snap


def _physical(layout, logical):
    """A ``(V, S)`` array's flat physical-order copy."""
    phys = logical if layout is LayoutKind.TIME_LOCALITY else logical.T
    return phys.reshape(-1).copy()  # never a view of ``logical``


SELECTIONS = ["none", "stationary", "mask", "csr"]


def _check_fold_against_per_edge_loop(
    seed, num_edges, num_vertices, num_snapshots, kind, layout, selection,
    hostile=0.3,
):
    """Select + fold, for every gather ufunc, vs the sequential fold spelled
    out as a pure-Python per-edge loop (edges in ``(dst, src)`` order,
    snapshots ascending) over hostile float messages; twice on one
    accumulator: identity-initialised, then persisting."""
    rng = np.random.default_rng(seed)
    V, S = num_vertices, num_snapshots
    src, dst, bitmap = _random_in_edges(rng, V, num_edges, S)
    plan = GatherPlan(src, dst, bitmap, V, S, layout=layout)
    e_dst, e_src, e_snap = _stream_triples(plan)

    acc = np.full((V, S), kind.identity, dtype=np.float64)  # the oracle's
    acc_flat = _physical(layout, acc)  # the plan's, physical order
    touched = np.zeros((V, S), dtype=bool)
    for _round in range(2):
        msgs = np.where(
            rng.random((V, V, S)) < hostile,
            rng.choice(_HOSTILE, size=(V, V, S)),
            # magnitudes far apart: a sum in the wrong order rounds apart
            rng.normal(size=(V, V, S)) * 10.0 ** rng.integers(-8, 9, (V, V, S)),
        )  # message of pair (src, dst, snapshot)
        snap_active = rng.random(S) < 0.7
        active = rng.random((V, S)) < 0.4
        if selection == "none":
            sel, chosen = None, np.ones((V, S), dtype=bool)
        elif selection == "stationary":
            sel = plan.select_stationary(snap_active, 0, plan.length)
            chosen = np.broadcast_to(snap_active, (V, S))
        else:
            factor = 0 if selection == "csr" else 10**9
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "_CSR_SELECT_FACTOR", factor)
                sel = plan.select_monotone(active, snap_active, 0, plan.length)
            chosen = active & snap_active[None, :]
        pick = slice(None) if sel is None else sel
        msg = msgs[e_src[pick], e_dst[pick], e_snap[pick]]
        with np.errstate(invalid="ignore"):
            n = plan.fold(acc_flat, kind.ufunc, msg, sel, 0, plan.length)
            expected = 0
            for u, d, bits in zip(src.tolist(), dst.tolist(), bitmap.tolist()):
                for k in range(S):
                    if (bits >> k) & 1 and chosen[u, k]:
                        acc[d, k] = kind.ufunc(acc[d, k], msgs[u, d, k])
                        touched[d, k] = True
                        expected += 1
        assert n == expected
        assert acc_flat.tobytes() == _physical(layout, acc).tobytes()
    untouched = _physical(layout, ~touched)
    assert (
        acc_flat[untouched].tobytes()
        == np.full(int(untouched.sum()), kind.identity).tobytes()
    )


@given(
    seed=st.integers(0, 10_000),
    num_edges=st.integers(0, 60),
    num_vertices=st.integers(1, 12),
    num_snapshots=st.integers(1, 7),
    kind=st.sampled_from(list(GatherKind)),
    layout=st.sampled_from(LAYOUTS),
    selection=st.sampled_from(SELECTIONS),
)
@settings(max_examples=100, deadline=None)
def test_fold_matches_per_edge_loop_on_random_streams(
    seed, num_edges, num_vertices, num_snapshots, kind, layout, selection
):
    _check_fold_against_per_edge_loop(
        seed, num_edges, num_vertices, num_snapshots, kind, layout, selection
    )


_NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(np.float64)
#: Floats the fold must carry bit for bit: both NaN signs, a NaN payload,
#: both infinities, both zeros, a subnormal — and anything else.
_FOLD_FLOATS = st.one_of(
    st.sampled_from(
        [float(v) for v in _HOSTILE]
        + [float(np.copysign(np.nan, -1.0)), float(_NAN_PAYLOAD[0])]
    ),
    st.floats(),
)


def _hostile_example(kind, acc, msg):
    return example(
        kind=kind, use_sel=False, use_src=False, acc=acc, msg=msg, seed=0
    )


@given(
    kind=st.sampled_from(list(GatherKind)),
    use_sel=st.booleans(),
    use_src=st.booleans(),
    acc=st.lists(_FOLD_FLOATS, min_size=1, max_size=6),
    msg=st.lists(_FOLD_FLOATS, min_size=1, max_size=30),
    seed=st.integers(0, 2**32 - 1),
)
@_hostile_example(GatherKind.MIN, [0.0], [-0.0])  # a tie takes the message
@_hostile_example(GatherKind.MAX, [0.0], [-0.0])
@_hostile_example(GatherKind.MIN, [np.nan], [1.0])  # NaN in the accumulator
@_hostile_example(GatherKind.MAX, [np.nan], [1.0])
@_hostile_example(GatherKind.MIN, [1.0], [np.nan])  # NaN in the message
@_hostile_example(GatherKind.MAX, [1.0], [np.nan])
@_hostile_example(GatherKind.MIN, [np.inf, -np.inf], [-np.inf, np.inf, np.inf])
@_hostile_example(GatherKind.MAX, [np.inf, -np.inf], [-np.inf, np.inf, -np.inf])
# Two NaNs: the sum keeps the accumulator's sign and payload.
@_hostile_example(GatherKind.SUM, [float(np.copysign(np.nan, -1.0))], [np.nan])
@settings(max_examples=300, deadline=None)
def test_fold_matches_ufunc_at_on_random_streams(
    kind, use_sel, use_src, acc, msg, seed
):
    """The native fold vs :func:`oracle_fold` in all four index forms:
    entries all or ``sel`` (any order), messages per entry or gathered per
    cell through ``src``."""
    rng = np.random.default_rng(seed)
    messages = np.array(msg, dtype=np.float64)
    if use_src:
        length = int(rng.integers(0, 40))
        src = rng.integers(0, messages.shape[0], length)
        folded = int(rng.integers(0, length + 1)) if use_sel else length
    else:
        length = messages.shape[0] + (int(rng.integers(0, 10)) if use_sel else 0)
        src, folded = None, messages.shape[0]
    dst = rng.integers(0, len(acc), length)
    sel = rng.permutation(length)[:folded] if use_sel else None
    got = np.array(acc, dtype=np.float64)
    want = got.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        count = kernels.fold_stream(got, kind.ufunc, dst, messages, sel, src)
        oracle_fold(want, kind.ufunc, dst, messages, sel, src)
    assert count == folded
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [GatherKind.MIN, GatherKind.MAX])
def test_min_max_tie_on_signed_zero_takes_the_message(kind):
    acc = np.zeros(1)
    kernels.fold_stream(acc, kind.ufunc, np.zeros(1, dtype=np.intp), np.array([-0.0]))
    assert acc.tobytes() == np.array([-0.0]).tobytes()


@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("kind", list(GatherKind))
def test_fold_matches_per_edge_loop_on_a_complete_graph(kind, layout, selection):
    """Every cell gets many contributions, few of them NaN / inf (which
    would saturate it): per-cell application order is what is tested."""
    _check_fold_against_per_edge_loop(
        11, 81, 9, 4, kind, layout, selection, hostile=0.01
    )


@given(
    seed=st.integers(0, 10_000),
    num_edges=st.integers(0, 60),
    num_vertices=st.integers(1, 12),
    num_snapshots=st.integers(1, 7),
    layout=st.sampled_from(LAYOUTS),
)
@settings(max_examples=40, deadline=None)
def test_plan_stream_is_dst_src_snapshot_ordered(
    seed, num_edges, num_vertices, num_snapshots, layout
):
    rng = np.random.default_rng(seed)
    src, dst, bitmap = _random_in_edges(
        rng, num_vertices, num_edges, num_snapshots
    )
    plan = GatherPlan(src, dst, bitmap, num_vertices, num_snapshots, layout=layout)
    expected = [
        (d, u, k)
        for u, d, bits in zip(src.tolist(), dst.tolist(), bitmap.tolist())
        for k in range(num_snapshots)
        if (bits >> k) & 1
    ]
    assert list(zip(*(a.tolist() for a in _stream_triples(plan)))) == expected
    assert expected == sorted(expected)
    assert np.all(np.diff(plan.dst_vertices()) >= 0)
    assert plan.snap_entry_counts.tolist() == np.bincount(
        [k for _, _, k in expected], minlength=num_snapshots
    ).tolist()


@given(seed=st.integers(0, 10_000), symmetric=st.booleans())
@settings(max_examples=25, deadline=None)
def test_in_edge_array_is_the_stable_destination_sort_of_out(seed, symmetric):
    """What the no-sort plan rests on: ``in_*`` is ``out_*`` stably sorted
    by destination, for the series and for every group view of it."""
    graph = random_temporal_graph(
        num_vertices=14, num_events=120, seed=seed, symmetric=symmetric
    )
    series = graph.series(graph.evenly_spaced_times(7))
    for view in (series, series.group(0, 7), series.group(2, 5), series.group(6, 7)):
        order = np.argsort(view.out_dst, kind="stable")
        assert np.array_equal(view.in_dst, view.out_dst[order])
        assert np.array_equal(view.in_src, view.out_src[order])
        assert np.array_equal(view.in_bitmap, view.out_bitmap[order])
        assert (view.in_weight is None) == (view.out_weight is None)
        if view.in_weight is not None:
            assert np.array_equal(view.in_weight, view.out_weight[order])


def test_one_plan_per_group_and_layout_serves_both_directions():
    graph = random_temporal_graph(num_vertices=20, num_events=150, seed=3)
    group = graph.series(graph.evenly_spaced_times(6)).group(0, 6)
    for layout in LAYOUTS:
        assert kernels.plan_for(group, "out", layout) is kernels.plan_for(
            group, "in", layout
        )
    assert kernels.plan_for(group, "out", LAYOUTS[0]) is not kernels.plan_for(
        group, "out", LAYOUTS[1]
    )


def test_plan_bytes_per_live_cell():
    """Stream-length arrays a plan holds — an exact count: flat destination
    and source indices (8 + 8 B), snapshot ids (1 B), and, once a monotone
    program has run, the per-source CSR's positions (8 B)."""
    from repro.datasets import wiki_like

    graph = wiki_like(300, 4000, seed=1)
    group = graph.series(graph.evenly_spaced_times(8)).group(0, 8)
    plan = kernels.plan_for(group, "in", LayoutKind.TIME_LOCALITY)
    plan.select_monotone(
        np.ones((group.num_vertices, 8), dtype=bool),
        np.ones(8, dtype=bool),
        0,
        plan.length,
    )

    def stream_bytes():
        arrays = {}
        for value in vars(plan).values():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray) and a.shape == (plan.length,):
                    arrays[id(a)] = a.nbytes
        return sum(arrays.values())

    assert plan.length > group.num_edges  # a real stream, not a toy
    assert plan.weight_stream is None and plan.src_flat_c is plan.src_flat
    assert stream_bytes() == 25 * plan.length
    assert stream_bytes() <= 32 * plan.length


@pytest.mark.parametrize("factor", [0, 10**9])
def test_monotone_selection_branches_agree(monkeypatch, factor):
    """Both frontier-selection strategies (full mask vs per-source CSR)
    produce identical results; the factor only moves the crossover."""
    graph = random_temporal_graph(num_vertices=25, num_events=200, seed=5)
    series = graph.series(graph.evenly_spaced_times(8))
    baseline = run(
        series, _program("sssp"), EngineConfig(mode=Mode.PUSH, trace=True)
    )
    monkeypatch.setattr(kernels, "_CSR_SELECT_FACTOR", factor)
    got = run(series, _program("sssp"), EngineConfig(mode=Mode.PUSH))
    assert_matches_traced(got, baseline)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_ranged_selection_and_fold_equal_the_whole_stream(monkeypatch, layout):
    """Cut into 1-4 destination-vertex ranges, selection and fold are the
    whole-stream ones: per-range selections are the range's mask as a set
    and keep each cell's entries in stream order, and folding every range
    writes the whole-stream fold's bytes with the same update count — for
    frontiers on both sides of the CSR-versus-mask threshold, and a dense
    frontier forced through the CSR path (its candidates fill every range
    up to both ends)."""
    graph = random_temporal_graph(
        num_vertices=60, num_events=700, seed=23, weighted=True
    )
    group = graph.series(graph.evenly_spaced_times(8)).group(0, 8)
    plan = kernels.plan_for(group, "in", layout)
    V, S = group.num_vertices, group.num_snapshots
    rng = np.random.default_rng(23)
    entry_msg = rng.normal(size=plan.length) * 10.0 ** rng.integers(-8, 9, plan.length)
    cell_msg = rng.normal(size=V * S) * 10.0 ** rng.integers(-8, 9, V * S)
    ptr, _ = plan._source_csr
    snap_active = np.ones(S, dtype=bool)
    snap_active[3] = False
    csr_chosen = set()  # (whole stream?, CSR path?) per selection
    for rows, factor in ((2, None), (V, None), (V, 0)):
        if factor is not None:
            monkeypatch.setattr(kernels, "_CSR_SELECT_FACTOR", factor)
        active = np.zeros((V, S), dtype=bool)
        active[rng.choice(V, rows, replace=False)] = rng.random((rows, S)) < 0.6
        frontier = np.flatnonzero((active & snap_active).any(axis=1))
        candidates = int((ptr[frontier + 1] - ptr[frontier]).sum())
        live = (active & snap_active).reshape(-1)
        whole = plan.select_monotone(active, snap_active, 0, plan.length)
        stationary = plan.select_stationary(snap_active, 0, plan.length)
        folds = {}
        for per_cell in (False, True):
            acc = np.zeros(V * S, dtype=np.float64)
            msg = cell_msg if per_cell else entry_msg[whole]
            count = plan.fold(acc, np.add, msg, whole, 0, plan.length, per_cell)
            folds[per_cell] = (acc, count)
        for workers in range(1, 5):
            bounds = shard_boundaries(plan.dst_vertices(), workers)
            got = {per_cell: np.zeros(V * S, dtype=np.float64) for per_cell in folds}
            counts = dict.fromkeys(folds, 0)
            for w in range(workers):
                lo, hi = int(bounds[w]), int(bounds[w + 1])
                csr_chosen.add(
                    (workers == 1, candidates * kernels._CSR_SELECT_FACTOR < hi - lo)
                )
                sel = plan.select_monotone(active, snap_active, lo, hi)
                assert np.array_equal(
                    np.sort(sel), np.flatnonzero(live[plan.src_flat_c[lo:hi]])
                )
                cells = plan.dst_flat[lo:hi][sel]
                by_cell = np.argsort(cells, kind="stable")
                steps = np.diff(sel[by_cell])
                assert np.all((steps > 0) | (np.diff(cells[by_cell]) != 0))
                in_range = stationary[(stationary >= lo) & (stationary < hi)] - lo
                assert np.array_equal(
                    plan.select_stationary(snap_active, lo, hi), in_range
                )
                for per_cell in folds:
                    msg = cell_msg if per_cell else entry_msg[lo:hi][sel]
                    counts[per_cell] += plan.fold(
                        got[per_cell], np.add, msg, sel, lo, hi, per_cell
                    )
            for per_cell, (acc, count) in folds.items():
                assert got[per_cell].tobytes() == acc.tobytes()
                assert counts[per_cell] == count
    # Both paths ran, over the whole stream and over proper ranges.
    assert csr_chosen == {(True, True), (True, False), (False, True), (False, False)}


def test_push_counts_dirty_checks_when_frontier_has_no_out_edges():
    """Push scans its own O(|V|) dirty bits every iteration — also the last
    one of a monotone run, whose frontier is all sinks and scatters nothing."""
    builder = TemporalGraphBuilder()
    for leaf in (1, 2):
        builder.add_edge(0, leaf, leaf)  # a star: both leaves are sinks
    series = builder.build().series([2, 3])
    program = make_program("sssp", source=0)
    got = run(series, program, EngineConfig(mode=Mode.PUSH))
    traced = run(series, program, EngineConfig(mode=Mode.PUSH, trace=True))
    assert_matches_traced(got, traced)
    V, S = series.num_vertices, series.num_snapshots
    assert got.counters.dirty_checks == got.counters.iterations * V * S
