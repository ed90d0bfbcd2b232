"""Property tests: the edge-array walk is bit-identical to a per-edge fold.

The vectorised scatter (:mod:`repro.engine.kernels`) promises *bitwise*
identical values and *identical* logical counters versus the per-edge
push / pull / stream loops of :mod:`tests.scatter_oracle` — an
independent implementation of the same fold order — for every mode,
layout, gather kind, and semantics. The native walk is checked against a
pure-Python per-edge loop, against NumPy's sequential ``ufunc.at``
(:func:`~tests.plan_oracle.oracle_fold`) and against the gather plan it
replaced (:mod:`tests.plan_oracle`), dense and sparse, whole and in
destination ranges; and the walk's fold order against the property of the
series it rests on. These tests state that promise as properties over
random temporal graphs and random edge arrays.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import make_program
from repro.algorithms.program import GatherKind, Semantics, VertexProgram
from repro.engine import kernels
from repro.engine.config import EngineConfig, Mode
from repro.engine.kernels import frontier_words, snapshot_mask
from repro.engine.runner import run
from repro.layout.vertex_array import LayoutKind
from repro.parallel.shm import shard_boundaries
from repro.temporal.bitmap import popcounts
from repro.temporal.builder import TemporalGraphBuilder
from tests.conftest import assert_matches_oracle, random_temporal_graph
from tests.plan_oracle import GatherPlan, edge_message, oracle_scatter

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
    assert_matches_oracle(
        run(series, _program(app), cfg), series, _program(app), cfg,
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

#: Gather kinds a weighted program may use (logical gathers take none).
_WEIGHTED_KINDS = (GatherKind.SUM, GatherKind.MIN, GatherKind.MAX)


def _hostile(rng, shape, share):
    """Floats of ``shape``: a ``share`` of :data:`_HOSTILE` values, the rest
    of magnitudes far apart (a sum in the wrong order rounds apart)."""
    return np.where(
        rng.random(shape) < share,
        rng.choice(_HOSTILE, size=shape),
        rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape),
    )


def _edge_arrays(src, dst, bitmap, num_vertices, weight=None):
    """A group-shaped namespace over in-edges given in ``(dst, src)`` order:
    the in-edge arrays, the same edges as out-edges in ``(src, dst)``
    order, both CSR indices and (optionally) both weight matrices."""
    order = np.argsort(src, kind="stable")  # (dst, src) -> (src, dst)

    def index(keys):
        counts = np.bincount(keys, minlength=num_vertices)
        return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    return SimpleNamespace(
        in_src=src, in_dst=dst, in_bitmap=bitmap, in_index=index(dst),
        in_weight=weight,
        out_src=src[order], out_dst=dst[order], out_bitmap=bitmap[order],
        out_index=index(src),
        out_weight=None if weight is None else weight[order],
    )


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


def _strides(layout, num_vertices, num_snapshots):
    if layout is LayoutKind.TIME_LOCALITY:
        return (num_snapshots, 1)
    return (1, num_vertices)


def _walk(acc_flat, ufunc, msg, g, strides, num_snapshots, *, front=None,
          mask=0, sparse=False, ranges=1, edge_op=None):
    """The engine's walk over ``ranges`` destination ranges of ``g``: dense
    over each range's in-edges, or sparse over the frontier's out-edges
    kept inside each range; returns the pairs folded."""
    vertex_bounds = shard_boundaries(g.in_index, ranges)
    if sparse:
        edges, bounds = (g.out_bitmap, g.out_src, g.out_dst), vertex_bounds
        options = dict(rows=np.flatnonzero(front), index=g.out_index)
        weight = g.out_weight
    else:
        edges, bounds = (g.in_bitmap, g.in_src, g.in_dst), g.in_index[vertex_bounds]
        options, weight = {}, g.in_weight
    return sum(
        kernels.walk(
            acc_flat, ufunc, msg, edges, int(bounds[w]), int(bounds[w + 1]),
            strides, num_snapshots, front=front, mask=mask,
            weight=None if edge_op is None else weight, edge_op=edge_op,
            **options,
        )
        for w in range(ranges)
    )


def _physical(layout, logical):
    """A ``(V, S)`` array's flat physical-order copy."""
    phys = logical if layout is LayoutKind.TIME_LOCALITY else logical.T
    return phys.reshape(-1).copy()  # never a view of ``logical``


#: How the walk selects its pairs: every snapshot, the running snapshots,
#: a monotone frontier walked densely, and the same walked sparsely.
SELECTIONS = ["all", "stationary", "dense", "sparse"]


def _check_fold_against_per_edge_loop(
    seed, num_edges, num_vertices, num_snapshots, kind, layout, selection,
    hostile=0.3,
):
    """The walk, for every gather ufunc, vs the sequential fold spelled out
    as a pure-Python per-edge loop (edges in ``(dst, src)`` order,
    snapshots ascending) over hostile messages and weights, in 1-4
    destination ranges; twice on one accumulator: identity-initialised,
    then persisting."""
    rng = np.random.default_rng(seed)
    V, S = num_vertices, num_snapshots
    src, dst, bitmap = _random_in_edges(rng, V, num_edges, S)
    edge_op = None
    if kind in _WEIGHTED_KINDS:
        edge_op = [None, "add", "mul"][int(rng.integers(3))]
    weight = _hostile(rng, (src.shape[0], S), hostile)
    g = _edge_arrays(src, dst, bitmap, V, weight)
    strides = _strides(layout, V, S)

    acc = np.full((V, S), kind.identity, dtype=np.float64)  # the oracle's
    acc_flat = _physical(layout, acc)  # the walk's, physical order
    touched = np.zeros((V, S), dtype=bool)
    for _round in range(2):
        msgs = _hostile(rng, (V, S), hostile)  # message of cell (src, snapshot)
        snap_active = rng.random(S) < 0.7
        active = rng.random((V, S)) < 0.4
        front, mask = None, 0
        if selection == "all":
            snap_active[:] = True
        if selection in ("all", "stationary"):
            mask = snapshot_mask(snap_active)
            chosen = np.broadcast_to(snap_active, (V, S))
        else:
            front = frontier_words(active, snap_active)
            chosen = active & snap_active[None, :]
        with np.errstate(invalid="ignore", over="ignore"):
            n = _walk(
                acc_flat, kind.ufunc, _physical(layout, msgs), g, strides, S,
                front=front, mask=mask, sparse=selection == "sparse",
                ranges=int(rng.integers(1, 5)), edge_op=edge_op,
            )
            expected = 0
            for e, (u, d, bits) in enumerate(
                zip(src.tolist(), dst.tolist(), bitmap.tolist())
            ):
                for k in range(S):
                    if (bits >> k) & 1 and chosen[u, k]:
                        m = msgs[u, k]
                        if edge_op is not None:
                            m = edge_message(edge_op, m, weight[e, k])
                        acc[d, k] = kind.ufunc(acc[d, k], m)
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
        kind=kind, frontier=False, weighted=False, acc=acc, msg=msg, seed=0
    )


@given(
    kind=st.sampled_from(list(GatherKind)),
    frontier=st.booleans(),
    weighted=st.booleans(),
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
    kind, frontier, weighted, acc, msg, seed
):
    """The walk vs :func:`~tests.plan_oracle.oracle_fold` over the plan
    stream, on the complete graph of ``len(acc)`` vertices (every other
    edge live in every snapshot): accumulator cells from ``acc``, cell
    messages and edge weights from ``msg``; every snapshot or a frontier,
    walked densely or sparsely, in 1-4 ranges."""
    rng = np.random.default_rng(seed)
    V, S = len(acc), int(rng.integers(1, 4))
    dst, src = np.divmod(np.arange(V * V, dtype=np.int64), V)
    bitmap = rng.integers(0, 1 << S, size=V * V, dtype=np.uint64)
    bitmap[::2] = (1 << S) - 1
    edge_op = None
    weight = None
    if weighted and kind in _WEIGHTED_KINDS:
        edge_op = ["add", "mul"][int(rng.integers(2))]
        weight = np.resize(np.array(msg[::-1], dtype=np.float64), (V * V, S))
    g = _edge_arrays(src, dst, bitmap, V, weight)
    layout = LAYOUTS[seed % 2]
    cells = np.resize(np.array(acc, dtype=np.float64), V * S)
    messages = np.resize(np.array(msg, dtype=np.float64), V * S)
    active = rng.random((V, S)) < 0.5 if frontier else None
    snap_active = np.ones(S, dtype=bool)
    got, want = cells.copy(), cells.copy()
    plan = GatherPlan(src, dst, bitmap, V, S, weights=weight, layout=layout)
    with np.errstate(invalid="ignore", over="ignore"):
        count = _walk(
            got, kind.ufunc, messages, g, _strides(layout, V, S), S,
            front=None if active is None else frontier_words(active, snap_active),
            mask=snapshot_mask(snap_active),
            sparse=frontier and bool(rng.integers(2)),
            ranges=int(rng.integers(1, 5)), edge_op=edge_op,
        )
        folded = oracle_scatter(
            plan, want, kind.ufunc, messages, active, snap_active, edge_op
        )
    assert count == folded
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [GatherKind.MIN, GatherKind.MAX])
def test_min_max_tie_on_signed_zero_takes_the_message(kind):
    acc = np.zeros(1)
    loop = (np.ones(1, dtype=np.uint64), np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    kernels.walk(acc, kind.ufunc, np.array([-0.0]), loop, 0, 1, (1, 1), 1, mask=1)
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


@given(seed=st.integers(0, 10_000), layout=st.sampled_from(LAYOUTS))
@settings(max_examples=25, deadline=None)
def test_plan_stream_is_dst_src_snapshot_ordered(seed, layout):
    """The order the walk folds in — the in-edge array's, snapshots
    ascending — is the oracle stream's ``(dst, src, snapshot)`` order, and
    the walk folds each snapshot's live pairs exactly once."""
    graph = random_temporal_graph(num_vertices=14, num_events=120, seed=seed)
    group = graph.series(graph.evenly_spaced_times(7)).group(1, 6)
    V, S = group.num_vertices, group.num_snapshots
    plan = GatherPlan(
        group.in_src, group.in_dst, group.in_bitmap, V, S, layout=layout
    )
    expected = [
        (d, u, k)
        for u, d, bits in zip(
            group.in_src.tolist(), group.in_dst.tolist(), group.in_bitmap.tolist()
        )
        for k in range(S)
        if (bits >> k) & 1
    ]
    assert expected == sorted(expected)
    assert plan.dst_vertices().tolist() == [d for d, _, _ in expected]
    assert plan.snap_ids.tolist() == [k for _, _, k in expected]
    operands = kernels.plan_for(group, "in", layout)
    assert operands.snapshot_counts.tolist() == plan.snap_entry_counts.tolist()
    edges = (group.in_bitmap, group.in_src, group.in_dst)
    for k in range(S):
        acc = np.zeros(V * S)
        count = kernels.walk(
            acc, np.add, np.ones(V * S), edges, 0, group.num_edges,
            operands.strides, S, mask=1 << k,
        )
        assert count == plan.snap_entry_counts[k]


@given(seed=st.integers(0, 10_000), symmetric=st.booleans())
@settings(max_examples=25, deadline=None)
def test_in_edge_array_is_the_stable_destination_sort_of_out(seed, symmetric):
    """What the walk's fold order rests on: ``in_*`` is ``out_*`` stably
    sorted by destination, for the series and for every group view of it."""
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
    """The walk operands are the group's own arrays, the same for either
    direction; only the accumulator strides follow the layout."""
    graph = random_temporal_graph(num_vertices=20, num_events=150, seed=3)
    group = graph.series(graph.evenly_spaced_times(6)).group(0, 6)
    V, S = group.num_vertices, group.num_snapshots
    for layout in LAYOUTS:
        out, into = (kernels.plan_for(group, d, layout) for d in ("out", "in"))
        assert out.strides == into.strides == _strides(layout, V, S)
        assert out.weights is into.weights is group.in_weight
        assert out.degree_cells.tobytes() == into.degree_cells.tobytes()
        assert out.degree_cells.tobytes() == _physical(layout, group.out_degrees).tobytes()


def test_plan_bytes_per_live_cell():
    """A group holds no O(live cells) scatter structure: running every kind
    of program in both layouts adds nothing to the group view, and no array
    the group or its walk operands hold is as long as its live cells."""
    from repro.datasets import wiki_like

    graph = wiki_like(300, 4000, seed=1)
    series = graph.series(graph.evenly_spaced_times(8))
    group = series.group(0, 8)
    group.out_degrees  # (V, S) cells, memoised on first read
    held = dict(vars(group))
    operands = []
    for layout in LAYOUTS:
        for app in ("pagerank", "sssp"):
            run(series, _program(app), EngineConfig(batch_size=8, layout=layout))
        operands.append(kernels.plan_for(group, "in", layout))
        operands[-1].degree_cells, operands[-1].snapshot_counts
    assert vars(group).keys() == held.keys()
    assert all(vars(group)[name] is value for name, value in held.items())
    live = int(popcounts(group.in_bitmap).sum())
    V, S, E = group.num_vertices, group.num_snapshots, group.num_edges
    assert live > 2 * max(E, V * S)  # a real stream, not a toy
    for holder in (group, *operands):
        for value in vars(holder).values():
            if isinstance(value, np.ndarray):
                assert value.size <= max(E, V * S, V + 1), value.shape


@pytest.mark.parametrize("factor", [0, 10**9])
def test_monotone_selection_branches_agree(monkeypatch, factor):
    """Both frontier walks (sparse over the frontier's out-edges, dense over
    every in-edge) produce identical results; the factor only moves the
    crossover."""
    graph = random_temporal_graph(num_vertices=25, num_events=200, seed=5)
    series = graph.series(graph.evenly_spaced_times(8))
    cfg = EngineConfig(mode=Mode.PUSH)
    monkeypatch.setattr(kernels, "SPARSE_FRACTION", factor)
    got = run(series, _program("sssp"), cfg)
    assert_matches_oracle(got, series, _program("sssp"), cfg)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_ranged_selection_and_fold_equal_the_whole_stream(layout):
    """Cut into 1-4 destination ranges from ``in_index``, the dense and the
    sparse walk write the whole walk's bytes with the same update count,
    for per-cell and weighted messages and frontiers of 2 and of V rows;
    each range's in-edges are exactly its interval's."""
    graph = random_temporal_graph(
        num_vertices=60, num_events=700, seed=23, weighted=True
    )
    group = graph.series(graph.evenly_spaced_times(8)).group(0, 8)
    V, S = group.num_vertices, group.num_snapshots
    strides = _strides(layout, V, S)
    rng = np.random.default_rng(23)
    msg = _hostile(rng, V * S, 0.0)
    for rows in (2, V):
        active = np.zeros((V, S), dtype=bool)
        active[rng.choice(V, rows, replace=False)] = rng.random((rows, S)) < 0.6
        front = frontier_words(active, np.ones(S, dtype=bool))
        for sparse in (False, True):
            for edge_op in (None, "add"):
                results = set()
                for ranges in range(1, 5):
                    acc = np.zeros(V * S)
                    count = _walk(
                        acc, np.add, msg, group, strides, S, front=front,
                        sparse=sparse, ranges=ranges, edge_op=edge_op,
                    )
                    results.add((acc.tobytes(), count))
                assert len(results) == 1, (rows, sparse, edge_op)
    for ranges in range(1, 5):
        bounds = shard_boundaries(group.in_index, ranges)
        for w in range(ranges):
            lo, hi = group.in_index[bounds[w]], group.in_index[bounds[w + 1]]
            assert np.all((group.in_dst[lo:hi] >= bounds[w]) & (group.in_dst[lo:hi] < bounds[w + 1]))


def test_walk_equals_the_plan_oracle():
    """The walk against the gather plan it replaced, seeded: both layouts,
    batches 1, 7 and 64 (bit 63 and the all-ones mask), every gather kind,
    NaN / ±0.0 / ±inf messages and weights, every snapshot, some snapshots,
    and monotone frontiers on both sides of the sparse threshold, in 1-4
    ranges. Accumulator bytes and update counts equal the oracle's."""
    graph = random_temporal_graph(num_vertices=24, num_events=500, seed=36)
    series = graph.series(graph.evenly_spaced_times(64))
    rng = np.random.default_rng(36)
    seen = set()
    for batch in (1, 7, 64):
        group = series.group(64 - batch, 64)
        V, S, E = group.num_vertices, group.num_snapshots, group.num_edges
        # Hostile weights, read through the row stride of a wider matrix.
        wide = _hostile(rng, (E, S + 2), 0.3)
        g = _edge_arrays(group.in_src, group.in_dst, group.in_bitmap, V, wide[:, 1:-1])
        for layout in LAYOUTS:
            plan = GatherPlan(
                g.in_src, g.in_dst, g.in_bitmap, V, S,
                weights=g.in_weight, layout=layout,
            )
            for kind in GatherKind:
                ops = [None, "add", "mul"] if kind in _WEIGHTED_KINDS else [None]
                for case in ("all", "some", "few", "many"):
                    snap_active = np.ones(S, dtype=bool)
                    if case == "some":
                        snap_active = rng.random(S) < 0.5
                    active = None
                    if case in ("few", "many"):
                        rows = 1 if case == "few" else V
                        active = np.zeros((V, S), dtype=bool)
                        active[rng.choice(V, rows, replace=False)] = rng.random((rows, S)) < 0.7
                    front = None if active is None else frontier_words(active, snap_active)
                    sparse = False
                    if front is not None:
                        live = np.flatnonzero(front)
                        out_edges = int((g.out_index[live + 1] - g.out_index[live]).sum())
                        sparse = out_edges * kernels.SPARSE_FRACTION < E
                    seen.add((case, sparse))
                    edge_op = ops[int(rng.integers(len(ops)))]
                    msg = _hostile(rng, V * S, 0.3)
                    start = _hostile(rng, V * S, 0.1)
                    want = start.copy()
                    with np.errstate(invalid="ignore", over="ignore"):
                        folded = oracle_scatter(
                            plan, want, kind.ufunc, msg, active, snap_active, edge_op
                        )
                        got = start.copy()
                        count = _walk(
                            got, kind.ufunc, msg, g, _strides(layout, V, S), S,
                            front=front, mask=snapshot_mask(snap_active),
                            sparse=sparse, ranges=int(rng.integers(1, 5)),
                            edge_op=edge_op,
                        )
                    label = (batch, layout, kind, case, edge_op)
                    assert count == folded, label
                    assert got.tobytes() == want.tobytes(), label
    assert {("few", True), ("many", False)} <= seen


def test_push_counts_dirty_checks_when_frontier_has_no_out_edges():
    """Push scans its own O(|V|) dirty bits every iteration — also the last
    one of a monotone run, whose frontier is all sinks and scatters nothing."""
    builder = TemporalGraphBuilder()
    for leaf in (1, 2):
        builder.add_edge(0, leaf, leaf)  # a star: both leaves are sinks
    series = builder.build().series([2, 3])
    program = make_program("sssp", source=0)
    cfg = EngineConfig(mode=Mode.PUSH)
    got = run(series, program, cfg)
    assert_matches_oracle(got, series, program, cfg)
    V, S = series.num_vertices, series.num_snapshots
    assert got.counters.dirty_checks == got.counters.iterations * V * S
