"""Unit tests for the vertex programs' scatter/apply semantics."""

import numpy as np
import pytest

from repro.algorithms import (
    GatherKind,
    MaximalIndependentSet,
    PageRank,
    Semantics,
    SingleSourceShortestPath,
    SpMV,
    WeaklyConnectedComponents,
    make_program,
)
from repro import native
from repro.algorithms.mis import IN_SET, OUT_OF_SET
from repro.errors import EngineError


@pytest.fixture
def group(small_series):
    return small_series.group(0, 3)


class TestPageRank:
    def test_scatter_divides_by_degree(self):
        pr = PageRank()
        vals = np.array([[1.0, 2.0]])
        deg = np.array([[2.0, 0.0]])
        msg = pr.scatter(vals, None, deg)
        assert msg[0, 0] == 0.5
        assert msg[0, 1] == 0.0  # safe divide

    def test_scatter_requires_degrees(self):
        with pytest.raises(ValueError):
            PageRank().scatter(np.ones((1, 1)), None, None)

    def test_apply_formula(self, group):
        pr = PageRank(damping=0.85)
        acc = np.full((group.num_vertices, group.num_snapshots), 2.0)
        old = np.ones_like(acc)
        out = pr.apply(old, acc, group)
        np.testing.assert_allclose(out, 0.15 + 0.85 * 2.0)

    def test_initial_values_masked(self, group):
        vals = PageRank().initial_values(group)
        assert np.all(vals[group.vertex_exists] == 1.0)
        assert np.all(np.isnan(vals[~group.vertex_exists]))


class TestWcc:
    def test_initial_labels_are_ids(self, group):
        vals = WeaklyConnectedComponents().initial_values(group)
        live = np.argwhere(group.vertex_exists)
        for v, s in live[:20]:
            assert vals[v, s] == v

    def test_apply_is_min(self, group):
        wcc = WeaklyConnectedComponents()
        old = np.full((2, 1), 5.0)
        acc = np.array([[3.0], [9.0]])
        out = wcc.apply(old, acc, group)
        assert out[0, 0] == 3.0 and out[1, 0] == 5.0

    def test_semantics(self):
        wcc = WeaklyConnectedComponents()
        assert wcc.semantics is Semantics.MONOTONE
        assert wcc.gather is GatherKind.MIN
        assert not wcc.directed
        wcc.validate()


class TestSssp:
    def test_initial_source_zero(self, group):
        prog = SingleSourceShortestPath(source=0)
        vals = prog.initial_values(group)
        live0 = group.vertex_exists[0]
        assert np.all(vals[0, live0] == 0.0)
        other_live = group.vertex_exists.copy()
        other_live[0] = False
        assert np.all(np.isinf(vals[other_live]))

    def test_initial_active_is_source_only(self, group):
        prog = SingleSourceShortestPath(source=0)
        active = prog.initial_active(group)
        assert active[1:].sum() == 0

    def test_scatter_adds_weight(self):
        prog = SingleSourceShortestPath()
        msg = prog.scatter(np.array([2.0]), np.array([3.0]), None)
        assert msg[0] == 5.0
        msg = prog.scatter(np.array([2.0]), None, None)
        assert msg[0] == 3.0  # unweighted edges count 1


class TestMis:
    def test_priorities_distinct(self):
        pri = MaximalIndependentSet().priorities(10_000)
        assert len(np.unique(pri)) == 10_000
        assert np.all((pri > 0) & (pri < 1))

    def test_custom_priorities(self, group):
        pri = np.linspace(0.1, 0.9, group.num_vertices)
        prog = MaximalIndependentSet(priorities=pri)
        vals = prog.initial_values(group)
        live = np.argwhere(group.vertex_exists)
        v, s = live[0]
        assert vals[v, s] == pri[v]

    def test_apply_transitions(self, group):
        prog = MaximalIndependentSet()
        # vertex 0 undecided p=0.3, min neighbour 0.5 -> joins
        # vertex 1 undecided p=0.7, neighbour IN -> out
        # vertex 2 already IN stays
        old = np.array([[0.3], [0.7], [IN_SET]])
        acc = np.array([[0.5], [IN_SET], [0.1]])
        out = prog.apply(old, acc, group)
        assert out[0, 0] == IN_SET
        assert out[1, 0] == OUT_OF_SET
        assert out[2, 0] == IN_SET

    def test_isolated_vertex_joins(self, group):
        prog = MaximalIndependentSet()
        old = np.array([[0.4]])
        acc = np.array([[np.inf]])  # gather identity: no neighbours
        assert prog.apply(old, acc, group)[0, 0] == IN_SET

    def test_decode(self):
        prog = MaximalIndependentSet()
        vals = np.array([IN_SET, OUT_OF_SET, np.nan])
        decoded = prog.decode(vals)
        assert decoded[0] == 1.0 and decoded[1] == 0.0
        assert np.isnan(decoded[2])


class TestSpmv:
    def test_scatter_multiplies_weight(self):
        prog = SpMV()
        msg = prog.scatter(np.array([2.0]), np.array([3.0]), None)
        assert msg[0] == 6.0

    def test_apply_l1_normalises(self, group):
        prog = SpMV()
        acc = np.zeros((group.num_vertices, group.num_snapshots))
        live = np.argwhere(group.vertex_exists)
        v, s = live[0]
        acc[v, s] = 4.0
        out = prog.apply(acc.copy(), acc, group)
        assert out[v, s] == 1.0


class TestRegistry:
    def test_all_five_registered(self):
        for name in ("pagerank", "wcc", "sssp", "mis", "spmv"):
            prog = make_program(name)
            assert prog.name == name

    def test_kwargs_forwarded(self):
        prog = make_program("sssp", source=7)
        assert prog.source == 7

    def test_unknown_rejected(self):
        with pytest.raises(EngineError):
            make_program("bfs")


def settled_changes(prog, old, new):
    """Which of the one-snapshot cells ``old -> new`` the engine's settle
    pass marks changed under ``prog.tol``."""
    values = np.array(old, dtype=np.float64)[:, None]
    front = np.zeros(len(old), dtype=np.uint64)
    exists = np.ones(len(old), dtype=np.uint64)
    native.settle(values, np.array(new)[:, None], exists, 1, front, prog.tol, prog.name)
    return [bool(word) for word in front]


class TestChangedMask:
    def test_nan_never_changes(self):
        prog = WeaklyConnectedComponents()
        old = [np.nan, 1.0, np.inf]
        new = [np.nan, 0.5, np.inf]
        assert settled_changes(prog, old, new) == [False, True, False]

    def test_inf_to_finite_counts_with_tol(self):
        prog = PageRank(tol=1e-3)
        old = [np.inf, 1.0]
        new = [5.0, 1.0 + 1e-6]
        assert settled_changes(prog, old, new) == [True, False]
