"""Unit tests for the temporal graph builder."""

import pytest

from repro.errors import TemporalGraphError
from repro.temporal import ActivityKind, TemporalGraphBuilder


class TestStrictMode:
    def test_duplicate_add_rejected(self):
        b = TemporalGraphBuilder()
        b.add_edge(0, 1, 1)
        with pytest.raises(TemporalGraphError):
            b.add_edge(0, 1, 2)

    def test_delete_missing_edge_rejected(self):
        b = TemporalGraphBuilder()
        with pytest.raises(TemporalGraphError):
            b.del_edge(0, 1, 1)

    def test_mod_missing_edge_rejected(self):
        b = TemporalGraphBuilder()
        with pytest.raises(TemporalGraphError):
            b.mod_edge(0, 1, 1, 2.0)

    def test_time_must_not_decrease(self):
        b = TemporalGraphBuilder()
        b.add_edge(0, 1, 5)
        with pytest.raises(TemporalGraphError):
            b.add_edge(1, 2, 4)

    def test_re_add_after_delete_ok(self):
        b = TemporalGraphBuilder()
        b.add_edge(0, 1, 1).del_edge(0, 1, 2).add_edge(0, 1, 3)
        assert len(b) == 3

    def test_duplicate_vertex_add_rejected(self):
        b = TemporalGraphBuilder()
        b.add_vertex(0, 1)
        with pytest.raises(TemporalGraphError):
            b.add_vertex(0, 2)

    def test_delete_dead_vertex_rejected(self):
        b = TemporalGraphBuilder()
        with pytest.raises(TemporalGraphError):
            b.del_vertex(0, 1)


class TestNonStrictMode:
    def test_duplicate_add_becomes_mod(self):
        b = TemporalGraphBuilder(strict=False)
        b.add_edge(0, 1, 1, weight=1.0)
        b.add_edge(0, 1, 2, weight=4.0)
        g = b.build()
        kinds = [a.kind for a in g.activities]
        assert kinds == [ActivityKind.ADD_EDGE, ActivityKind.MOD_EDGE]
        assert g.edge_state_at(0, 1, 3) == 4.0

    def test_delete_missing_edge_is_noop(self):
        b = TemporalGraphBuilder(strict=False)
        b.del_edge(0, 1, 1)
        assert len(b) == 0

    def test_mod_missing_edge_is_noop(self):
        b = TemporalGraphBuilder(strict=False)
        b.mod_edge(0, 1, 1, 2.0)
        assert len(b) == 0


class TestBuild:
    def test_num_vertices_inferred(self):
        g = TemporalGraphBuilder().add_edge(3, 9, 1).build()
        assert g.num_vertices == 10

    def test_num_vertices_explicit(self):
        g = TemporalGraphBuilder().add_edge(0, 1, 1).build(num_vertices=100)
        assert g.num_vertices == 100

    def test_num_vertices_too_small_rejected(self):
        b = TemporalGraphBuilder().add_edge(0, 5, 1)
        with pytest.raises(TemporalGraphError):
            b.build(num_vertices=3)

    def test_append_dispatch(self):
        from repro.temporal import add_edge, del_edge

        b = TemporalGraphBuilder()
        b.append(add_edge(0, 1, 1)).append(del_edge(0, 1, 2))
        g = b.build()
        assert g.num_activities == 2
        assert not g.edge_live_at(0, 1, 3)


class TestAppend:
    def test_keeps_the_callers_record(self):
        from repro.temporal import add_edge, add_vertex, del_edge, mod_edge

        records = [
            add_vertex(2, 1),
            add_edge(0, 1, 1, 3.0),
            mod_edge(0, 1, 2, 4.0),
            del_edge(0, 1, 3),
        ]
        b = TemporalGraphBuilder()
        for record in records:
            b.append(record)
        assert list(b.build().activities) == records

    def test_non_strict_rewrites_and_drops_like_the_methods(self):
        from repro.temporal import add_edge, del_edge, mod_edge

        b = TemporalGraphBuilder(strict=False)
        b.append(del_edge(0, 1, 1)).append(mod_edge(0, 1, 1, 2.0))  # dropped
        b.append(add_edge(0, 1, 2, 3.0)).append(add_edge(0, 1, 3, 5.0))
        assert b.last_time == 3
        assert b.build().activities == (add_edge(0, 1, 2, 3.0), mod_edge(0, 1, 3, 5.0))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda b: b.add_edge(0, 1, 1).add_edge(0, 1, 2), r"edge \(0, 1\) already live at time 2"),
            (lambda b: b.del_edge(0, 1, 4), r"edge \(0, 1\) not live at time 4"),
            (lambda b: b.mod_edge(0, 1, 4, 2.0), r"edge \(0, 1\) not live at time 4"),
            (lambda b: b.add_vertex(3, 1).add_vertex(3, 2), "vertex 3 already live at time 2"),
            (lambda b: b.del_vertex(3, 2), "vertex 3 not live at time 2"),
            (lambda b: b.add_edge(0, 1, 5).add_edge(1, 2, 4), "activity at time 4 appended after time 5"),
        ],
    )
    def test_strict_error_messages(self, build, message):
        with pytest.raises(TemporalGraphError, match=message):
            build(TemporalGraphBuilder())

    def test_zero_weight_is_kept(self):
        from repro.temporal import add_edge

        b = TemporalGraphBuilder(strict=False)
        b.append(add_edge(0, 1, 1, 0.0)).append(add_edge(0, 1, 2, 0.0))
        assert [a.weight for a in b.build().activities] == [0.0, 0.0]

    def test_zero_weight_survives_the_streaming_head(self, tmp_path):
        """The head used to store ``weight or 1.0``: 0.0 read back as 1.0
        until a reopen replayed the WAL, which holds 0.0."""
        from repro.streaming import StreamingStore
        from repro.temporal import add_edge, mod_edge

        batch = [add_edge(0, 1, 1, 0.0), add_edge(1, 2, 1, 2.0), mod_edge(1, 2, 2, 0.0)]
        with StreamingStore(tmp_path) as store:
            store.append(batch)
            live = store.series([1, 2])
            fingerprint = store.fingerprint()
        assert live.out_weight.tolist() == [[0.0, 0.0], [2.0, 0.0]]
        with StreamingStore(tmp_path) as reopened:
            assert reopened.fingerprint() == fingerprint
            assert reopened.series([1, 2]).out_weight.tolist() == live.out_weight.tolist()
