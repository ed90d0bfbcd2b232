"""The statistics rules and the span arithmetic."""

import pytest

from sysbench.spans import (
    Recorder,
    geometric_mean,
    median,
    percentile,
    self_times,
    span_coverage,
)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(99)), 90) is None
    p90 = percentile(list(range(100)), 90)
    assert p90.value == 89 and p90.n == 100
    assert sum(1 for v in range(100) if v > p90.value) == 10
    # The median of 20 samples has ten beyond it; of 19, only nine.
    assert percentile(list(range(20)), 50).value == 9
    assert percentile(list(range(19)), 50) is None
    assert percentile([], 90) is None


def test_percentile_is_order_independent():
    values = [((i * 37) % 101) / 7.0 for i in range(120)]
    assert percentile(values, 90) == percentile(sorted(values), 90)


def test_median_carries_its_sample_count():
    assert median([3.0, 1.0, 2.0]).value == 2.0
    assert median([3.0, 1.0, 2.0]).n == 3
    assert median([]).value == 0.0 and median([]).n == 0


def test_geometric_mean():
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([]) == 0.0
    assert geometric_mean([1.0, 0.0]) == 0.0


def spans(*rows):
    return [
        {"id": i, "op": op, "parent": parent, "name": f"s{i}", "start": a, "end": b}
        for i, op, parent, a, b in rows
    ]


def test_self_time_is_duration_minus_direct_children():
    tree = spans(
        (0, 0, None, 0.0, 10.0),  # op
        (1, 0, 0, 1.0, 4.0),      # child: 3 s, one grandchild of 1 s
        (2, 0, 1, 2.0, 3.0),
        (3, 0, 0, 5.0, 9.0),      # child: 4 s
    )
    own = self_times(tree)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    # Self times partition the op: nothing is counted twice.
    assert sum(own.values()) == 10.0
    assert span_coverage(tree) == pytest.approx(0.7)


def test_span_coverage_weights_ops_by_wall_time():
    tree = spans(
        (0, 0, None, 0.0, 1.0), (1, 0, 0, 0.0, 1.0),  # fully covered, 1 s
        (2, 2, None, 1.0, 4.0), (3, 2, 2, 1.0, 2.5),  # half covered, 3 s
    )
    assert span_coverage(tree) == pytest.approx(2.5 / 4.0)
    assert span_coverage([]) == 0.0


def test_recorder_links_parents_and_ops():
    rec = Recorder(keep=True)
    with rec.span("query", kind="x") as op:
        with rec.span("storage.open"):
            pass
        with rec.span("engine.run") as run:
            with rec.span("inner"):
                pass
    with rec.span("query") as second:
        pass
    by_name = {s["name"]: s for s in rec.spans if s["op"] == op.id}
    assert by_name["query"]["parent"] is None and by_name["query"]["kind"] == "x"
    assert by_name["storage.open"]["parent"] == op.id
    assert by_name["inner"]["parent"] == run.id
    assert {s["op"] for s in rec.spans} == {op.id, second.id}
    assert all(s["end"] >= s["start"] for s in rec.spans)
    assert op.dur >= run.dur > 0.0


def test_recorder_measures_without_keeping():
    rec = Recorder(keep=False)
    with rec.span("query") as op:
        pass
    assert rec.spans == [] and op.dur > 0.0
