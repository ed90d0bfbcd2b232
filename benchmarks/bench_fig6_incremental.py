"""Figure 6: LABS-enhanced vs standard incremental computation.

Paper: WCC and SSSP on Wiki, push mode, 128 snapshots ~2 days apart;
y-axis is the improvement (%) of LABS-incremental over the standard
snapshot-by-snapshot incremental approach, for batch sizes {1,4,8,16,32}.
Expected shape: positive improvement that first grows with the batching
effect, then shrinks for very large batches as later snapshots drift from
the seed and duplicate computation.

Reproduction: 64 closely-spaced snapshots (one series view holds at most
64) on the insert-only wiki analogue; improvement measured in simulated
time.
"""

import pytest

from repro.bench import report_table
from repro.bench.harness import SIM, small_graphs
from repro.algorithms import SingleSourceShortestPath, WeaklyConnectedComponents
from repro.datasets import symmetrized
from repro.engine import EngineConfig, incremental_labs

BATCHES = (1, 4, 8, 16, 32)


def dense_series(app):
    graph = small_graphs()["wiki"]
    if app == "wcc":
        graph = symmetrized(graph)
    t0, t1 = graph.time_range
    # 64 closely-spaced snapshots over the last 30% of the history —
    # the paper's "two adjacent snapshots separated more than 2 days
    # apart" regime where consecutive snapshots are similar.
    times = sorted(
        {int(t1 - (t1 - t0) * 0.3 * (63 - i) / 63) for i in range(64)}
    )
    return graph.series(times)


def measure(app, activation="all"):
    series = dense_series(app)
    prog = (
        WeaklyConnectedComponents()
        if app == "wcc"
        else SingleSourceShortestPath(0)
    )
    cfg = EngineConfig(mode="push")
    seconds = {}
    for batch in BATCHES:
        res = incremental_labs(
            series, prog, cfg, batch=batch, activation=activation, sim=SIM
        )
        seconds[batch] = res.sim_seconds
    standard = seconds[1]
    return [
        (batch, round(100.0 * (standard - seconds[batch]) / standard, 1))
        for batch in BATCHES
    ]


@pytest.mark.parametrize("app", ["wcc", "sssp"])
def test_fig6(benchmark, app):
    rows = benchmark.pedantic(lambda: measure(app), rounds=1, iterations=1)
    report_table(
        f"Fig 6 - incremental LABS vs standard incremental, {app} on wiki "
        "(improvement %)",
        ["batch", "improvement %"],
        rows,
        notes=(
            "Paper shape: positive everywhere, rising with the batching "
            "effect, declining at large batch sizes (duplicated incremental "
            "work); peak > 60% for WCC."
        ),
    )
    by_batch = dict(rows)
    assert by_batch[4] > 0.0, "LABS-incremental must beat standard"
    # The gain saturates (or declines) past the mid batch sizes — it must
    # not keep growing strongly at batch 32 (the duplicated-work effect).
    assert by_batch[32] <= max(by_batch[8], by_batch[16]) + 5.0


def test_fig6_activation_ablation(benchmark):
    """Beyond the paper: delta-targeted ('tense') activation removes the
    full first scatter pass that LABS amortises, so it narrows the gap the
    paper measured — the two strategies bracket the design space."""
    rows = benchmark.pedantic(
        lambda: measure("sssp", activation="tense"), rounds=1, iterations=1
    )
    report_table(
        "Ablation - incremental activation strategy (sssp on wiki, "
        "tense-source targeting, improvement % vs its own batch-1)",
        ["batch", "improvement %"],
        rows,
        notes=(
            "With delta-targeted activation both variants skip the full "
            "re-scatter, leaving LABS little fixed cost to amortise; the "
            "paper-style warm start (test_fig6) is where batching pays."
        ),
    )
    assert len(rows) == len(BATCHES)
