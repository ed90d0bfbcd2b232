"""Ablation: the LABS locality claim measured on the raw address trace.

Records the line-level address trace of the baseline and of LABS and
compares total line traffic and exact LRU miss counts (stack model) at
several cache sizes — the layout/scheduling claim of Figures 1 and 2,
independent of any particular cache geometry.
"""

from repro.algorithms import PageRank
from repro.bench import report_table
from repro.bench.harness import SIM, small_series
from repro.engine import EngineConfig
from repro.engine.runner import run_group
from repro.layout.address_space import AddressSpace
from repro.memsim.reuse import lru_miss_ratio, record_trace

CACHE_SIZES = (32, 128, 512)


def trace_run(series, batch, layout):
    cfg = EngineConfig(
        mode="push", batch_size=batch, layout=layout, max_iterations=1
    )
    hier = SIM.machine()
    recorder = record_trace(hier)
    space = AddressSpace()
    size = cfg.effective_batch_size(series.num_snapshots)
    for group in series.groups(size):
        run_group(
            group,
            PageRank(iterations=1),
            cfg,
            sim=SIM,
            hierarchy=hier,
            address_space=space,
        )
    return recorder.lines


def measure():
    series = small_series("wiki", "pagerank", snapshots=16)
    rows = []
    for name, batch, layout in (
        ("baseline (batch 1, structure)", 1, "structure"),
        ("LABS (batch 16, time)", None, "time"),
    ):
        lines = trace_run(series, batch, layout)
        misses = [
            int(lru_miss_ratio(lines, w) * len(lines)) for w in CACHE_SIZES
        ]
        rows.append((name, len(lines), *misses))
    return rows


def test_reuse_distance(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report_table(
        "Ablation - address-trace line traffic and exact LRU misses "
        "(PageRank on wiki, 1 iteration)",
        ["configuration", "line accesses"]
        + [f"LRU misses @{w} lines" for w in CACHE_SIZES],
        rows,
        notes=(
            "LABS performs the same logical work with fewer line touches "
            "and fewer misses at every cache size — the locality claim of "
            "the paper's Figures 1-2, independent of cache geometry."
        ),
    )
    base, labs = rows
    assert labs[1] < base[1], "LABS must touch fewer lines"
    for i in range(2, 2 + len(CACHE_SIZES)):
        assert labs[i] < base[i], "LABS must miss less at every cache size"
