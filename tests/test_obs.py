"""The observability layer: tracing, metrics, reports, and the
no-op-when-disabled contract.

The two contracts the engine's correctness story needs from this layer:

- **Executor parity**: serial and threaded runs emit identical *logical*
  event sequences (group/iteration spans with their args) — the trace is
  a function of the computation, not of the executor.
- **Provable no-op**: with observability disabled, results are bitwise
  identical to an observed run, ``repro.obs.span`` returns the shared
  NOOP singleton (no span allocation on the hot path), and no registry
  exists to mutate.
"""

import json

import pytest

from repro import obs
from repro.algorithms import make_program
from repro.datasets.generators import symmetrized, wiki_like
from repro.engine.config import EngineConfig
from repro.engine.runner import run
from repro.obs import (
    BASELINE_COUNTERS,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    logical_sequence,
    write_jsonl,
)
from repro.parallel.shm import shutdown_pool

REQUIRED_EVENT_KEYS = {
    "name", "cat", "ph", "ts", "dur", "pid", "tid", "depth", "args",
}


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    yield
    obs.disable()
    shutdown_pool()


def _series(app="pagerank", snapshots=8, seed=3):
    graph = wiki_like(num_vertices=200, num_activities=1500, seed=seed)
    if app == "wcc":
        graph = symmetrized(graph)
    return graph.series(graph.evenly_spaced_times(snapshots))


def _observed_run(app, config):
    series = _series(app)
    observation = obs.observe()
    try:
        result = run(series, make_program(app), config)
    finally:
        obs.disable()
    return result, observation


# ---------------------------------------------------------------------- #
# tracing: hierarchy, schema, exports


def test_trace_has_nested_run_group_iteration_phase_spans():
    _, ob = _observed_run("pagerank", EngineConfig(mode="push", batch_size=4))
    events = ob.tracer.events
    cats = {e["cat"] for e in events}
    assert {"run", "group", "iteration", "phase"} <= cats
    assert REQUIRED_EVENT_KEYS <= set(events[0])
    # Depths encode the hierarchy: run=0, group=1, iteration=2, phase>=3
    # (plan-prefetch phases sit directly under the group at depth 2).
    by_cat = {c: [e for e in events if e["cat"] == c] for c in cats}
    assert all(e["depth"] == 0 for e in by_cat["run"])
    assert all(e["depth"] == 1 for e in by_cat["group"])
    assert all(e["depth"] == 2 for e in by_cat["iteration"])
    assert all(e["depth"] >= 2 for e in by_cat["phase"])
    assert {e["name"] for e in by_cat["phase"]} >= {"plan", "scatter", "apply"}
    # Spans carry their structural args.
    assert all("start" in e["args"] for e in by_cat["group"])
    assert all(
        {"group", "index"} <= set(e["args"]) for e in by_cat["iteration"]
    )
    # Every span completed: durations filled in, depth back to zero.
    assert all(e["dur"] >= 0.0 for e in events)
    assert ob.tracer.depth == 0
    assert ob.tracer.duration("run") is not None


def test_jsonl_export_round_trips(tmp_path):
    _, ob = _observed_run("pagerank", EngineConfig(mode="push"))
    path = tmp_path / "events.jsonl"
    write_jsonl(ob.tracer.events, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(ob.tracer.events)
    for line in lines:
        event = json.loads(line)
        assert REQUIRED_EVENT_KEYS <= set(event)


def test_chrome_trace_is_valid_and_relative_microseconds():
    _, ob = _observed_run("pagerank", EngineConfig(mode="push"))
    doc = chrome_trace(ob.tracer.events, ob.tracer.threads)
    json.dumps(doc)  # must be JSON-serializable as-is
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert meta and meta[0]["name"] == "thread_name"
    assert spans and all(e["ts"] >= 0.0 and e["dur"] >= 0.0 for e in spans)
    run_spans = [e for e in spans if e["cat"] == "run"]
    assert len(run_spans) == 1


# ---------------------------------------------------------------------- #
# executor parity: the logical sequence is a function of the computation


@pytest.mark.parametrize("app", ["pagerank", "wcc"])
def test_serial_and_process_emit_identical_logical_sequences(app):
    config_serial = EngineConfig(mode="push", batch_size=4)
    config_process = EngineConfig(
        mode="push", batch_size=4, executor="process", workers=2
    )
    res_serial, ob_serial = _observed_run(app, config_serial)
    res_process, ob_process = _observed_run(app, config_process)
    assert res_serial.values.tobytes() == res_process.values.tobytes()
    seq_serial = logical_sequence(ob_serial.tracer.events)
    seq_process = logical_sequence(ob_process.tracer.events)
    assert seq_serial == seq_process
    assert seq_serial  # non-vacuous: groups and iterations were recorded


def test_threaded_run_records_on_the_calling_thread_only():
    # Worker threads record no spans: the tracer is single-threaded, and
    # the caller's scatter phase span covers the sharded fold.
    config = EngineConfig(
        mode="push", batch_size=4, executor="process", workers=2
    )
    _, ob = _observed_run("pagerank", config)
    assert {e["tid"] for e in ob.tracer.events} == {0}
    assert list(ob.tracer.threads.values()) == ["main"]
    assert "scatter" in ob.tracer.phase_seconds()
    assert ob.tracer.depth == 0


# ---------------------------------------------------------------------- #
# disabled path: bitwise identity and zero allocation/mutation


def test_disabled_run_is_bitwise_identical_and_mutation_free():
    series = _series("pagerank")
    program = make_program("pagerank")
    config = EngineConfig(mode="push", batch_size=4)

    assert obs.active() is None
    baseline = run(series, program, config)
    assert obs.active() is None  # the run installed nothing

    observation = obs.observe()
    try:
        observed = run(series, program, config)
    finally:
        obs.disable()

    assert baseline.values.tobytes() == observed.values.tobytes()
    assert baseline.counters == observed.counters
    # The observed run actually recorded something, so the comparison is
    # between a real trace and a real no-op — not two no-ops.
    assert observation.tracer.events


def test_disabled_span_is_the_shared_noop_singleton():
    obs.disable()
    assert obs.span("phase", "apply") is obs.NOOP
    assert obs.span("iteration", "iteration", {"i": 1}) is obs.NOOP
    # Metric writers are no-ops without a registry to mutate.
    obs.add("cache.hits")
    obs.gauge("x", 1.0)
    obs.event("phase", "marker")
    assert obs.active() is None


# ---------------------------------------------------------------------- #
# metrics registry


def test_registry_counters_gauges_histograms_and_diff():
    reg = MetricsRegistry()
    reg.inc("a")
    reg.inc("a", 2)
    reg.put("b", 10)
    reg.gauge("g", 3.5)
    reg.observe("h", 1.0)
    reg.observe("h", 5.0)
    snap = reg.snapshot()
    assert snap["counters"] == {"a": 3, "b": 10}
    assert snap["gauges"] == {"g": 3.5}
    assert snap["histograms"]["h"] == {
        "count": 2, "sum": 6.0, "min": 1.0, "max": 5.0,
    }
    reg.inc("a", 4)
    delta = MetricsRegistry.diff(snap, reg.snapshot())
    assert delta["counters"]["a"] == 4
    assert delta["counters"]["b"] == 0


def test_run_metrics_capture_caches_and_engine_counters():
    config = EngineConfig(
        mode="push", batch_size=4, executor="process", workers=2
    )
    result, ob = _observed_run("pagerank", config)
    counters = ob.registry.snapshot()["counters"]
    for name in BASELINE_COUNTERS:
        assert name in counters  # baselines always present
    assert not any(name.startswith("plan.") for name in counters)
    # Absorbed engine counters mirror the result's logical totals.
    assert counters["engine.iterations"] == result.counters.iterations
    assert (
        counters["engine.acc_updates"] == result.counters.acc_updates
    )


# ---------------------------------------------------------------------- #
# run reports


def test_run_report_shape_and_derived_rates():
    config = EngineConfig(mode="push", batch_size=4)
    series = _series("pagerank")
    observation = obs.observe()
    try:
        result = run(series, make_program("pagerank"), config)
        report = result.report()
    finally:
        obs.disable()
    json.dumps(report)  # JSON-ready end to end
    assert report["program"] == "pagerank"
    assert report["config"]["mode"] == "push"
    assert report["counters"]["iterations"] == result.counters.iterations
    assert report["storage"]["bytes_read"] == 0
    assert report["cache"]["stores"] == 0
    assert report["derived"] == {"cache_hit_rate": None}  # no cache in play
    assert report["phases_s"] and "apply" in report["phases_s"]
    assert report["wall_s"] is not None
    assert observation.tracer.events


def test_run_report_without_observability_still_works():
    series = _series("pagerank")
    result = run(series, make_program("pagerank"), EngineConfig(mode="push"))
    report = result.report()
    assert report["metrics"] is None
    assert report["phases_s"] is None
    assert report["counters"]["iterations"] == result.counters.iterations


def test_distributed_report_same_shape_with_network_figures():
    from repro.distributed.engine import run_distributed

    series = _series("pagerank", snapshots=4)
    observation = obs.observe()
    try:
        result = run_distributed(
            series, make_program("pagerank"), num_machines=2
        )
        report = result.report()
    finally:
        obs.disable()
    json.dumps(report)
    assert report["program"] == "pagerank"
    assert report["num_machines"] == 2
    assert report["messages"] == result.messages
    assert report["message_bytes"] == result.message_bytes
    # The simulation's message counters also flow through the registry.
    counters = observation.registry.snapshot()["counters"]
    assert counters["distributed.messages"] == result.messages
    assert counters["distributed.message_bytes"] == result.message_bytes
    # Same top-level shape as an engine run report.
    for key in ("counters", "metrics", "derived", "storage", "cache"):
        assert key in report


# ---------------------------------------------------------------------- #
# injected clocks: determinism of recorded timings


def test_injected_clock_makes_trace_timings_deterministic():
    ticks = {"n": 0}

    def fake_clock():
        ticks["n"] += 1
        return float(ticks["n"])

    tracer = Tracer(clock=fake_clock, pid=1)
    with tracer.span("run", "run"):
        with tracer.span("phase", "apply"):
            pass
    run_event, phase_event = tracer.events
    assert run_event["ts"] == 1.0 and run_event["dur"] == 3.0
    assert phase_event["ts"] == 2.0 and phase_event["dur"] == 1.0
    assert tracer.phase_seconds() == {"apply": 1.0}


def test_checkpoint_metrics_flow_through_registry(tmp_path):
    """A run's persisted groups, and a restarted run's resume from them,
    are counted as the result cache's stores and hits."""
    from repro.cache import reset_process_caches

    series = _series("pagerank")
    program = make_program("pagerank")
    config = EngineConfig(
        mode="push", batch_size=4, reuse="cache", cache_dir=str(tmp_path)
    )
    observation = obs.observe()
    try:
        run(series, program, config)
        first = observation.registry.snapshot()["counters"]
        reset_process_caches()  # resume from the disk tier
        resumed = run(series, program, config)
        second = observation.registry.snapshot()["counters"]
        report = resumed.report()
    finally:
        obs.disable()
        reset_process_caches()
    groups = -(-series.num_snapshots // 4)
    assert first["cache.stores"] == groups
    assert second["cache.hits"] == groups
    assert resumed.cached_groups == groups
    assert report["cache"]["hits"] == groups
    assert report["cached_groups"] == groups


def test_storage_metrics_flow_through_registry(tmp_path):
    from repro.storage.loader import load_series
    from repro.storage.store import StoreConfig, TemporalGraphStore

    graph = wiki_like(num_vertices=120, num_activities=900, seed=5)
    TemporalGraphStore.create(tmp_path / "store", graph)
    observation = obs.observe()
    try:
        store = TemporalGraphStore(tmp_path / "store", StoreConfig(mmap=True))
        series = load_series(store, graph.evenly_spaced_times(4))
        counters = observation.registry.snapshot()["counters"]
    finally:
        obs.disable()
    assert series.num_snapshots == 4
    assert counters["storage.edge_files_mmap"] > 0
    assert counters["storage.segments_read"] > 0
    assert counters["storage.bytes_read"] > 0
    assert counters["storage.crc_verified"] > 0
