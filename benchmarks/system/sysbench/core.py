"""What the four workloads share: run context, op accounting, sections."""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Union

from sysbench.catalogue import END_TO_END, PER_LAYER, RUN_SECONDS
from sysbench.spans import Recorder, Span, Stat, median, span_coverage
from sysbench.watch import Watch


#: A metric value: a bare number (counts, ratios, single readings) or a
#: statistic that carries its sample count.
Metric = Union[int, float, Stat]


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    traced: bool
    smoke: bool
    tmp: Path

    def reps(self, full: int, floor: int, traced: int, smoke: int) -> int:
        """Repetitions of one schedule entry.

        ``full`` is the count calibrated for ``RUN_SECONDS`` of measuring;
        ``--seconds`` scales it linearly but never below ``floor``, the
        sample count the metric's statistic needs. The traced run measures
        its section twice (without and with tracing) and so uses the
        shorter ``traced`` count; ``--smoke`` is a wiring check.
        """
        if self.smoke:
            return smoke
        if self.traced:
            return traced
        return max(floor, round(full * self.seconds / RUN_SECONDS))


@dataclass
class Checks:
    """Ops attempted and failed; feeds ``failed_ops_share``.

    An op that raises aborts the run (the state after it is unknown), which
    the driver counts as the strongest failure; a wrong answer is recorded
    here and the run goes on.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def did(self) -> None:
        """Count one op that completed and has no answer to check."""
        self.attempted += 1

    def attempt(self, ok: bool, what: str) -> None:
        """Count one op or correctness gate; ``what`` names it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Section:
    """One pass over the workload's timed schedule, traced or not."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.rec = Recorder(keep=traced)
        #: One obs fold per op population ("query", "control", ...), so a
        #: phase mean is never taken across different kinds of run.
        self.watches: Dict[str, Watch] = {}
        #: Wall seconds by sample name, in measurement order.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Exact quantities (records acked, bytes on disk, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Wall time of every op (the roots of the span tree).
        self.op_wall_s = 0.0

    @contextmanager
    def op(self, name: str, **attrs: Any) -> Iterator[Span]:
        """One op, request to answer: a root span. Calls into a layer are
        its child spans; what they leave uncovered is the benchmark's own
        glue (building the request, slicing batches), which
        ``bench.span_coverage`` keeps honest."""
        with self.rec.span(name, **attrs) as span:
            yield span
        self.op_wall_s += span.dur

    def watch(self, population: str = "query") -> Watch:
        if population not in self.watches:
            self.watches[population] = Watch(self.traced)
        return self.watches[population]

    def add(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds)

    def total(self, name: str) -> float:
        return sum(self.samples.get(name, ()))


class WorkloadRun:
    """Base of a workload: the phases ``run.py`` drives, in order."""

    name = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.checks = Checks()
        #: Stopwatch readings of the set-up's calls into each layer.
        self.setup_spans: Dict[str, float] = {}
        self.sizes: Dict[str, Any] = {}

    @contextmanager
    def setup_span(self, rec: Recorder, name: str) -> Iterator[None]:
        """Time one of the set-up's calls into a layer (a root span of
        ``rec``) and keep its duration under ``name``."""
        with rec.span(name) as span:
            yield
        self.setup_spans[name] = span.dur

    # -- phases, in the order run.py calls them ------------------------ #

    def set_up(self, rec: Recorder) -> None:
        """The system's own work before the timed section (``setup_s``)."""
        raise NotImplementedError

    def prepare_checks(self, rec: Recorder) -> None:
        """Build what the correctness gates compare against (the
        benchmark's work, not the system's: outside ``setup_s``)."""

    def measure(self, section: Section) -> None:
        """The timed closed loop, one client."""
        raise NotImplementedError

    def probes(self, section: Section) -> None:
        """Traced run only: calls that would distort end-to-end timing."""

    def tear_down(self) -> None:
        """Stop processes, run the post-run gates."""

    def native_end_to_end(self, section: Section) -> Dict[str, Metric]:
        """The end-to-end metrics this workload measures itself."""
        raise NotImplementedError

    def layer_metrics(
        self, untraced: Section, traced: Section, probes: Section
    ) -> Dict[str, Metric]:
        """The per-layer metrics of the layers this workload exercises."""
        raise NotImplementedError

    # -- assembly ------------------------------------------------------- #

    def end_to_end(self, section: Section, setup_s: float) -> Dict[str, Dict[str, Any]]:
        """The end-to-end metrics the catalogue assigns to this workload."""
        native = dict(self.native_end_to_end(section), setup_s=setup_s)
        mine = [m for m in END_TO_END if self.name in m.workloads]
        if set(native) != {m.name for m in mine}:
            raise KeyError(
                f"{self.name} measured {sorted(native)}, the catalogue "
                f"expects {sorted(m.name for m in mine)}"
            )
        return {m.name: _entry(native[m.name], m.unit) for m in mine}

    def per_layer(
        self, untraced: Section, traced: Section, probes: Section
    ) -> Dict[str, Dict[str, Any]]:
        measured = self.layer_metrics(untraced, traced, probes)
        unknown = set(measured) - {m.name for m in PER_LAYER}
        if unknown:
            raise KeyError(f"metrics not in the catalogue: {sorted(unknown)}")
        # A layer the workload leaves idle reads 0 by definition.
        return {
            m.name: _entry(measured.get(m.name, 0), m.unit) for m in PER_LAYER
        }


def _entry(value: Metric, unit: str) -> Dict[str, Any]:
    if isinstance(value, Stat):
        return {"value": value.value, "unit": unit, "n": value.n}
    return {"value": value, "unit": unit}


def common_layer_metrics(
    run: WorkloadRun, untraced: Section, traced: Section, probes: Section
) -> Dict[str, Metric]:
    """What every workload reports the same way: the obs/bench qualifiers
    and the probes all traced runs end with."""
    base = untraced.op_wall_s
    return {
        "datasets.generate_s": run.setup_spans["datasets.generate"],
        "cli.import_s": median(probes.samples["import"]),
        "engine.plan_build_s": median(probes.samples["plan_build"]),
        "cache.fingerprint_s": median(probes.samples["cache_fingerprint"]),
        "obs.overhead_share": (traced.op_wall_s - base) / base,
        "obs.events": sum(w.events for w in traced.watches.values()),
        "bench.span_coverage": span_coverage(traced.rec.spans),
    }


#: The engine's exact counters the benchmark carries per workload.
ENGINE_COUNTS = ("iterations", "edge_array_accesses", "acc_updates")


def count_engine(section: Section, counters: Any, prefix: str = "") -> None:
    """Accumulate one run's ``EngineCounters`` under ``prefix``."""
    for name in ENGINE_COUNTS:
        section.counts[prefix + name] += getattr(counters, name)


def engine_metrics(
    section: Section, watch: Watch, per: float, run_wall_s: float, prefix: str = ""
) -> Dict[str, Metric]:
    """``engine.*`` from one op population: mean phase seconds per run (the
    program's own ``repro.obs`` spans), exact counts per ``per`` (passes or
    queries), and the edge-access rate over ``run_wall_s``."""
    counts = section.counts
    out: Dict[str, Metric] = {
        "engine.scatter_s": watch.per_run("scatter"),
        "engine.apply_s": watch.per_run("apply"),
        "engine.gather_s": watch.per_run("gather"),
        "engine.unattributed_s": watch.unattributed_s(),
        "engine.unattributed_share": watch.unattributed_share(),
        "engine.plan_cache_builds": watch.counters["plan.cache_builds"] / per,
        "engine.plan_cache_hits": watch.counters["plan.cache_hits"] / per,
        "engine.edge_accesses_per_s": (
            counts[prefix + "edge_array_accesses"] / run_wall_s
        ),
    }
    for name in ENGINE_COUNTS:
        out[f"engine.{name}"] = counts[prefix + name] / per
    return out
