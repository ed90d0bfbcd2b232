"""Top-level execution: LABS group scheduling, apply phase, convergence.

:func:`run` executes a vertex program over a snapshot series: the series is
split into LABS groups of ``batch_size`` snapshots, and each group is
iterated to convergence with one scatter (mode-specific) and one apply
(mode-independent) phase per iteration. Batch size 1 with the
structure-locality layout is the paper's snapshot-by-snapshot baseline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.algorithms.program import Semantics, VertexProgram
from repro.engine.common import ExecContext
from repro.engine.config import EngineConfig, Mode, Simulation
from repro.engine.counters import EngineCounters
from repro.engine.kernels import vectorized_scatter
from repro.engine.state import GroupState
from repro.engine.traced import trace_apply, traced_scatter
from repro.errors import EngineError
from repro.layout.address_space import AddressSpace
from repro.memsim.counters import MemoryCounters
from repro.memsim.hierarchy import MemoryHierarchy
from repro.obs import runtime as obs
from repro.parallel.locks import LockTable
from repro.parallel.shm import cut_ranges
from repro.temporal.series import GroupView, SnapshotSeriesView

if TYPE_CHECKING:
    from repro.engine.incremental import Seeder

#: Safety cap for convergence-driven programs.
MAX_SAFE_ITERATIONS = 100_000


def _apply_phase(ctx: ExecContext) -> None:
    """Mode-independent apply: the program's ``apply`` in NumPy, then one
    :func:`repro.native.settle` pass (values, next frontier and running word)."""
    state, program, running = ctx.state, ctx.program, ctx.state.running
    with np.errstate(invalid="ignore"):
        cand = program.apply(state.values, state.acc, ctx.group)
    state.running = native.settle(
        state.values, cand, state.operands.exists, running, state.front,
        program.tol, program.name,
    )
    if ctx.sim is not None:
        trace_apply(ctx, running)


def run_group(
    group: GroupView,
    program: VertexProgram,
    config: EngineConfig,
    sim: Optional[Simulation] = None,
    hierarchy: Optional[MemoryHierarchy] = None,
    lock_free: bool = False,
    core_of: Optional[np.ndarray] = None,
    only_snapshots: Optional[List[int]] = None,
    address_space: Optional[AddressSpace] = None,
    initial_values: Optional[np.ndarray] = None,
    initial_active: Optional[np.ndarray] = None,
    state: Optional[GroupState] = None,
) -> Tuple[np.ndarray, EngineCounters]:
    """Run one LABS group to convergence; return ``(values, counters)``.

    ``initial_values``/``initial_active`` override the program's own
    initialisation — this is how incremental computation seeds a group from
    a previously computed snapshot (Section 3.5). ``sim`` simulates the
    run on ``hierarchy`` (default ``sim.machine()``) with the vertex ->
    core map ``core_of`` (default ``sim.resolve_core_of``). Passing
    ``state`` reuses an existing :class:`GroupState` (same arrays and
    simulated addresses);
    snapshot-parallelism uses this so every per-snapshot run shares the one
    edge array and vertex data array, as the paper describes (Section 6.2),
    and passes ``lock_free`` because its single-core runs take no locks.
    Simulated partition-parallel push runs (``sim.num_cores > 1``) lock
    every propagation write, unless the cores are distributed machines.

    Every run, simulated or not, cuts the group's destination vertices into
    ranges here, once, and proves them (:func:`repro.parallel.shm.cut_ranges`):
    all of them serially, one range per worker thread under
    ``executor="process"``, whose pool walks the ranges each iteration
    while apply and convergence run in this thread. The walk
    (:func:`repro.engine.kernels.vectorized_scatter`) computes every
    value and logical counter; a simulated run then charges the mode's
    accesses to ``hierarchy`` (:func:`repro.engine.traced.traced_scatter`).
    """
    with obs.span(
        "group",
        "group",
        {"start": int(group.start), "stop": int(group.stop)},
    ):
        program.validate()
        counters = EngineCounters()
        if sim is not None and hierarchy is None:
            hierarchy = sim.machine()
        if state is None:
            state = GroupState(
                group,
                config.layout,
                program,
                trace=sim is not None,
                address_space=address_space,
            )
        if initial_values is not None:
            state.values[:] = np.where(
                group.vertex_exists, initial_values, np.nan
            )
        state.activate(initial_active, only_snapshots)

        gstart = int(group.start)
        # Cut the destination ranges up front: the cuts and their
        # owner-computes proofs happen once per group, not per iteration.
        with obs.span("phase", "plan"):
            workers = config.workers if config.executor == "process" else 1
            bounds = cut_ranges(group, workers, gstart)

        locks = None
        if sim is not None:
            if core_of is None:
                core_of = sim.resolve_core_of(group.num_vertices)
            shared = not (sim.hierarchy.private_llc or lock_free)
            if config.mode is Mode.PUSH and sim.num_cores > 1 and shared:
                locks = LockTable(sim.cost_model)
        ctx = ExecContext(
            group=group,
            state=state,
            program=program,
            config=config,
            counters=counters,
            bounds=bounds,
            sim=sim,
            hierarchy=hierarchy,
            core_of=core_of,
            locks=locks,
        )
        max_iter = (
            config.max_iterations
            if config.max_iterations is not None
            else (program.max_iterations or MAX_SAFE_ITERATIONS)
        )
        regather = program.semantics is Semantics.REGATHER
        # Observability, hoisted out of the loop: when disabled (the common
        # case) each iteration costs one None check and a shared no-op
        # context manager — no span object or args dict is ever allocated.
        observation = obs.active()
        tracing = observation is not None and observation.tracer is not None
        while state.running and counters.iterations < max_iter:
            ispan = (
                observation.span(
                    "iteration",
                    "iteration",
                    {"group": gstart, "index": int(counters.iterations)},
                )
                if tracing
                else obs.NOOP
            )
            with ispan:
                if sim is not None:
                    before = [c.cycles for c in hierarchy.counters.per_core]
                    msgs_before = counters.messages
                    bytes_before = counters.message_bytes
                if regather:
                    state.reset_acc()
                # The walk computes (one range inline, more on the pool);
                # a simulated run then charges its accesses to the machine.
                with obs.span("phase", "scatter"):
                    vectorized_scatter(ctx)
                    if sim is not None:
                        traced_scatter(ctx)
                if locks is not None:
                    extra, total = locks.finish_iteration()
                    for core, cyc in extra.items():
                        hierarchy.add_cycles(cyc, core)
                    counters.lock_contention_cycles += total
                with obs.span("phase", "apply"):
                    _apply_phase(ctx)
                counters.iterations += 1
                if sim is not None:
                    deltas = [
                        c.cycles - b
                        for c, b in zip(hierarchy.counters.per_core, before)
                    ]
                    counters.sim_cycles += max(deltas)
                    if sim.hierarchy.private_llc:
                        dm = counters.messages - msgs_before
                        db = counters.message_bytes - bytes_before
                        if dm:
                            # Machines flush their per-destination buffers
                            # concurrently each superstep.
                            cost = sim.cost_model
                            net_s = cost.message_seconds(dm, db) / sim.num_cores
                            counters.extra_seconds += net_s
                            counters.sim_cycles += int(net_s * cost.frequency_hz)
        with obs.span("phase", "gather"):
            result = state.values.copy()
        return result, counters


@dataclass
class RunResult:
    """Outcome of a full series run."""

    values: np.ndarray  # (V, S) raw program values; NaN where dead
    program: VertexProgram
    config: EngineConfig
    counters: EngineCounters
    memory: Optional[MemoryCounters] = None
    hierarchy: Optional[MemoryHierarchy] = None
    #: Groups served from the result cache (``config.reuse``) without
    #: executing; their cached counters are folded into ``counters``.
    cached_groups: int = 0
    #: Groups seeded from their predecessor's result
    #: (``config.reuse="incremental"``) instead of cold-started.
    seeded_groups: int = 0

    @property
    def sim_seconds(self) -> Optional[float]:
        """Simulated end-to-end time (simulated runs only)."""
        if self.hierarchy is None:
            return None
        # extra_seconds is already folded into sim_cycles
        return self.hierarchy.cost.seconds(self.counters.sim_cycles)

    def decoded(self) -> np.ndarray:
        """User-facing values (e.g. MIS membership instead of encoding)."""
        return self.program.decode(self.values)

    def snapshot_values(self, s: int) -> np.ndarray:
        return self.values[:, s]

    def report(self) -> Dict[str, Any]:
        """A JSON-ready run summary (phase breakdown, cache rates and
        storage totals) built from this result's counters plus the
        active observation — see :mod:`repro.obs.report`."""
        from repro.obs.report import run_report

        return run_report(self)


def run(
    series: SnapshotSeriesView,
    program: VertexProgram,
    config: Optional[EngineConfig] = None,
) -> RunResult:
    """Execute ``program`` over every snapshot of ``series`` under ``config``.

    Under ``EngineConfig(reuse="cache", cache_dir=DIR)`` every computed
    LABS group is persisted as it completes, so a rerun after a crash
    serves the groups already on disk (``RunResult.cached_groups``) and
    computes the rest; results are bitwise identical either way.
    ``reuse="incremental"`` also seeds each computed group from its
    predecessor (:class:`repro.engine.incremental.Seeder`).
    """
    config = config or EngineConfig()
    seeder = None
    if config.reuse == "incremental":
        from repro.engine.incremental import Seeder

        seeder = Seeder(series, program, config)
    batch = config.effective_batch_size(series.num_snapshots)
    return _run_series(series, program, config, series.groups(batch), seeder)


def simulate(
    series: SnapshotSeriesView,
    program: VertexProgram,
    config: Optional[EngineConfig] = None,
    sim: Optional[Simulation] = None,
) -> RunResult:
    """:func:`run` with every group's accesses charged to the simulated
    machine ``sim``: same values and logical counters, plus ``memory``,
    ``sim_seconds`` and the simulation-only counters. ``config.reuse`` is
    an error: a group served from the cache would skip its charges."""
    config = config or EngineConfig()
    if config.reuse is not None:
        raise EngineError(
            "simulated runs cannot reuse results: a cached group skips its charges"
        )
    batch = config.effective_batch_size(series.num_snapshots)
    return _run_series(
        series, program, config, series.groups(batch), sim=sim or Simulation()
    )


def _run_series(
    series: SnapshotSeriesView,
    program: VertexProgram,
    config: EngineConfig,
    groups: Sequence[GroupView],
    seeder: Optional["Seeder"] = None,
    sim: Optional[Simulation] = None,
) -> RunResult:
    """The one LABS group loop: run ``groups`` in order into one result.

    Under ``config.reuse`` each group is first looked up in the result
    cache, and each computed group is stored. ``seeder`` supplies a
    computed group's initial state from its predecessor's result. ``sim``
    charges every group to one hierarchy and address space.
    """
    with obs.span(
        "run",
        "run",
        {
            "program": getattr(program, "name", "?"),
            "mode": config.mode.value,
            "executor": config.executor,
            "snapshots": int(series.num_snapshots),
        },
    ):
        planner = None
        if config.reuse is not None:
            from repro.engine.reuse import ReusePlanner

            planner = ReusePlanner(program, config)
        hierarchy = sim.machine() if sim is not None else None
        space = AddressSpace() if sim is not None else None

        from repro.resilience import faults as _faults

        total = EngineCounters()
        out = np.full(
            (series.num_vertices, series.num_snapshots), np.nan, dtype=np.float64
        )
        cached = 0
        seeded = 0

        def complete(
            group: GroupView,
            vals: np.ndarray,
            counters: EngineCounters,
            computed: bool,
        ) -> None:
            """Fold one finished group into the run (cache store, merge, abort)."""
            if planner is not None and computed:
                planner.store(group, vals, counters)
            if seeder is not None:
                seeder.note(group, vals)
            out[:, group.start : group.stop] = vals
            total.merge(counters)
            # Deterministic crash injection for the resume tests: die hard
            # (no cleanup, like a SIGKILL'd run) right after this group.
            _plan = _faults.active()
            if _plan is not None and _plan.take_abort(group.start):
                os._exit(137)

        for group in groups:
            if planner is not None:
                entry = planner.lookup(group)
                if entry is not None:
                    cached += 1
                    complete(group, entry.values, entry.counters, False)
                    continue
            extra: Dict[str, Any] = {}
            if seeder is not None:
                extra, base_counters = seeder.seed(group, sim, hierarchy, space)
                if extra:
                    seeded += 1
                if base_counters is not None:
                    total.merge(base_counters)
            vals, counters = run_group(
                group,
                program,
                config,
                sim=sim,
                hierarchy=hierarchy,
                address_space=space,
                **extra,
            )
            complete(group, vals, counters, True)
    if hierarchy is not None:
        total.per_core_cycles = [c.cycles for c in hierarchy.counters.per_core]
    obs.absorb_counters(total)
    return RunResult(
        values=out,
        program=program,
        config=config,
        counters=total,
        memory=hierarchy.counters if hierarchy is not None else None,
        hierarchy=hierarchy,
        cached_groups=cached,
        seeded_groups=seeded,
    )
