"""The deleted second incremental driver, kept as the test oracle.

Until the seeder moved onto ``run``'s group loop, LABS-enhanced incremental
computation (paper Section 3.5, Figure 6) had its own loop:
``_incremental_labs_body`` below, verbatim. ``incremental_labs`` must equal
it in values and in every ``EngineCounters`` field (see
``tests/test_incremental_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.algorithms.program import VertexProgram
from repro.engine.config import EngineConfig, Simulation
from repro.engine.counters import EngineCounters
from repro.engine.incremental import (
    _tense_sources,
    intersection_base_values,
    is_insert_only_range,
)
from repro.engine.runner import run_group
from repro.layout.address_space import AddressSpace
from repro.temporal.series import SnapshotSeriesView


@dataclass
class IncrementalResult:
    """Outcome of an incremental run over a series."""

    values: np.ndarray  # (V, S)
    counters: EngineCounters
    group_iterations: List[int] = field(default_factory=list)
    used_intersection: List[bool] = field(default_factory=list)


def oracle_incremental_labs(
    series: SnapshotSeriesView,
    program: VertexProgram,
    config: Optional[EngineConfig] = None,
    batch: int = 8,
    activation: str = "all",
    sim: Optional[Simulation] = None,
) -> IncrementalResult:
    """The old ``incremental_labs`` minus its argument checks and span
    (the simulated machine, once read from the config, is ``sim``)."""
    return _incremental_labs_body(
        series, program, config or EngineConfig(), batch, activation, sim
    )


def _incremental_labs_body(
    series: SnapshotSeriesView,
    program: VertexProgram,
    config: EngineConfig,
    batch: int,
    activation: str,
    sim: Optional[Simulation],
) -> IncrementalResult:
    traced = sim is not None
    hierarchy = sim.machine() if traced else None
    space = AddressSpace() if traced else None

    V, S = series.num_vertices, series.num_snapshots
    out = np.full((V, S), np.nan, dtype=np.float64)
    total = EngineCounters()
    result = IncrementalResult(values=out, counters=total)

    first_vals, counters = run_group(
        series.group(0, 1),
        program,
        config,
        sim=sim,
        hierarchy=hierarchy,
        address_space=space,
    )
    out[:, 0] = first_vals[:, 0]
    total.merge(counters)
    result.group_iterations.append(counters.iterations)
    result.used_intersection.append(False)

    pos = 1
    seed_idx = 0
    while pos < S:
        stop = min(pos + batch, S)
        group = series.group(pos, stop)
        insertable = is_insert_only_range(series, seed_idx, pos, stop)
        if insertable:
            seed_col = out[:, seed_idx]
            seed_edge_mask = (
                (series.out_bitmap >> np.uint64(seed_idx)) & np.uint64(1)
            ) == 1
            seed_w = (
                series.out_weight[:, seed_idx]
                if series.out_weight is not None
                else None
            )
            base_counters = None
        else:
            seed_col, seed_edge_mask, base_counters = intersection_base_values(
                series,
                list(range(pos, stop)),
                program,
                config,
                sim=sim,
                hierarchy=hierarchy,
                address_space=space,
            )
            total.merge(base_counters)
            seed_w = None
            if series.out_weight is not None:
                seed_w = np.where(
                    seed_edge_mask,
                    series.out_weight[:, pos:stop].max(axis=1),
                    np.inf,
                )
        init_prog = program.initial_values(group)
        seeded = np.where(np.isnan(seed_col)[:, None], init_prog, seed_col[:, None])
        if activation == "all":
            active = group.vertex_exists.copy()
        else:
            active = _tense_sources(series, pos, stop, seed_edge_mask, seed_w)
        vals, counters = run_group(
            group,
            program,
            config,
            sim=sim,
            hierarchy=hierarchy,
            address_space=space,
            initial_values=seeded,
            initial_active=active,
        )
        out[:, pos:stop] = vals
        total.merge(counters)
        result.group_iterations.append(counters.iterations)
        result.used_intersection.append(not insertable)
        seed_idx = stop - 1
        pos = stop

    if traced:
        total.per_core_cycles = [c.cycles for c in hierarchy.counters.per_core]
    return result
