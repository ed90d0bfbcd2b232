"""Incremental computation (paper Section 3.5): one seeder for the group loop.

Incremental execution applies to MONOTONE programs (WCC, SSSP): values
relax monotonically toward the fixed point, so a later snapshot can be
seeded with an earlier snapshot's result *provided the seed is a valid
upper bound* — which holds exactly when the delta from the seed snapshot is
insert-only (edges only added, weights only decreased). After seeding, only
the sources of *tense* edges (edges present in the target snapshot but not
relaxed in the seed) need to be activated.

When the delta contains deletions, Chronos's trick (Section 3.5, second
part) applies: pre-compute the **intersection** of the group's snapshots
(with per-edge maximum weights), compute the result on that intersection
graph from scratch, and seed every snapshot of the group from it — each
true snapshot is then reachable from the base by *adding* edges only.
(The symmetric union trick serves delete-only algorithms; our engines
relax, so a union base would be a lower bound and is not offered.)

:class:`Seeder` is the one implementation of that seeding, and
:func:`repro.engine.runner.run`'s group loop is the one loop it runs in:

- ``run(series, p, EngineConfig(reuse="incremental"))`` seeds each missed
  group of ``series.groups(batch)`` from its predecessor; tolerance-
  converging REGATHER programs warm-start from it;
- :func:`incremental_labs` is the paper's Figure 6 protocol on the same
  loop: snapshot 0 from scratch, then groups of ``batch`` snapshots, each
  seeded from the previous group's last result. ``batch=1`` is the paper's
  "standard incremental computation" baseline.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.program import Semantics, VertexProgram
from repro.engine.config import EngineConfig, Simulation
from repro.engine.counters import EngineCounters
from repro.engine.runner import RunResult, _run_series, run_group
from repro.errors import EngineError
from repro.layout.address_space import AddressSpace
from repro.memsim.hierarchy import MemoryHierarchy
from repro.obs import runtime as obs
from repro.temporal.bitmap import mask_below
from repro.temporal.series import GroupView, SnapshotSeriesView


def is_insert_only(series: SnapshotSeriesView, s_from: int, s_to: int) -> bool:
    """True when snapshot ``s_to`` can be built from ``s_from`` by insertions.

    Requires every edge live in ``s_from`` to be live in ``s_to`` and, when
    the series carries weights, no weight increase on surviving edges.
    """
    return is_insert_only_range(series, s_from, s_to, s_to + 1)


def is_insert_only_range(
    series: SnapshotSeriesView, s_from: int, start: int, stop: int
) -> bool:
    """:func:`is_insert_only` for every snapshot in ``[start, stop)`` at once.

    One word test per edge instead of one pass per snapshot — the check
    a seeded LABS group makes before trusting its seed: every edge live
    in ``s_from`` has all of the range's bits set. Only a weighted
    series then reads cells, the surviving edges' weights over the range.
    """
    bitmap = series.out_bitmap
    held = ((bitmap >> np.uint64(s_from)) & np.uint64(1)) == 1
    span = np.uint64(mask_below(stop - start) << start)
    if np.any((bitmap[held] & span) != span):
        return False
    if series.out_weight is not None:
        weights = series.out_weight[held]
        if np.any(weights[:, start:stop] > weights[:, s_from][:, None]):
            return False
    return True


def intersection_base_values(
    series: SnapshotSeriesView,
    snapshots: List[int],
    program: VertexProgram,
    config: EngineConfig,
    sim: Optional[Simulation] = None,
    hierarchy: Optional[MemoryHierarchy] = None,
    address_space: Optional[AddressSpace] = None,
) -> Tuple[np.ndarray, np.ndarray, EngineCounters]:
    """Compute the program on the intersection graph of ``snapshots``.

    Returns ``(values, edge_in_base, counters)``: the ``(V,)`` base values,
    a boolean mask over the series' edge array marking edges present in the
    base, and the counters of the base computation.
    """
    mask = np.uint64(0)
    for s in snapshots:
        mask |= np.uint64(1 << s)
    in_base = (series.out_bitmap & mask) == mask
    vmask = (series.vertex_bitmap & mask) == mask
    src = series.out_src[in_base]
    dst = series.out_dst[in_base]
    weight = None
    if series.out_weight is not None:
        # Max weight across the group keeps the base an upper bound.
        weight = series.out_weight[in_base][:, list(snapshots)].max(axis=1)[:, None]
    base_series = SnapshotSeriesView(
        series.num_vertices,
        [0],
        src,
        dst,
        np.ones(src.shape[0], dtype=np.uint64),
        weight,
        vmask.astype(np.uint64),
    )
    vals, counters = run_group(
        base_series.group(0, 1),
        program,
        config,
        sim=sim,
        hierarchy=hierarchy,
        address_space=address_space,
    )
    return vals[:, 0], in_base, counters


def _tense_sources(
    series: SnapshotSeriesView,
    group_start: int,
    group_stop: int,
    seed_edge_mask: np.ndarray,
    seed_weights: Optional[np.ndarray],
) -> np.ndarray:
    """(V, S_g) activation mask: sources of edges not relaxed in the seed.

    ``seed_edge_mask`` marks edges live (relaxed) in the seed state;
    ``seed_weights`` gives the edge weights the seed's relaxation used.
    """
    V = series.num_vertices
    Sg = group_stop - group_start
    # One bitmap unpack for the whole group: (E, S_g) liveness, then the
    # tense test on every (edge, snapshot) cell at once.
    shifts = np.arange(group_start, group_stop, dtype=np.uint64)
    live = (
        (series.out_bitmap[:, None] >> shifts[None, :]) & np.uint64(1)
    ).astype(bool)
    tense = live & ~seed_edge_mask[:, None]
    if series.out_weight is not None and seed_weights is not None:
        both = live & seed_edge_mask[:, None]
        tense |= both & (
            series.out_weight[:, group_start:group_stop]
            < seed_weights[:, None]
        )
    active = np.zeros((V, Sg), dtype=bool)
    e_idx, s_idx = np.nonzero(tense)
    active[series.out_src[e_idx], s_idx] = True
    return active


class Seeder:
    """Seeds each LABS group of one run from its predecessor's last column.

    The group loop calls :meth:`note` with every finished group (computed
    or served from the cache) and :meth:`seed` before executing the next.
    A group is seeded only when its predecessor ends right before it.
    MONOTONE programs seed from the predecessor's last column when the
    delta is insert-only (:func:`is_insert_only_range`) and from the
    group's intersection base otherwise; ``activation`` then restarts
    every live vertex (``"all"``) or only the sources of tense edges
    (``"tense"``). Tolerance-converging REGATHER programs warm-start from
    the predecessor's column. Any other program is never seeded.
    """

    def __init__(
        self,
        series: SnapshotSeriesView,
        program: VertexProgram,
        config: EngineConfig,
        activation: str = "all",
    ) -> None:
        self.series = series
        self.program = program
        self.config = config
        self.activation = activation
        self.monotone = program.semantics is Semantics.MONOTONE
        self.warmable = (
            program.semantics is Semantics.REGATHER and bool(program.tol)
        )
        self._seed_idx: Optional[int] = None
        self._seed_col: Optional[np.ndarray] = None

    def note(self, group: GroupView, vals: np.ndarray) -> None:
        """Record ``group``'s result as the next group's seed source."""
        self._seed_idx = group.stop - 1
        self._seed_col = vals[:, -1]

    def seed(
        self,
        group: GroupView,
        sim: Optional[Simulation] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        address_space: Optional[AddressSpace] = None,
    ) -> Tuple[Dict[str, Any], Optional[EngineCounters]]:
        """``run_group`` overrides for ``group`` and any base's counters.

        Returns ``({}, None)`` when the group is not seeded. A simulated
        run's hierarchy and address space carry the intersection base's
        simulated cost into the run's own.
        """
        if (
            self._seed_col is None
            or self._seed_idx != group.start - 1
            or not (self.monotone or self.warmable)
        ):
            return {}, None
        with obs.span("phase", "seed", {"group": int(group.start)}):
            kwargs: Dict[str, Any] = {}
            seed_col = self._seed_col
            base_counters = None
            if self.monotone:
                base_mask = None
                if not is_insert_only_range(
                    self.series, self._seed_idx, group.start, group.stop
                ):
                    # Deletions in the delta: seed every snapshot from the
                    # group's intersection base instead (Section 3.5).
                    seed_col, base_mask, base_counters = intersection_base_values(
                        self.series,
                        list(range(group.start, group.stop)),
                        self.program,
                        self.config,
                        sim=sim,
                        hierarchy=hierarchy,
                        address_space=address_space,
                    )
                    obs.add("reuse.intersection_bases")
                if self.activation == "all":
                    # One full re-scatter from the seeded values, then
                    # quiesce — exact for monotone programs.
                    kwargs["initial_active"] = group.vertex_exists.copy()
                else:
                    kwargs["initial_active"] = self._tense(group, base_mask)
            init_prog = self.program.initial_values(group)
            kwargs["initial_values"] = np.where(
                np.isnan(seed_col)[:, None], init_prog, seed_col[:, None]
            )
            obs.add("reuse.seeded_groups")
        return kwargs, base_counters

    def _tense(
        self, group: GroupView, base_mask: Optional[np.ndarray]
    ) -> np.ndarray:
        """Tense-source activation against the edges the seed relaxed."""
        series = self.series
        weights = series.out_weight
        if base_mask is None:
            seed_idx = self._seed_idx
            assert seed_idx is not None
            mask = ((series.out_bitmap >> np.uint64(seed_idx)) & np.uint64(1)) == 1
            seed_w = None if weights is None else weights[:, seed_idx]
        else:
            # The base relaxed its edges at the group's maximum weights.
            mask = base_mask
            seed_w = None
            if weights is not None:
                seed_w = np.where(
                    mask, weights[:, group.start : group.stop].max(axis=1), np.inf
                )
        return _tense_sources(series, group.start, group.stop, mask, seed_w)


def incremental_labs(
    series: SnapshotSeriesView,
    program: VertexProgram,
    config: Optional[EngineConfig] = None,
    batch: int = 8,
    activation: str = "all",
    sim: Optional[Simulation] = None,
) -> RunResult:
    """LABS-enhanced incremental computation (paper Section 3.5, Figure 6).

    Computes snapshot 0 from scratch, then processes snapshots
    ``1..batch``, ``batch+1..2*batch``, ... as LABS groups, each seeded
    from the last snapshot computed by the previous group. Groups whose
    delta from the seed is not insert-only automatically fall back to an
    intersection base. ``batch=1`` is the standard snapshot-by-snapshot
    incremental approach the figure compares against.

    ``activation`` selects how the seeded computation restarts:

    - ``"all"`` (the paper's formulation): every live vertex re-scatters
      once from the seeded values, then quiesces where nothing changed.
      The first iteration costs one edge-array pass — the cost LABS
      amortises across the batch, which is where Figure 6's gain
      comes from.
    - ``"tense"`` (an optimisation beyond the paper): only sources of
      edges not yet relaxed in the seed (new or cheaper edges) activate,
      skipping the full first pass entirely. Exact for the same reasons,
      and strictly less work per snapshot, but with little left for LABS
      to amortise.

    ``config.reuse`` must be None: the seeding here is the whole point,
    and a result cache would mix its own seeds into the protocol. ``sim``
    simulates the run, bases included, as ``simulate`` does.
    """
    if program.semantics is not Semantics.MONOTONE:
        raise EngineError(
            f"incremental computation requires a MONOTONE program, "
            f"got {program.name} ({program.semantics})"
        )
    if batch <= 0:
        raise EngineError(f"batch must be positive, got {batch}")
    if activation not in ("all", "tense"):
        raise EngineError(f"unknown activation strategy {activation!r}")
    config = config or EngineConfig()
    if config.reuse is not None:
        raise EngineError(
            f"incremental_labs seeds every group itself; reuse="
            f"{config.reuse!r} is for run() (use reuse=None)"
        )
    S = series.num_snapshots
    groups = [series.group(0, 1)] + [
        series.group(pos, min(pos + batch, S)) for pos in range(1, S, batch)
    ]
    seeder = Seeder(series, program, config, activation)
    return _run_series(series, program, config, groups, seeder, sim)
