"""Delta-aware result reuse inside the main run path (``EngineConfig.reuse``).

:class:`ReusePlanner` is the per-run bridge between :func:`repro.engine.
runner.run` and :mod:`repro.cache`. For every LABS group in series order
it answers two questions:

1. **Is this exact computation already memoized?** The group's content
   fingerprint + program identity + config digest name the computation;
   a cache hit returns the stored ``(values, counters)`` and the group
   never executes (``reuse="cache"`` and ``"incremental"``).
2. **If not, can the predecessor's result shrink it?** Under
   ``reuse="incremental"`` a missed group is seeded from the previous
   group's last snapshot (paper Section 3.5): MONOTONE programs seed
   directly when the delta is insert-only, fall back to an intersection
   base when it contains deletions, and activate every live vertex for
   one re-scatter (the paper's formulation — exact, so values stay
   bitwise identical to from-scratch); tolerance-converging REGATHER
   programs warm-start from the seed (tolerance-equal values, keyed
   separately by the config digest's ``reuse`` field).

The planner only *prepends* work (a fingerprint pass, an optional base
computation) and *substitutes* initial state; the group loop, executors
and sanitizer are untouched, which is how reuse composes
with all of them.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.algorithms.program import Semantics, VertexProgram
from repro.cache.fingerprint import group_fingerprint
from repro.cache.keys import cache_key, config_digest, program_identity
from repro.cache.result_cache import CacheEntry, ResultCache, result_cache
from repro.engine.config import EngineConfig
from repro.engine.counters import EngineCounters
from repro.engine.incremental import (
    intersection_base_values,
    is_insert_only_range,
)
from repro.obs import runtime as obs
from repro.temporal.series import GroupView, SnapshotSeriesView

__all__ = ["ReusePlanner"]


class ReusePlanner:
    """One run's reuse state: keys, cache lookups, and seed derivation."""

    def __init__(
        self,
        series: SnapshotSeriesView,
        program: VertexProgram,
        config: EngineConfig,
    ) -> None:
        self.series = series
        self.program = program
        self.config = config
        self.cache: ResultCache = result_cache(config.cache_dir)
        self.program_id = program_identity(program)
        self.config_id = config_digest(config)
        self.seed_incremental = config.reuse == "incremental"
        self.monotone = program.semantics is Semantics.MONOTONE
        self.warmable = (
            program.semantics is Semantics.REGATHER and bool(program.tol)
        )
        #: The predecessor state seeds come from: the last snapshot index
        #: of the previous group and its (V,) value column. Every
        #: completed group (computed or cached) advances these in series
        #: order.
        self._seed_idx: Optional[int] = None
        self._seed_col: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #

    def key_for(self, group: GroupView) -> str:
        return cache_key(
            group_fingerprint(group), self.program_id, self.config_id
        )

    def lookup(self, group: GroupView) -> Optional[CacheEntry]:
        """The memoized result for ``group``, or None (execute it)."""
        with obs.span(
            "phase",
            "cache",
            {"group": int(group.start), "op": "lookup"},
        ):
            entry = self.cache.get(self.key_for(group))
        if entry is not None:
            obs.add("reuse.seed_iter_saved", entry.counters.iterations)
        return entry

    def store(
        self, group: GroupView, vals: np.ndarray, counters: EngineCounters
    ) -> None:
        """Memoize a freshly computed group result."""
        with obs.span(
            "phase",
            "cache",
            {"group": int(group.start), "op": "store"},
        ):
            self.cache.put(
                self.key_for(group),
                vals,
                counters,
                meta={
                    "program": self.program.name,
                    "start": int(group.start),
                    "stop": int(group.stop),
                    "iterations": int(counters.iterations),
                },
            )

    def note_complete(self, group: GroupView, vals: np.ndarray) -> None:
        """Record ``group``'s result as the next group's seed source."""
        self._seed_idx = group.stop - 1
        self._seed_col = np.asarray(vals)[:, -1]

    # ------------------------------------------------------------------ #

    def seed_kwargs(
        self, group: GroupView
    ) -> Tuple[Dict[str, Any], Optional[EngineCounters]]:
        """``initial_values``/``initial_active`` overrides for a missed group.

        Returns ``({}, None)`` when seeding does not apply (policy is
        ``"cache"``, no predecessor yet, or the program is neither
        MONOTONE nor tolerance-converging REGATHER). The second element
        carries the counters of an intersection-base computation when
        one was needed, for the caller to merge.
        """
        if (
            not self.seed_incremental
            or self._seed_col is None
            or self._seed_idx != group.start - 1
            or not (self.monotone or self.warmable)
        ):
            return {}, None
        with obs.span("phase", "seed", {"group": int(group.start)}):
            return self._derive_seed(group)

    def _derive_seed(
        self, group: GroupView
    ) -> Tuple[Dict[str, Any], Optional[EngineCounters]]:
        series = self.series
        program = self.program
        seed_idx = self._seed_idx
        assert seed_idx is not None and self._seed_col is not None
        base_counters: Optional[EngineCounters] = None
        kwargs: Dict[str, Any] = {}
        if self.monotone:
            if is_insert_only_range(series, seed_idx, group.start, group.stop):
                seed_col = self._seed_col
            else:
                # Deletions in the delta: seed every snapshot from the
                # group's intersection base instead (Section 3.5).
                seed_col, _, base_counters = intersection_base_values(
                    series,
                    list(range(group.start, group.stop)),
                    program,
                    self.config,
                )
                obs.add("reuse.intersection_bases")
            # The paper's "all" activation: one full re-scatter from the
            # seeded values, then quiesce — exact for monotone programs.
            kwargs["initial_active"] = group.vertex_exists.copy()
        else:  # warmable REGATHER
            seed_col = self._seed_col
        init_prog = program.initial_values(group)
        kwargs["initial_values"] = np.where(
            np.isnan(seed_col)[:, None], init_prog, seed_col[:, None]
        )
        obs.add("reuse.seeded_groups")
        return kwargs, base_counters
