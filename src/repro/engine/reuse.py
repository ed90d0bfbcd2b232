"""Result reuse inside the main run path (``EngineConfig.reuse``).

:class:`ReusePlanner` is the per-run bridge between the group loop of
:func:`repro.engine.runner.run` and :mod:`repro.cache`. For every LABS
group it asks whether this exact computation is already memoized: the
group's content fingerprint + program identity + config digest name the
computation, and a cache hit returns the stored ``(values, counters)``
without executing the group. A computed group is stored under the same
key. Under ``reuse="incremental"`` a missed group is also seeded from its
predecessor by :class:`repro.engine.incremental.Seeder`; the config
digest's ``reuse`` field keeps those (possibly warm-started) entries
apart from ``reuse="cache"`` ones.

The planner only *prepends* work (a fingerprint pass) and *skips* groups;
the group loop and executors are untouched, which is how reuse composes
with both.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.program import VertexProgram
from repro.cache.fingerprint import group_fingerprint
from repro.cache.keys import cache_key, config_digest, program_identity
from repro.cache.result_cache import CacheEntry, ResultCache, result_cache
from repro.engine.config import EngineConfig
from repro.engine.counters import EngineCounters
from repro.obs import runtime as obs
from repro.temporal.series import GroupView

__all__ = ["ReusePlanner"]


class ReusePlanner:
    """One run's cache keys, lookups and stores."""

    def __init__(self, program: VertexProgram, config: EngineConfig) -> None:
        self.program = program
        self.cache: ResultCache = result_cache(config.cache_dir)
        self.program_id = program_identity(program)
        self.config_id = config_digest(config)

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
