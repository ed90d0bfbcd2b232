"""Engine configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

from repro.errors import EngineError
from repro.layout.vertex_array import LayoutKind
from repro.memsim.costmodel import CostModel
from repro.memsim.hierarchy import HierarchyConfig


class Mode(enum.Enum):
    """Scatter-gather implementation mode (paper Section 5)."""

    PUSH = "push"
    PULL = "pull"
    STREAM = "stream"


@dataclass
class EngineConfig:
    """Everything that shapes one engine run.

    The paper's configurations map onto this as:

    - **Chronos**: ``batch_size=N`` (e.g. 32), ``layout=TIME_LOCALITY``;
    - **baseline** (static engine applied per snapshot): ``batch_size=1``,
      ``layout=STRUCTURE_LOCALITY``;
    - **Grace**: baseline + partition-parallelism in push/pull mode;
    - **X-Stream**: baseline in stream mode.
    """

    mode: Mode = Mode.PUSH
    layout: LayoutKind = LayoutKind.TIME_LOCALITY
    #: LABS batch size; ``None`` batches the entire series in one group.
    batch_size: Optional[int] = None
    #: Emit the address trace through a simulated memory hierarchy.
    trace: bool = False
    hierarchy_config: Optional[HierarchyConfig] = None
    cost_model: CostModel = field(default_factory=CostModel)
    #: Simulated core count (traced runs only). Stream mode shuffles into
    #: ``max(num_cores, 4)`` buckets (X-Stream's streaming partitions).
    num_cores: int = 1
    #: ``partition`` assigns vertex partitions to cores; ``snapshot``
    #: assigns whole snapshots to cores (Section 3.4). Snapshot-parallelism
    #: is simulated only: with ``executor="process"`` it is an error.
    parallel: str = "partition"
    #: Vertex -> core map for partition-parallelism; contiguous ranges by
    #: default. Use :mod:`repro.partition` for Metis-style assignments.
    core_of: Optional[np.ndarray] = None
    #: Override the program's iteration cap.
    max_iterations: Optional[int] = None
    #: Treat cores as distributed machines: cross-partition push
    #: propagation becomes messages (counted and charged network time)
    #: instead of locked shared-memory writes. Used by
    #: :mod:`repro.distributed`.
    distributed: bool = False
    #: How untraced runs execute: ``"serial"`` in the calling thread (the
    #: default), or ``"process"``, which selects the pool of ``workers``
    #: worker *threads* of :mod:`repro.parallel.shm` (the value name
    #: predates the threads). Each group's gather plan is sharded by
    #: destination-vertex ranges (owner-computes, lock-free), each thread
    #: folds its shard through the GIL-free native fold, and values and
    #: logical counters are bitwise identical to serial. Traced
    #: (simulated) runs are always serial; ``executor="process"`` with
    #: ``trace=True`` is an error.
    executor: str = "serial"
    #: Worker-thread count for ``executor="process"``. ``workers=1`` falls
    #: back to the serial executor (with a warning). Unrelated to
    #: ``num_cores``, which is the *simulated* core count of traced runs.
    workers: int = 1
    #: Shard-race sanitizer (TSan for the owner-computes discipline).
    #: Under ``executor="process"`` each group's shard plan is proven
    #: pairwise disjoint before any scatter, and every worker thread
    #: validates the cells of each fold against an ownership map (cell ->
    #: owning worker) at the write site, raising a typed
    #: :class:`~repro.errors.ShardRaceError` (naming the group and both
    #: workers) on overlap or an out-of-ownership write. Serial runs
    #: verify the cached gather plan is destination-sorted once per group.
    #: The sanitizer only *reads* engine state, so clean runs stay bitwise
    #: identical to ``sanitize=False``.
    sanitize: bool = False
    #: Result reuse across runs (:mod:`repro.cache`): ``None`` (default)
    #: recomputes everything; ``"cache"`` serves any group whose
    #: (content fingerprint, program identity, config digest) key has a
    #: cached result without executing it; ``"incremental"`` additionally
    #: seeds changed/appended groups from the predecessor group's result
    #: — insert-only deltas seed directly, deltas with deletions fall
    #: back to an intersection base (paper Section 3.5), and
    #: tolerance-converging REGATHER programs warm-start. MONOTONE
    #: values stay bitwise identical; warm-started REGATHER values are
    #: tolerance-equal (and keyed separately, so they never serve a
    #: ``"cache"`` run). The seeder is
    #: :class:`repro.engine.incremental.Seeder`, the one
    #: ``incremental_labs`` uses (which rejects ``reuse``). Traced runs
    #: cannot reuse (the simulation is the product).
    reuse: Optional[str] = None
    #: On-disk tier directory for the result cache; ``None`` keeps the
    #: cache memory-only (still shared across runs in one process).
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.mode, str):
            self.mode = Mode(self.mode)
        if isinstance(self.layout, str):
            self.layout = LayoutKind(self.layout)
        if self.batch_size is not None and self.batch_size <= 0:
            raise EngineError(f"batch_size must be positive, got {self.batch_size}")
        if self.num_cores <= 0:
            raise EngineError(f"num_cores must be positive, got {self.num_cores}")
        if self.parallel not in ("partition", "snapshot"):
            raise EngineError(f"unknown parallel strategy {self.parallel!r}")
        if self.num_cores > 1 and not self.trace:
            raise EngineError(
                "multi-core execution is simulated and requires trace=True"
            )
        if self.executor not in ("serial", "process"):
            raise EngineError(f"unknown executor {self.executor!r}")
        if self.workers <= 0:
            raise EngineError(f"workers must be positive, got {self.workers}")
        if self.executor == "process" and self.trace:
            raise EngineError(
                "the process executor is wall-clock-only; traced runs are "
                "simulated serially (use executor='serial' with num_cores)"
            )
        if self.executor == "process" and self.parallel == "snapshot":
            raise EngineError(
                "the process executor is partition-parallel only; "
                "snapshot-parallelism is simulated (use trace=True, "
                "num_cores>1 with parallel='snapshot')"
            )
        if self.reuse not in (None, "cache", "incremental"):
            raise EngineError(
                f"unknown reuse policy {self.reuse!r} "
                "(expected None, 'cache', or 'incremental')"
            )
        if self.reuse is not None and self.trace:
            raise EngineError(
                "result reuse cannot serve traced runs: the simulated "
                "memory trace is the product, not the values"
            )
        if self.cache_dir is not None and self.reuse is None:
            raise EngineError("cache_dir requires reuse='cache' or 'incremental'")
        #: Memoised vertex -> core maps, keyed by vertex count, so running
        #: many groups of one series does not recompute the partition map
        #: per group (see :meth:`resolve_core_of`).
        self._core_of_cache: dict = {}

    def effective_batch_size(self, num_snapshots: int) -> int:
        if self.batch_size is None:
            return num_snapshots
        return min(self.batch_size, num_snapshots)

    def with_(self, **kwargs: Any) -> "EngineConfig":
        """A modified copy (dataclasses.replace convenience)."""
        return replace(self, **kwargs)

    def resolve_core_of(self, num_vertices: int) -> np.ndarray:
        """The vertex -> core map, defaulting to contiguous equal ranges.

        Memoised per ``(config, num_vertices)``: repeated calls for the
        same vertex count (one per group of a series run) return the same
        array object. Callers must treat the result as read-only.
        """
        cached = self._core_of_cache.get(num_vertices)
        if cached is not None:
            return cached
        if self.core_of is not None:
            if len(self.core_of) != num_vertices:
                raise EngineError(
                    f"core_of has {len(self.core_of)} entries for "
                    f"{num_vertices} vertices"
                )
            if self.core_of.size and int(self.core_of.max()) >= self.num_cores:
                raise EngineError("core_of references a core >= num_cores")
            resolved = np.asarray(self.core_of, dtype=np.int64)
        else:
            resolved = np.minimum(
                np.arange(num_vertices, dtype=np.int64)
                * self.num_cores
                // max(num_vertices, 1),
                self.num_cores - 1,
            )
        self._core_of_cache[num_vertices] = resolved
        return resolved
