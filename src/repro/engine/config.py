"""Engine configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Optional

import numpy as np

from repro.errors import EngineError
from repro.layout.vertex_array import LayoutKind
from repro.memsim.costmodel import CostModel
from repro.memsim.hierarchy import HierarchyConfig, MemoryHierarchy


class Mode(enum.Enum):
    """Scatter-gather implementation mode (paper Section 5)."""

    PUSH = "push"
    PULL = "pull"
    STREAM = "stream"


@dataclass
class EngineConfig:
    """Everything that shapes one engine run's values and how it executes
    (the simulated machine a run can be charged to is a :class:`Simulation`).

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
    #: Override the program's iteration cap.
    max_iterations: Optional[int] = None
    #: How the walk executes: ``"serial"`` walks the group's whole edge
    #: array in the calling thread (the default); ``"process"`` means a
    #: thread pool: it cuts the group's destinations into ``workers``
    #: vertex ranges (owner-computes, lock-free) and walks each on a
    #: thread of :mod:`repro.parallel.shm` through the GIL-free native
    #: walk. Both run the one ranged scatter, whose ranges every group run
    #: proves owner-safe before its first write, and values and logical
    #: counters are bitwise identical. A simulated run charges its
    #: accesses serially after the walk, whichever executor walked.
    executor: str = "serial"
    #: Worker-thread count for ``executor="process"``; ``workers=1`` is one
    #: range, run inline. Unrelated to ``Simulation.num_cores``, the
    #: *simulated* core count.
    workers: int = 1
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
    #: ``incremental_labs`` uses (which rejects ``reuse``). Simulated
    #: runs cannot reuse (the simulation is the product).
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
        if self.executor not in ("serial", "process"):
            raise EngineError(f"unknown executor {self.executor!r}")
        if self.workers <= 0:
            raise EngineError(f"workers must be positive, got {self.workers}")
        if self.reuse not in (None, "cache", "incremental"):
            raise EngineError(
                f"unknown reuse policy {self.reuse!r} "
                "(expected None, 'cache', or 'incremental')"
            )
        if self.cache_dir is not None and self.reuse is None:
            raise EngineError("cache_dir requires reuse='cache' or 'incremental'")

    def effective_batch_size(self, num_snapshots: int) -> int:
        if self.batch_size is None:
            return num_snapshots
        return min(self.batch_size, num_snapshots)

    def with_(self, **kwargs: Any) -> "EngineConfig":
        """A modified copy (dataclasses.replace convenience)."""
        return replace(self, **kwargs)


@dataclass(frozen=True, eq=False)
class Simulation:
    """The simulated machine :func:`repro.engine.runner.simulate` charges a
    run's memory accesses, locks and messages to (DESIGN §2); it shapes no
    value or logical counter. Under ``hierarchy.private_llc`` the cores
    are distributed machines: cross-core pushes become messages charged
    network time instead of locked shared-memory writes.

    A machine is equal to and hashes as itself only: ``core_of`` may be
    an ndarray, which has no truth value to compare by."""

    hierarchy: HierarchyConfig = HierarchyConfig()
    cost_model: CostModel = CostModel()
    #: Simulated core count: partition-parallelism, or snapshot-
    #: parallelism through ``repro.parallel.run_multicore(strategy=
    #: "snapshot")``. Stream mode shuffles into ``max(num_cores, 4)``
    #: buckets (X-Stream's streaming partitions).
    num_cores: int = 1
    #: Vertex -> core map for partition-parallelism; contiguous ranges by
    #: default. Use :mod:`repro.partition` for Metis-style assignments.
    core_of: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise EngineError(f"num_cores must be positive, got {self.num_cores}")
        # Memoised vertex -> core maps, keyed by vertex count, so running
        # many groups of one series does not recompute the map per group.
        object.__setattr__(self, "_core_of_cache", {})

    def machine(self) -> MemoryHierarchy:
        """A fresh simulated memory hierarchy of this machine."""
        return MemoryHierarchy(self.num_cores, self.hierarchy, self.cost_model)

    def resolve_core_of(self, num_vertices: int) -> np.ndarray:
        """The vertex -> core map, defaulting to contiguous equal ranges.

        Memoised per ``(simulation, num_vertices)``: repeated calls for the
        same vertex count (one per group of a series run) return the same
        array object. Callers must treat the result as read-only.
        """
        cache: dict = self._core_of_cache  # type: ignore[attr-defined]
        cached = cache.get(num_vertices)
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
            span = max(num_vertices, 1)
            blocks = np.arange(num_vertices, dtype=np.int64) * self.num_cores // span
            resolved = np.minimum(blocks, self.num_cores - 1)
        cache[num_vertices] = resolved
        return resolved
