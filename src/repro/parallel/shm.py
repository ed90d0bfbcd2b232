"""Real shared-memory multiprocess execution (partition-parallel LABS).

This module turns the paper's partition-parallelism (Section 3.4) into
actual wall-clock parallelism on real cores, complementing the
deterministic *simulation* in :mod:`repro.parallel.multicore`:

- a persistent :class:`WorkerPool` of ``EngineConfig.workers`` OS
  processes is started once (lazily) and reused by every group of every
  run — fork-started on Linux by default, but the protocol ships
  everything explicitly so spawn works too;
- each LABS group's state arrays (values / accumulator / active masks)
  are allocated in named POSIX shared memory via
  :class:`SharedMemoryAllocator`;
- the group's edge-major gather plan is published **once per
  plan, not once per dispatch**: the parent keeps an LRU of plan tokens
  per pool (:meth:`WorkerPool.note_plan_token`) mirrored exactly by the
  workers' plan caches, so a plan already resident in the workers is
  referenced by key alone — zero bytes re-shipped, zero re-attachment;
- up to :data:`DISPATCH_BATCH` groups are dispatched in **one batched
  IPC round-trip** (:class:`BatchSession` sends a single ``batch``
  message per worker covering every group of the batch, then
  per-iteration ``scatter`` commands carry only the group index);
- the plan is sharded at destination-vertex boundaries
  (:mod:`repro.parallel.plan_shard`), giving every worker exclusive
  ownership of its accumulator cells — owner-computes, no locks — so the
  parallel fold is bitwise identical to the serial one;
- per iteration, the parent broadcasts one ``scatter`` command and
  collects one reply per worker (the BSP barrier); apply and convergence
  run in the parent over the same shared arrays through the unchanged
  serial code path, which keeps values *and* logical counters identical.

Every parent->worker message is framed explicitly (``pickle.dumps`` +
``send_bytes``) so the module can count IPC round-trips
(:data:`IPC_ROUND_TRIPS`) and serialized payload bytes
(:data:`IPC_PAYLOAD_BYTES`); the perf tests assert the amortization
against these counters.

Snapshot-parallelism (whole groups per core, Section 3.4) is measured in
the simulator only (:mod:`repro.parallel.multicore`, ``trace=True``);
this executor is partition-parallel.

A worker that raises mid-iteration replies with the pickled exception
instead of blocking; the parent then tears the pool down, unlinks every
shared segment, and re-raises the original exception — no deadlock and no
``/dev/shm`` leaks. Workers unregister attached segments from their
``resource_tracker`` (Python registers on attach, which would otherwise
produce spurious leak warnings at exit). Worker plan caches survive
segment unlink by POSIX semantics: an established mapping outlives the
name.

Failure handling (:mod:`repro.resilience`): every worker IPC carries a
deadline (``EngineConfig.worker_timeout_s``) — a worker that dies or hangs
past it raises :class:`~repro.errors.WorkerError`, which the runner treats
as retryable (pool respawn + per-group retry, then graceful serial
degradation). A respawned pool starts with empty token mirrors, matching
the fresh workers' empty caches, so retries re-publish exactly what the
new workers need. Deterministic faults from an installed
:class:`~repro.resilience.faults.FaultPlan` are consumed in the parent at
batch-build time and shipped inside the group specs, so a retried batch
ships clean specs. The parent installs SIGTERM/SIGINT handlers that
unlink every live shared segment before dying, so killing a run
mid-series leaves ``/dev/shm`` clean.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import signal
import threading
import traceback
import uuid
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.shared_memory import SharedMemory
    from types import FrameType

    from numpy.typing import DTypeLike

    from repro.algorithms.program import VertexProgram
    from repro.temporal.series import GroupView

from repro.algorithms.program import Semantics
from repro.engine.config import EngineConfig
from repro.engine.counters import EngineCounters
from repro.engine.kernels import stream_scatter
from repro.engine.state import ArrayAllocator, GroupState
from repro.errors import EngineError, WorkerError
from repro.obs import runtime as obs
from repro.parallel.plan_shard import (
    PlanShard,
    ownership_map,
    shard_boundaries,
    verify_disjoint_ownership,
)
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy, execute_with_retry

#: Prefix of every shared-memory segment this module creates; tests glob
#: ``/dev/shm`` for it to prove nothing leaks.
SEGMENT_PREFIX = "repro-shm"

#: Reply deadline used when a call site supplies none (pool-internal
#: callers pass ``EngineConfig.worker_timeout_s``). Generous: a reply is
#: one scatter over one shard.
REPLY_TIMEOUT_S = 600.0

#: Lifetime count of worker-pool spawns in this process; the resilience
#: tests diff it to assert how many respawns a fault actually caused.
POOL_SPAWNS = 0

#: Lifetime count of parent->pool IPC round-trips (one ``call_each`` =
#: one round-trip, however many workers it fans out to), and the total
#: pickled payload bytes those round-trips shipped. The batched-dispatch
#: tests diff these across a run to prove round-trips are O(batches) and
#: payload bytes collapse once plans are cached in the workers.
IPC_ROUND_TRIPS = 0
IPC_PAYLOAD_BYTES = 0

#: How many LABS groups one ``batch`` setup round-trip publishes: the
#: runner accumulates this many groups per dispatch, so setup costs
#: ``2 * ceil(groups / DISPATCH_BATCH)`` round-trips per run. Batching
#: changes only *when* shared arrays are published, never the fold order.
DISPATCH_BATCH = 8

#: How many distinct gather plans each worker keeps mapped; the parent
#: mirrors this LRU exactly (:meth:`WorkerPool.note_plan_token`), so it
#: must be comfortably above :data:`DISPATCH_BATCH` or intra-batch
#: eviction would thrash.
PLAN_CACHE_CAP = 32

#: Classes this module is allowed to construct into a WorkerPool IPC
#: payload. Machine-checked by chronolint CHF004: crossing the process
#: boundary is an explicit contract, so a refactor that starts pickling
#: an undeclared class (or an ndarray) through the framing fails static
#: analysis instead of silently copying per dispatch.
__ipc_picklable__ = ("BlockSpec",)

_segment_counter = itertools.count()
_token_counter = itertools.count()


def _segment_name() -> str:
    return (
        f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_segment_counter)}-"
        f"{uuid.uuid4().hex[:8]}"
    )


def _new_token() -> str:
    """A process-unique cache token (no RNG/clock: pid + counter)."""
    return f"{os.getpid()}-{next(_token_counter)}"


@dataclass(frozen=True)
class BlockSpec:
    """How to map one published array: segment name + shape + dtype."""

    segment: str
    shape: Tuple[int, ...]
    dtype: str


# ---------------------------------------------------------------------- #
# emergency cleanup: unlink segments when the *parent* is killed mid-run

#: Allocators with possibly-live segments; the signal handler releases
#: them so a SIGTERM/SIGINT to the parent leaves ``/dev/shm`` clean.
_LIVE_ALLOCATORS: "weakref.WeakSet" = weakref.WeakSet()
_SIGNAL_OWNER_PID: Optional[int] = None
_ORIG_HANDLERS: Dict[int, object] = {}


def _emergency_cleanup(signum: int, frame: "FrameType | None") -> None:
    if os.getpid() != _SIGNAL_OWNER_PID:
        # A forked child inherited this handler before it could reset it:
        # behave like the default disposition, touch nothing shared.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    for alloc in list(_LIVE_ALLOCATORS):
        try:
            alloc.release()
        # A dying signal handler must never raise past cleanup: any
        # failure here would mask the signal we are about to re-deliver.
        except Exception:  # chronolint: allow-broad-except
            pass
    try:
        shutdown_pool()
    except Exception:  # chronolint: allow-broad-except — same as above
        pass
    # Re-deliver under the original disposition so exit status / the
    # KeyboardInterrupt contract is preserved.
    orig = _ORIG_HANDLERS.get(signum, signal.SIG_DFL)
    try:
        signal.signal(signum, orig)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _ensure_signal_cleanup() -> None:
    """Install the SIGTERM/SIGINT cleanup handlers once per parent pid."""
    global _SIGNAL_OWNER_PID
    if _SIGNAL_OWNER_PID == os.getpid():
        return
    if threading.current_thread() is not threading.main_thread():
        return  # signal.signal is main-thread-only; skip quietly
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            current = signal.getsignal(signum)
            if current is not _emergency_cleanup:
                _ORIG_HANDLERS[signum] = current
                signal.signal(signum, _emergency_cleanup)
    except (ValueError, OSError):
        return
    _SIGNAL_OWNER_PID = os.getpid()


class SharedMemoryAllocator(ArrayAllocator):
    """An :class:`~repro.engine.state.ArrayAllocator` over named segments.

    Every allocation gets its own POSIX shared-memory segment, recorded in
    :attr:`blocks` by role name so the session can tell workers how to map
    it. :meth:`release` unlinks everything (idempotent); the backing pages
    are freed by the kernel once the last mapping — parent array or worker
    — goes away.
    """

    def __init__(self) -> None:
        from multiprocessing import shared_memory  # imported lazily: see below

        self._shared_memory = shared_memory
        self._segments: List["SharedMemory"] = []
        self.blocks: Dict[str, BlockSpec] = {}
        _ensure_signal_cleanup()
        _LIVE_ALLOCATORS.add(self)

    def allocate(self, shape: tuple, dtype: "DTypeLike", name: str) -> np.ndarray:
        dt = np.dtype(dtype)
        nbytes = max(int(np.prod(shape, dtype=np.int64)) * dt.itemsize, 1)
        seg = self._shared_memory.SharedMemory(
            create=True, size=nbytes, name=_segment_name()
        )
        self._segments.append(seg)
        _LIVE_ALLOCATORS.add(self)
        self.blocks[name] = BlockSpec(seg.name, tuple(shape), dt.str)
        return np.ndarray(shape, dtype=dt, buffer=seg.buf)

    def publish(self, name: str, array: np.ndarray) -> BlockSpec:
        """Copy ``array`` into a fresh shared block; return its spec."""
        block = self.allocate(array.shape, array.dtype, name)
        block[...] = array
        return self.blocks[name]

    def release(self) -> None:
        """Unlink and unmap every segment.

        CAUTION: arrays returned by :meth:`allocate` point straight into
        the mappings (numpy keeps the pointer without holding a buffer
        export), so they must not be touched after this — the engine
        copies results out first (:func:`repro.engine.runner.run_group`).
        """
        segments, self._segments = self._segments, []
        self.blocks = {}
        _LIVE_ALLOCATORS.discard(self)
        for seg in segments:
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
            _close_segment(seg)


_shm_probe_result: Optional[bool] = None


def shared_memory_available() -> bool:
    """Whether named POSIX shared memory actually works here (cached)."""
    global _shm_probe_result
    if _shm_probe_result is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(
                create=True, size=16, name=_segment_name()
            )
            seg.close()
            seg.unlink()
            _shm_probe_result = True
        except (ImportError, OSError, ValueError):
            # No _posixshmem, /dev/shm missing or unwritable, size refused.
            _shm_probe_result = False
    return _shm_probe_result


# ---------------------------------------------------------------------- #
# worker side


def _attach_block(
    spec: BlockSpec, segments: List["SharedMemory"]
) -> np.ndarray:
    from multiprocessing import resource_tracker, shared_memory

    # Python (< 3.13) registers attached segments with the resource
    # tracker as if the attaching process owned them. Workers share the
    # parent's tracker (fork/fd inheritance), so letting the attach
    # register — or unregistering afterwards — corrupts the parent's own
    # registration. Suppress registration for the attach instead: the
    # parent remains the sole registered owner.
    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        seg = shared_memory.SharedMemory(name=spec.segment)
    finally:
        resource_tracker.register = orig_register
    segments.append(seg)
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf)


def _close_segment(seg: "SharedMemory") -> None:
    """Unmap one segment this process holds."""
    try:
        seg.close()
    except BufferError:
        # Arrays over this segment are still referenced (e.g. by a live
        # shard of an evicted-but-in-use plan entry); the mapping stays
        # valid until they are collected.
        pass


class _PlanEntry:
    """One cached plan's attached arrays + the segments backing them."""

    def __init__(
        self, arrays: Dict[str, np.ndarray], segments: List["SharedMemory"]
    ) -> None:
        self.arrays = arrays
        self.segments = segments

    def close(self) -> None:
        self.arrays = {}
        segments, self.segments = self.segments, []
        for seg in segments:
            _close_segment(seg)


#: Worker-resident plan cache, keyed by the parent-issued tokens. It
#: deliberately survives ``batch_end``: the whole point is that the next
#: run's dispatch references plans by token with zero payload.
_PLAN_CACHE: "OrderedDict[str, _PlanEntry]" = OrderedDict()

#: Cache telemetry, readable through the ``stats`` command; the
#: plan-cache tests assert reuse/invalidation against these.
_WORKER_STATS: Dict[str, int] = {"plan_attaches": 0, "plan_hits": 0}


def _plan_arrays(spec: dict) -> Dict[str, np.ndarray]:
    """This worker's mapped plan arrays for ``spec`` (cached by key)."""
    key = spec["plan_key"]
    entry = _PLAN_CACHE.get(key)
    if entry is not None:
        _PLAN_CACHE.move_to_end(key)
        _WORKER_STATS["plan_hits"] += 1
        obs.add("worker.plan_hits")
        return entry.arrays
    blocks = spec.get("plan_blocks")
    if blocks is None:
        # The parent's token mirror promised this plan was resident; a
        # miss here means the mirror and the cache diverged (a bug, not
        # a recoverable condition).
        raise EngineError(
            f"plan {key!r} is not cached in this worker and no blocks "
            "were shipped"
        )
    segments: List["SharedMemory"] = []
    arrays = {role: _attach_block(b, segments) for role, b in blocks.items()}
    _PLAN_CACHE[key] = _PlanEntry(arrays, segments)
    while len(_PLAN_CACHE) > PLAN_CACHE_CAP:
        _, evicted = _PLAN_CACHE.popitem(last=False)
        evicted.close()
    _WORKER_STATS["plan_attaches"] += 1
    obs.add("worker.plan_attaches")
    return arrays


class _WorkerGroup:
    """One worker's mapped view of one batched group + its plan shard."""

    def __init__(self, spec: dict, program: "VertexProgram") -> None:
        self._segments: List["SharedMemory"] = []
        arrays = _plan_arrays(spec)
        blocks: Dict[str, BlockSpec] = spec["state_blocks"]
        attach = lambda name: _attach_block(blocks[name], self._segments)
        self.values_flat = attach("values").reshape(-1)
        self.acc_flat = attach("acc").reshape(-1)
        self.active = attach("active")
        self.snap_active = attach("snap_active")
        self.degree_cells = arrays.get("degree_cells")
        #: Injected fault specs shipped by the parent (normally empty);
        #: consumed one per scatter call.
        self.faults: List[dict] = list(spec.get("faults", ()))
        start, stop = spec["slice"]
        san_spec = spec.get("sanitize_map")
        sanitize_map = (
            _attach_block(san_spec, self._segments).reshape(-1)
            if san_spec is not None
            else None
        )
        self.shard = PlanShard(
            arrays,
            num_vertices=spec["num_vertices"],
            num_snapshots=spec["num_snapshots"],
            start=start,
            stop=stop,
            sanitize_map=sanitize_map,
            worker_id=spec.get("worker_id", -1),
            group_start=spec.get("group_start", -1),
        )
        self.program = program
        self.monotone = spec["monotone"]
        self.needs_degrees = spec["needs_degrees"]
        self.obs_args = {
            "group": spec.get("group_start", -1),
            "worker": spec.get("worker_id", -1),
        }

    def scatter(self) -> int:
        if self.faults:
            faults.run_worker_fault(self.faults.pop(0))
        with obs.span("phase", "worker_scatter", self.obs_args):
            return stream_scatter(
                self.shard,
                self.program,
                self.values_flat,
                self.acc_flat,
                self.active,
                self.snap_active,
                monotone=self.monotone,
                needs_degrees=self.needs_degrees,
                degree_cells=self.degree_cells,
            )

    def close(self) -> None:
        # Drop every array view before closing so the mmaps have no
        # exported buffers left. Plan arrays are owned by _PLAN_CACHE and
        # deliberately NOT closed here — they outlive the group.
        self.shard = None
        self.values_flat = self.acc_flat = None
        self.active = self.snap_active = self.degree_cells = None
        segments, self._segments = self._segments, []
        for seg in segments:
            _close_segment(seg)


class _WorkerBatch:
    """This worker's views of every group in the current dispatch batch."""

    def __init__(self, payload: dict) -> None:
        program = payload["program"]
        self.groups: List[_WorkerGroup] = []
        try:
            for spec in payload["groups"]:
                self.groups.append(_WorkerGroup(spec, program))
        # Attach failures must not leak the groups already mapped; the
        # original exception is forwarded to the parent untouched.
        except BaseException:  # chronolint: allow-broad-except
            self.close()
            raise

    def scatter(self, index: int) -> int:
        return self.groups[index].scatter()

    def close(self) -> None:
        groups, self.groups = self.groups, []
        for g in groups:
            g.close()


def _worker_main(conn: "Connection") -> None:
    """Command loop of one pool worker (top-level: spawn-safe)."""
    # The parent's emergency-cleanup handlers must not run here: restore
    # the default SIGTERM disposition (so terminate()/kill escalation
    # works) and ignore SIGINT (terminal Ctrl-C goes to the whole process
    # group; the parent drives worker shutdown through the pipes).
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    # A forked worker inherits the parent's observation object; recording
    # into it here would interleave with the parent's events. Workers get
    # their own (via the dispatch payload's "obs" flag) or none.
    obs.reset()
    batch: Optional[_WorkerBatch] = None
    while True:
        try:
            # Parent messages are framed as explicit pickle bytes (so the
            # parent can count payload); Connection.send frames the same
            # way, so the graceful-shutdown ("exit",) also parses here.
            msg = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            break
        cmd = msg[0]
        try:
            if cmd == "batch":
                if batch is not None:
                    batch.close()
                    batch = None
                if msg[1].get("obs"):
                    obs.enable_worker(int(msg[1].get("worker", 0)))
                else:
                    obs.reset()
                batch = _WorkerBatch(msg[1])
                conn.send(("ok", None))
            elif cmd == "scatter":
                if batch is None:
                    raise EngineError("scatter before batch setup")
                conn.send(("ok", batch.scatter(msg[1])))
            elif cmd == "batch_end":
                if batch is not None:
                    batch.close()
                    batch = None
                conn.send(("ok", None))
            elif cmd == "obs_drain":
                # Ship this worker's recorded spans/metrics to the parent
                # for trace stitching (None when nothing was recorded).
                conn.send(("ok", obs.drain()))
            elif cmd == "stats":
                conn.send(("ok", dict(_WORKER_STATS)))
            elif cmd == "ping":
                conn.send(("ok", "pong"))
            elif cmd == "exit":
                conn.send(("ok", None))
                break
            else:
                raise EngineError(f"unknown worker command {cmd!r}")
        # The command loop forwards *any* worker failure to the parent
        # instead of dying silently — this reply is what keeps a failed
        # iteration from deadlocking the BSP barrier.
        except BaseException as exc:  # chronolint: allow-broad-except
            tb = traceback.format_exc()
            try:
                pickle.dumps(exc)
                payload = exc
            # An exception's __reduce__ may raise anything at all; an
            # unpicklable payload degrades to the traceback text.
            except Exception:  # chronolint: allow-broad-except
                payload = None
            try:
                conn.send(("error", payload, tb))
            except (OSError, ValueError, TypeError, pickle.PicklingError):
                break  # parent gone; nothing left to report to
    if batch is not None:
        batch.close()
    try:
        conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------- #
# parent side: the pool


class WorkerPool:
    """A persistent set of worker processes joined to the parent by pipes.

    The protocol is strict lockstep — one reply per worker per command —
    so the per-iteration reply collection *is* the BSP barrier, and a
    worker that errors still replies (with the exception), which is what
    makes a mid-iteration failure shut the pool down instead of
    deadlocking it.

    The pool also carries the parent-side mirror of the workers' plan
    caches (:meth:`note_plan_token`). Tying the mirror to the pool object
    is what makes it correct: a respawned pool is a fresh object with an
    empty mirror, matching its fresh workers' empty caches.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise EngineError(f"worker pool needs >= 1 workers, got {workers}")
        global POOL_SPAWNS
        POOL_SPAWNS += 1
        obs.add("pool.spawns")
        _ensure_signal_cleanup()
        self.workers = workers
        self.broken = False
        self.plan_tokens: "OrderedDict[str, None]" = OrderedDict()
        ctx = multiprocessing.get_context()
        self._procs = []
        self._conns = []
        try:
            for i in range(workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn,),
                    name=f"repro-shm-worker-{i}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        # Partial-spawn cleanup: tear down whatever started, then
        # re-raise the original failure untouched.
        except Exception:  # chronolint: allow-broad-except
            self.shutdown(force=True)
            raise

    def alive(self) -> bool:
        return not self.broken and all(p.is_alive() for p in self._procs)

    def note_plan_token(self, key: str) -> bool:
        """Record a plan key; True = the workers already hold this plan.

        The workers' plan caches run this identical LRU arithmetic over
        the identical key sequence (every worker receives every group
        spec), which is what keeps a parent-side "hit" guaranteed to find
        the plan still resident worker-side.
        """
        tokens = self.plan_tokens
        if key in tokens:
            tokens.move_to_end(key)
            return True
        tokens[key] = None
        while len(tokens) > PLAN_CACHE_CAP:
            tokens.popitem(last=False)
        return False

    def call_each(
        self,
        messages: Sequence[tuple],
        timeout: Optional[float] = None,
        group: Optional[int] = None,
    ) -> list:
        """Send one message per worker; collect one reply per worker.

        ``timeout`` is the per-worker reply deadline (default
        :data:`REPLY_TIMEOUT_S`); ``group`` annotates errors with the LABS
        group being executed. On any worker failure the pool is shut down,
        every other reply is still drained (no half-consumed pipes), and:

        - an *application* exception a worker forwarded is re-raised as
          itself (deterministic; retrying it would fail identically);
        - an *infrastructure* failure — dead worker, hang past the
          deadline, broken pipe — raises :class:`~repro.errors.WorkerError`
          chained to the underlying cause, which the runner retries.
        """
        global IPC_ROUND_TRIPS, IPC_PAYLOAD_BYTES
        if self.broken:
            raise WorkerError("the shared-memory worker pool is broken",
                              group=group)
        if len(messages) != self.workers:
            raise EngineError(
                f"{len(messages)} messages for {self.workers} workers"
            )
        IPC_ROUND_TRIPS += 1
        obs.add("ipc.round_trips")
        deadline = REPLY_TIMEOUT_S if timeout is None else timeout
        send_error: Optional[BaseException] = None
        sent = []
        for i, (conn, msg) in enumerate(zip(self._conns, messages)):
            try:
                # Explicit framing (dumps + send_bytes) instead of
                # Connection.send: byte-identical on the wire, but the
                # payload size becomes observable for the counters.
                buf = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
                conn.send_bytes(buf)
                IPC_PAYLOAD_BYTES += len(buf)
                obs.add("ipc.payload_bytes", len(buf))
                sent.append(True)
            # Unpicklable payload (TypeError/AttributeError/PicklingError
            # out of some spec's __reduce__), dead pipe (OSError), or a
            # closed connection (ValueError).
            except (
                OSError,
                ValueError,
                TypeError,
                AttributeError,
                pickle.PicklingError,
            ) as exc:
                if send_error is None:
                    if isinstance(exc, OSError):
                        send_error = WorkerError(
                            f"send to worker {i} failed: {exc!r}",
                            worker=i, group=group,
                        )
                        send_error.__cause__ = exc
                    else:
                        send_error = exc
                sent.append(False)
        replies = []
        for i, conn in enumerate(self._conns):
            if not sent[i]:
                replies.append(("infra", None))
                continue
            try:
                if not conn.poll(deadline):
                    replies.append(
                        (
                            "infra",
                            WorkerError(
                                f"worker {i} missed its {deadline:.4g}s "
                                "reply deadline",
                                worker=i, group=group,
                            ),
                        )
                    )
                    continue
                replies.append(conn.recv())
            except (EOFError, OSError) as exc:
                err = WorkerError(
                    f"worker {i} died: {exc!r}", worker=i, group=group
                )
                err.__cause__ = exc
                replies.append(("infra", err))
        failures = [(i, r) for i, r in enumerate(replies) if r[0] != "ok"]
        if failures or send_error is not None:
            self.shutdown(force=True)
            # Prefer a forwarded application exception over infrastructure
            # noise: the dead pipes are usually collateral of the raise.
            for i, reply in failures:
                if reply[0] == "error" and isinstance(reply[1], BaseException):
                    raise reply[1]
            for i, reply in failures:
                if reply[0] == "infra" and reply[1] is not None:
                    raise reply[1]
            if send_error is not None:
                raise send_error
            i, reply = failures[0]
            raise EngineError(f"shm worker {i} failed:\n{reply[2]}")
        return [r[1] for r in replies]

    def call_all(
        self,
        message: tuple,
        timeout: Optional[float] = None,
        group: Optional[int] = None,
    ) -> list:
        return self.call_each(
            [message] * self.workers, timeout=timeout, group=group
        )

    def shutdown(self, force: bool = False) -> None:
        self.broken = True
        if not force:
            for conn in self._conns:
                try:
                    conn.send(("exit",))
                except (OSError, ValueError):
                    pass  # already dead/closed: the joins below handle it
        else:
            # Workers may be mid-command or hung: don't wait for grace.
            for proc in self._procs:
                if proc.is_alive():
                    try:
                        proc.terminate()
                    except (OSError, ValueError):
                        pass
        grace = 2.0 if force else 5.0
        for proc in self._procs:
            proc.join(timeout=grace)
        for proc in self._procs:
            if proc.is_alive():
                try:
                    proc.terminate()
                except (OSError, ValueError):
                    pass
                proc.join(timeout=2.0)
        # Escalate: SIGKILL anything that survived (or ignored) SIGTERM.
        for proc in self._procs:
            if proc.is_alive():
                try:
                    proc.kill()
                except (OSError, ValueError):
                    pass
                proc.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs = []
        self._conns = []


_POOL: Optional[WorkerPool] = None


def get_pool(workers: int) -> WorkerPool:
    """The persistent module-level pool, (re)created only when needed."""
    global _POOL
    if _POOL is not None and (_POOL.workers != workers or not _POOL.alive()):
        _POOL.shutdown()
        _POOL = None
    if _POOL is None:
        _POOL = WorkerPool(workers)
    return _POOL


def shutdown_pool() -> None:
    """Stop the persistent pool (idempotent); used by tests and atexit."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------- #
# parent side: batched dispatch


def _fallback(reason: str) -> None:
    warnings.warn(
        f"executor='process': {reason}; falling back to the serial executor",
        RuntimeWarning,
        stacklevel=4,
    )


def _process_unavailable_reason(config: EngineConfig) -> Optional[str]:
    """Why the process executor can't run this config (None = it can)."""
    if config.workers <= 1:
        return "workers=1 gives no parallelism"
    if config.distributed:
        return "distributed runs are simulated serially"
    if not shared_memory_available():
        return "POSIX shared memory is unavailable"
    try:
        get_pool(config.workers)
    # Any spawn failure (fork refusal, fd exhaustion, ...) means serial.
    except Exception as exc:  # chronolint: allow-broad-except
        return f"could not start the worker pool ({exc})"
    return None


class _GroupHandle:
    """What ``ExecContext.shm`` holds for one group of a batch.

    The planned kernel calls :meth:`scatter` once per iteration; the
    handle routes it to the owning :class:`BatchSession`, which addresses
    the workers by the group's index within the batch.
    """

    def __init__(
        self, session: "BatchSession", index: int, group_start: int
    ) -> None:
        self.session = session
        self.index = index
        self.group_start = group_start

    def scatter(self) -> int:
        return self.session.scatter(self.index, self.group_start)


class BatchSession:
    """All shared state for a batch of LABS groups on the worker pool.

    Construction publishes every group's state arrays (and any plan
    blocks the workers don't already cache) and performs exactly ONE
    ``call_each`` round-trip — the ``batch`` setup message — for the whole
    batch. Workers map the live shared arrays at setup, so parent writes
    that happen later (initial-value seeding, each iteration's apply
    phase) are visible without any republish.

    Plan publication is once-per-plan, not once-per-group-dispatch: the
    parent mirrors the workers' plan LRU caches (see :class:`WorkerPool`)
    and ships blocks only on a mirror miss.
    """

    def __init__(
        self,
        pool: WorkerPool,
        groups: Sequence["GroupView"],
        base: int,
        program: "VertexProgram",
        config: EngineConfig,
    ) -> None:
        self.pool = pool
        self.base = base
        self.timeout = config.worker_timeout_s
        self.allocators: List[Optional[SharedMemoryAllocator]] = []
        self.states: List[Optional[GroupState]] = []
        self.handles: List[_GroupHandle] = []
        self._obs = False
        try:
            self._build(groups, program, config)
        # Failed mid-publication: release whatever was allocated, then
        # surface the original error (retry/degradation is the caller's).
        except BaseException:  # chronolint: allow-broad-except
            self.release()
            raise

    def _build(
        self,
        groups: Sequence["GroupView"],
        program: "VertexProgram",
        config: EngineConfig,
    ) -> None:
        needs_degrees = program.needs_degrees
        needs_weights = program.needs_weights
        monotone = program.semantics is Semantics.MONOTONE
        plan_faults = faults.active()
        pool = self.pool
        # Whether workers should record (and later ship) their own spans;
        # remembered so release() knows to drain them.
        self._obs = obs.shipping()
        per_worker: List[List[dict]] = [[] for _ in range(pool.workers)]
        with obs.span("phase", "dispatch"):
            for gi, group in enumerate(groups):
                group_start = int(group.start)
                galloc = SharedMemoryAllocator()
                self.allocators.append(galloc)
                state = GroupState(
                    group, config.layout, program, allocator=galloc
                )
                self.states.append(state)
                plan = state.gather_plan()
                use_weights = needs_weights and plan.weight_stream is not None
                if plan.shm_token is None:
                    plan.shm_token = _new_token()
                # The role set shipped for a plan depends on the program,
                # so the cache key covers both.
                key = f"{plan.shm_token}:{int(use_weights)}{int(needs_degrees)}"
                plan_blocks: Optional[Dict[str, BlockSpec]] = None
                token_hit = pool.note_plan_token(key)
                obs.add(
                    "plan.token_hits" if token_hit else "plan.token_misses"
                )
                if not token_hit:
                    publish = galloc.publish
                    plan_blocks = {
                        "dst_flat": publish("plan_dst_flat", plan.dst_flat),
                        "src_flat": publish("plan_src_flat", plan.src_flat),
                        "snap_ids": publish("plan_snap_ids", plan.snap_ids),
                    }
                    if plan.src_flat_c is not plan.src_flat:
                        plan_blocks["src_flat_c"] = publish(
                            "plan_src_flat_c", plan.src_flat_c
                        )
                    if use_weights:
                        plan_blocks["weights"] = publish(
                            "plan_weights", plan.weight_stream
                        )
                    if needs_degrees:
                        plan_blocks["degree_cells"] = publish(
                            "plan_degree_cells", plan.degree_cells
                        )
                dst_vertices = plan.dst_vertices()
                bounds = shard_boundaries(dst_vertices, pool.workers)
                sanitize_spec: Optional[BlockSpec] = None
                if config.sanitize:
                    verify_disjoint_ownership(
                        dst_vertices, bounds, group=group_start
                    )
                    sanitize_spec = galloc.publish(
                        "sanitize_map",
                        ownership_map(
                            plan.dst_flat,
                            bounds,
                            plan.num_vertices * plan.num_snapshots,
                        ),
                    )
                state_blocks = {
                    name: galloc.blocks[name]
                    for name in ("values", "acc", "active", "snap_active")
                }
                for w in range(pool.workers):
                    spec: Dict[str, object] = {
                        "plan_key": key,
                        "plan_blocks": plan_blocks,
                        "state_blocks": state_blocks,
                        "sanitize_map": sanitize_spec,
                        "num_vertices": plan.num_vertices,
                        "num_snapshots": plan.num_snapshots,
                        "slice": (int(bounds[w]), int(bounds[w + 1])),
                        "worker_id": w,
                        "group_start": group_start,
                        "monotone": monotone,
                        "needs_degrees": needs_degrees,
                    }
                    if plan_faults is not None:
                        # Consumed at build time, keyed by group start: a
                        # retry session ships clean specs.
                        worker_faults = plan_faults.take_worker_faults(
                            group_start, w
                        )
                        if worker_faults:
                            spec["faults"] = worker_faults
                    per_worker[w].append(spec)
                self.handles.append(_GroupHandle(self, gi, group_start))
            pool.call_each(
                [
                    (
                        "batch",
                        {
                            "program": program,
                            "groups": per_worker[w],
                            "obs": self._obs,
                            "worker": w,
                        },
                    )
                    for w in range(pool.workers)
                ],
                timeout=self.timeout,
                group=int(groups[0].start),
            )

    def scatter(self, index: int, group_start: int) -> int:
        # No span here: the runner's scatter bracket
        # (_run_group_once) already covers this round-trip.
        return sum(
            self.pool.call_all(
                ("scatter", index),
                timeout=self.timeout,
                group=group_start,
            )
        )

    def release_group(self, index: int) -> None:
        """Free one finished group's shared arrays (workers' mappings of
        already-unlinked segments stay valid until ``batch_end``)."""
        alloc = self.allocators[index]
        if alloc is not None:
            alloc.release()
            self.allocators[index] = None
        self.states[index] = None

    def release(self) -> None:
        if not self.pool.broken:
            try:
                if self._obs:
                    # Stitch the workers' recorded spans/metrics into the
                    # parent trace before the batch teardown.
                    for payload in self.pool.call_all(
                        ("obs_drain",), timeout=self.timeout
                    ):
                        obs.ingest(payload)
                self.pool.call_all(("batch_end",), timeout=self.timeout)
            # Best-effort: a pool that died mid-batch already dropped its
            # mappings with the processes.
            except Exception:  # chronolint: allow-broad-except
                pass
        for i, alloc in enumerate(self.allocators):
            if alloc is not None:
                alloc.release()
                self.allocators[i] = None
        self.states = [None] * len(self.states)


def run_batch(
    groups: Sequence["GroupView"],
    program: "VertexProgram",
    config: EngineConfig,
    group_kwargs: Optional[Sequence[dict]] = None,
    on_group_done: Optional[Callable[[int, np.ndarray, EngineCounters], None]] = None,
) -> List[Tuple[np.ndarray, EngineCounters]]:
    """Run a batch of LABS groups on the process executor.

    The whole batch shares one ``batch`` setup round-trip; each group
    then runs to convergence through the unchanged serial driver
    (:func:`repro.engine.runner._run_group_once`) with its scatters
    routed to the pool. Failure handling is per group: a
    :class:`~repro.errors.WorkerError` respawns the pool and opens a
    fresh session over the *remaining* groups (completed groups are not
    recomputed), then degrades that group to serial per the retry policy.
    """
    from repro.engine.runner import _run_group_once

    groups = list(groups)
    kwargs_list = list(group_kwargs) if group_kwargs else [{} for _ in groups]
    results: List[Tuple[np.ndarray, EngineCounters]] = []
    reason = _process_unavailable_reason(config)
    if reason is not None:
        _fallback(reason)
        for i, group in enumerate(groups):
            vals, counters = _run_group_once(
                group, program, config, **kwargs_list[i]
            )
            results.append((vals, counters))
            if on_group_done is not None:
                on_group_done(i, vals, counters)
        return results

    policy = RetryPolicy.from_config(config)
    session: Optional[BatchSession] = None
    try:
        for i, group in enumerate(groups):

            def attempt() -> Tuple[np.ndarray, EngineCounters]:
                nonlocal session
                if session is not None and session.pool.broken:
                    session.release()
                    session = None
                if session is None:
                    try:
                        pool = get_pool(config.workers)
                    # Respawn failure: this group (only) runs serially.
                    except Exception as exc:  # chronolint: allow-broad-except
                        _fallback(f"could not start the worker pool ({exc})")
                        return _run_group_once(
                            group, program, config, **kwargs_list[i]
                        )
                    session = BatchSession(
                        pool, groups[i:], i, program, config
                    )
                j = i - session.base
                return _run_group_once(
                    group,
                    program,
                    config,
                    state=session.states[j],
                    shm=session.handles[j],
                    **kwargs_list[i],
                )

            def serial() -> Tuple[np.ndarray, EngineCounters]:
                return _run_group_once(
                    group,
                    program,
                    config.with_(executor="serial"),
                    **kwargs_list[i],
                )

            vals, counters = execute_with_retry(
                attempt,
                policy,
                describe=f"LABS group [{group.start}, {group.stop})",
                serial_fallback=serial,
                group=int(group.start),
            )
            if session is not None and not session.pool.broken:
                session.release_group(i - session.base)
            results.append((vals, counters))
            if on_group_done is not None:
                on_group_done(i, vals, counters)
    finally:
        if session is not None:
            session.release()
    return results

