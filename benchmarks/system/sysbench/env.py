"""Process hygiene and the host block: what makes two runs comparable."""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Repository root of the checkout this file lives in
#: (``benchmarks/system/sysbench/env.py`` -> three levels up from the
#: package directory).
REPO_ROOT = Path(__file__).resolve().parents[3]
SRC_DIR = REPO_ROOT / "src"

#: Scratch and result directories, both inside the checkout and ignored
#: by git.
TMP_PARENT = REPO_ROOT / ".bench_tmp"
OUT_DIR = REPO_ROOT / ".bench_out"


def pin_math_threads() -> None:
    """One BLAS/OpenMP thread, so a run measures the program, not the
    thread pool of whichever NumPy build is installed. Must run before
    NumPy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ[var] = "1"


def make_tmp_root(workload: str) -> Path:
    """The one temp root of this run; :func:`remove_tmp_root` deletes it."""
    root = TMP_PARENT / f"{workload}-{os.getpid()}"
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    return root


def remove_tmp_root(root: Path) -> None:
    shutil.rmtree(root, ignore_errors=True)
    try:
        TMP_PARENT.rmdir()  # only succeeds once no other run is using it
    except OSError:
        pass


def child_pids() -> List[int]:
    """Every process whose parent is this one, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ...": comm may hold spaces or ")".
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone between listdir and open
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 5.0) -> None:
    """Leave no process behind: every path out of a run ends here.

    The pool's workers are joined by ``shutdown_pool``, but creating a
    shared-memory segment also starts ``multiprocessing``'s resource
    tracker, a child that by default only ends *after* its parent has, so
    a caller that looks the moment the run exits still finds it. Stop it
    and wait for it; then wait for (and, past ``grace_s``, kill) whatever
    else is still a child of this process.
    """
    shm = sys.modules.get("repro.parallel.shm")
    if shm is not None:
        shm.shutdown_pool()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to end
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline + grace_s:
        left = child_pids()
        if not left:
            return
        for pid in left:
            try:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass  # already reaped by its owner
        time.sleep(0.01)


def quiesce() -> None:
    """Between ops, outside the timed region: forget process-wide result
    caches and collect garbage so one op's leftovers never bill the next."""
    from repro.cache import reset_process_caches

    reset_process_caches()
    gc.collect()


def values_digest(values: Any) -> str:
    """Bitwise identity of a result matrix (NaN payloads included)."""
    from repro.cache import digest_bytes

    return digest_bytes(values.tobytes())


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path`` (recursive)."""
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def peak_rss_mb(live_children: Sequence[int] = ()) -> float:
    """Peak resident memory in MB: ``ru_maxrss`` of this process plus the
    ``VmHWM`` of each live child in ``live_children`` (pids).

    ``RUSAGE_CHILDREN`` only counts children that have been waited for, so
    pool workers must be read from ``/proc`` while they are still alive.
    Pages of shared memory count once in every process that touched them.
    """
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in live_children:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    peak_kib += int(line.split()[1])
                    break
    return peak_kib / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout is not a git repository: then None)."""
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (REPO_ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def host_block() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
    }
