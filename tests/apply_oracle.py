"""The apply bookkeeping the native settle pass replaced, kept as its oracle.

Before :func:`repro.native.settle`, the engine's apply phase did this in
NumPy on a ``(V, S_g)`` bool frontier and a ``(S_g,)`` bool running mask:
the program's candidate values were taken on the live cells of the running
snapshots (``np.where``), :func:`changed` compared them with the old values,
and the frontier and the running snapshots were rebuilt from the changed
cells. :func:`oracle_settle` is that phase; the settle pass must equal it in
value bytes, frontier words and running word.
"""

from typing import Tuple

import numpy as np


def changed(tol: float, old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Elementwise "did this cell change" (formerly ``VertexProgram.changed``).

    NaN entries (dead vertices) never count as changed; with ``tol`` set,
    sub-tolerance float drift does not count either.
    """
    with np.errstate(invalid="ignore"):
        if tol > 0.0:
            diff = np.abs(new - old)
            mask = diff > tol
            # inf -> finite transitions produce NaN diffs; they changed.
            mask |= np.isinf(old) & ~np.isinf(new)
            return mask & ~np.isnan(new)
        both_inf = np.isinf(old) & np.isinf(new) & (np.sign(old) == np.sign(new))
        neq = (new != old) & ~(np.isnan(new) & np.isnan(old))
        return neq & ~both_inf & ~np.isnan(new)


def oracle_settle(
    values: np.ndarray,
    cand: np.ndarray,
    exists: np.ndarray,
    snap_active: np.ndarray,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(new values, frontier, running)`` after one apply, as bool masks.

    ``values``, ``cand`` and ``exists`` are ``(V, S_g)``; ``snap_active``
    is the running mask the phase started with.
    """
    upd_mask = exists & snap_active[None, :]
    new = np.where(upd_mask, cand, values)
    moved = changed(tol, values, new) & snap_active[None, :]
    return new, moved & exists, snap_active & moved.any(axis=0)
