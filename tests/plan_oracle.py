"""The gather plan the native walk replaced, kept as the walk's oracle.

:class:`GatherPlan` unpacks a group's in-edge bitmaps into the edge-major
COO stream of its live ``(edge, snapshot)`` pairs — flat destination and
source indices in the accumulator's physical layout order, in ``(dst,
src, snapshot)`` order — and selects from it per iteration: every pair
under the running snapshots (``select_stationary``), or the pairs whose
``(source, snapshot)`` is in a monotone frontier (``select_monotone``, by
masking the stream or, for a small frontier, through a per-source CSR).
:func:`oracle_fold` folds the selected pairs with NumPy's sequential
``ufunc.at``, the engine's fold before any native loop. The engine's walk
(:func:`repro.native.walk`) must equal :func:`oracle_scatter` in
accumulator bytes and update count.
"""

from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.layout.vertex_array import LayoutKind
from repro.temporal.bitmap import popcounts

#: When the monotone frontier's candidate stream entries are fewer than
#: ``stream_length / CSR_SELECT_FACTOR``, selection goes through the
#: per-source CSR slices instead of masking the full stream.
CSR_SELECT_FACTOR = 4

#: Logical gathers fold as max / min over truth values (as the engine does).
_TRUTH_FOLDS = {np.logical_or: np.maximum, np.logical_and: np.minimum}

#: A weighted program's edge op, as the NumPy ufunc it stands for.
EDGE_UFUNCS = {"add": np.add, "mul": np.multiply}


def edge_message(edge_op: str, msg, weight):
    """``msg op weight``, a NaN message winning (quieted): NumPy leaves the
    payload of two NaN operands to its loop — its vector lanes keep the
    first operand's, its scalar remainder the second's — and the walk
    pins the first."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(np.isnan(msg), msg + 0.0, EDGE_UFUNCS[edge_op](msg, weight))


def oracle_fold(acc_flat, ufunc, dst_flat, msg, sel=None, src=None):
    """Fold ``msg`` into ``acc_flat[dst_flat[p]]`` for ``p`` in ``sel``
    (None = all) with NumPy's sequential ``ufunc.at``.

    ``ufunc.at`` applies its entries one at a time in order, each with the
    ufunc's scalar rule: ``(a < m || isnan(a)) ? a : m`` for minimum (a tie
    takes the message, so ``min(0.0, -0.0)`` is ``-0.0``), the mirror for
    maximum, and ``a + m`` with the accumulator's NaN payload winning.
    Messages are ``msg[src[p]]`` when ``src`` is given, else one per entry.
    """
    truth = _TRUTH_FOLDS.get(ufunc)
    if truth is not None:
        ufunc, msg = truth, (msg != 0).astype(np.float64)
    pick = slice(None) if sel is None else sel
    if src is not None:
        msg = msg[src[pick]]
    ufunc.at(acc_flat, dst_flat[pick], msg)


def flat_destination_index(layout, v_ids, snap_ids, num_vertices, num_snapshots):
    """Flat indices of ``(v, s)`` cells in ``layout``'s physical order."""
    if layout is LayoutKind.TIME_LOCALITY:
        return v_ids * np.int64(num_snapshots) + snap_ids
    return snap_ids * np.int64(num_vertices) + v_ids


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + counts[i])``."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )


class GatherPlan:
    """The edge-major COO stream of one group's live (in-edge, snapshot) pairs,
    built from an in-edge array in ``(dst, src)`` order."""

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        bitmap: np.ndarray,
        num_vertices: int,
        num_snapshots: int,
        weights: Optional[np.ndarray] = None,
        layout: LayoutKind = LayoutKind.TIME_LOCALITY,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.num_snapshots = int(num_snapshots)
        self.layout = layout
        bits = np.unpackbits(
            bitmap.astype("<u8").view(np.uint8).reshape(bitmap.shape[0], 8),
            axis=1,
            count=num_snapshots,
            bitorder="little",
        ).view(bool)
        self.snap_ids = np.broadcast_to(
            np.arange(num_snapshots, dtype=np.uint8), bits.shape
        )[bits]
        snap_ids = self.snap_ids.astype(np.int64)
        self._live = popcounts(bitmap)
        src_ids = np.repeat(src, self._live)
        self.dst_flat = flat_destination_index(
            layout, np.repeat(dst, self._live), snap_ids, num_vertices, num_snapshots
        ).astype(np.intp, copy=False)
        self.src_flat = flat_destination_index(
            layout, src_ids, snap_ids, num_vertices, num_snapshots
        ).astype(np.intp, copy=False)
        #: Flat source index in C (V, S_g) order, for the boolean masks.
        self.src_flat_c = (src_ids * num_snapshots + snap_ids).astype(np.intp)
        self.weight_stream = None if weights is None else weights[bits]
        self.length = int(self.dst_flat.shape[0])
        #: Stream entries per snapshot (pull mode's dirty-check count).
        self.snap_entry_counts = np.array(
            [np.count_nonzero(bits[:, s]) for s in range(num_snapshots)],
            dtype=np.int64,
        )
        self._src = src

    def dst_vertices(self) -> np.ndarray:
        """Destination vertex per entry (non-decreasing)."""
        if self.layout is LayoutKind.TIME_LOCALITY:
            return self.dst_flat // self.num_snapshots
        return self.dst_flat % self.num_vertices

    @cached_property
    def _source_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ptr, positions)``: stream positions grouped by source vertex."""
        live = self._live
        order = np.argsort(self._src, kind="stable")
        positions = _ragged_ranges((np.cumsum(live) - live)[order], live[order])
        per_source = np.bincount(self._src, weights=live, minlength=self.num_vertices)
        ptr = np.concatenate(([0], np.cumsum(per_source))).astype(np.int64)
        return ptr, positions

    def select_stationary(self, snap_active: np.ndarray) -> Optional[np.ndarray]:
        """Positions live under ``snap_active``; None = the whole stream."""
        if snap_active.all():
            return None
        return np.flatnonzero(snap_active[self.snap_ids])

    def select_monotone(
        self, active: np.ndarray, snap_active: np.ndarray
    ) -> np.ndarray:
        """Positions whose (source, snapshot) is in the frontier, in stream
        order per cell: by masking the stream, or through the per-source
        CSR when the frontier's candidates are few."""
        active_now = active & snap_active[None, :]
        frontier = np.flatnonzero(active_now.any(axis=1))
        if frontier.size == 0:
            return np.empty(0, dtype=np.int64)
        active_flat = active_now.reshape(-1)
        ptr, positions = self._source_csr
        counts = ptr[frontier + 1] - ptr[frontier]
        if int(counts.sum()) * CSR_SELECT_FACTOR >= self.length:
            return np.flatnonzero(active_flat[self.src_flat_c])
        cand = positions[_ragged_ranges(ptr[frontier], counts)]
        return cand[active_flat[self.src_flat_c[cand]]]


def oracle_scatter(
    plan: GatherPlan,
    acc_flat: np.ndarray,
    ufunc: np.ufunc,
    msg: np.ndarray,
    active: Optional[np.ndarray],
    snap_active: np.ndarray,
    edge_op: Optional[str] = None,
) -> int:
    """One scatter through the plan; returns the pairs folded.

    ``active`` given = a monotone frontier, else every running snapshot.
    ``msg`` is one message per cell in physical order; with ``edge_op``
    each pair's message is ``msg[src] op weight`` instead.
    """
    if active is not None:
        sel = plan.select_monotone(active, snap_active)
    else:
        sel = plan.select_stationary(snap_active)
    pick = slice(None) if sel is None else sel
    if edge_op is None:
        oracle_fold(acc_flat, ufunc, plan.dst_flat, msg, sel, plan.src_flat)
    else:
        entry = edge_message(
            edge_op, msg[plan.src_flat[pick]], plan.weight_stream[pick]
        )
        oracle_fold(acc_flat, ufunc, plan.dst_flat, entry, sel)
    return plan.length if sel is None else int(sel.shape[0])
