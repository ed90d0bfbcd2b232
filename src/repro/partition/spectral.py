"""Spectral vertex placement (Fiedler-vector ordering).

The paper orders vertices inside each partition by spectral placement so
the structure-locality dimension gets whatever linear locality the graph
admits (Section 6, citing Grace). :func:`spectral_order` computes the
ordering; :func:`apply_ordering` relabels a snapshot series so the engine's
id-order layout follows it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import PartitionError
from repro.partition.adjacency import Adjacency
from repro.temporal.series import SnapshotSeriesView


def fiedler_vector(adj: Adjacency, iterations: int = 200, seed: int = 0) -> np.ndarray:
    """Approximate the Laplacian's second eigenvector.

    Uses power iteration on ``cI - L`` with deflation of the constant
    vector — dependency-free and deterministic, accurate enough for an
    ordering heuristic.
    """
    V = adj.num_vertices
    if V == 0:
        raise PartitionError("empty graph has no Fiedler vector")
    deg = np.zeros(V)
    np.add.at(deg, np.repeat(np.arange(V), np.diff(adj.index)), adj.eweight)
    c = 2.0 * (deg.max() if V else 1.0) + 1.0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(V)
    src = np.repeat(np.arange(V), np.diff(adj.index))
    for _ in range(iterations):
        x -= x.mean()  # deflate the constant eigenvector
        norm = np.linalg.norm(x)
        if norm == 0:
            return np.zeros(V)
        x /= norm
        # y = (cI - L) x = c*x - deg*x + A x
        ax = np.zeros(V)
        np.add.at(ax, src, adj.eweight * x[adj.nbr])
        x = c * x - deg * x + ax
    x -= x.mean()
    return x


def spectral_order(
    adj: Adjacency,
    part: Optional[np.ndarray] = None,
    iterations: int = 200,
    seed: int = 0,
) -> np.ndarray:
    """Vertex permutation: partition-major, Fiedler-sorted within each.

    Returns ``order`` such that ``order[i]`` is the old id placed at new
    position ``i``.
    """
    V = adj.num_vertices
    fied = fiedler_vector(adj, iterations=iterations, seed=seed)
    if part is None:
        part = np.zeros(V, dtype=np.int64)
    return np.lexsort((fied, part)).astype(np.int64)


def apply_ordering(
    series: SnapshotSeriesView, order: np.ndarray
) -> SnapshotSeriesView:
    """Relabel a series so vertex ``order[i]`` becomes id ``i``.

    The returned series has the same snapshots with permuted ids; use
    ``perm = inverse(order)`` to map results back (``new_id = perm[old]``).
    """
    V = series.num_vertices
    if order.shape[0] != V:
        raise PartitionError(
            f"ordering has {order.shape[0]} entries for {V} vertices"
        )
    perm = np.empty(V, dtype=np.int64)
    perm[order] = np.arange(V)
    return SnapshotSeriesView(
        V,
        series.times,
        perm[series.out_src],
        perm[series.out_dst],
        series.out_bitmap.copy(),
        None if series.out_weight is None else series.out_weight.copy(),
        series.vertex_bitmap[order],
    )
