"""The per-snapshot out-degree loop the native pass replaced, kept as its oracle.

Before :func:`repro.native.out_degrees`, a snapshot series counted its
``(V, S)`` out-degrees with one NumPy scan of the edge array per snapshot:
the edges whose bitmap has bit ``s`` set, ``bincount``-ed by source.
:func:`oracle_out_degrees` is that loop; the native pass must equal it
bitwise.
"""

import numpy as np


def oracle_out_degrees(
    src: np.ndarray, bitmap: np.ndarray, num_vertices: int, S: int
) -> np.ndarray:
    """``degrees[v, s]``: edges from ``v`` whose bitmap has bit ``s`` set."""
    degrees = np.zeros((num_vertices, S), dtype=np.int64)
    for s in range(S):
        live = ((bitmap >> np.uint64(s)) & np.uint64(1)).astype(bool)
        degrees[:, s] = np.bincount(src[live], minlength=num_vertices)
    return degrees
