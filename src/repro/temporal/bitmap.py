"""Snapshot bitmap helpers.

The Chronos edge array associates each edge with a *snapshot bitmap*
(Section 3.2, Figure 3): bit ``s`` is set when the edge exists in snapshot
``s`` of the series. Bitmaps are plain Python ints stored in ``uint64``
NumPy arrays, so one series view supports up to 64 snapshots; longer
snapshot series are processed in LABS groups of at most 64 (the paper's
largest batch size is 32).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ValidationError

MAX_SNAPSHOTS = 64


def bit(s: int) -> int:
    """Return a bitmap with only snapshot ``s`` set."""
    if not 0 <= s < MAX_SNAPSHOTS:
        raise ValidationError(
            f"snapshot index {s} out of range [0, {MAX_SNAPSHOTS})"
        )
    return 1 << s


def mask_below(n: int) -> int:
    """Return a bitmap with snapshots ``0..n-1`` all set."""
    if not 0 <= n <= MAX_SNAPSHOTS:
        raise ValidationError(
            f"snapshot count {n} out of range [0, {MAX_SNAPSHOTS}]"
        )
    return (1 << n) - 1


def popcount(bitmap: int) -> int:
    """Number of snapshots present in ``bitmap``."""
    return int(bitmap).bit_count() if hasattr(int, "bit_count") else bin(bitmap).count("1")


def popcounts(bitmaps: np.ndarray) -> np.ndarray:
    """Per-element :func:`popcount` of a ``uint64`` bitmap array (int64).

    The SWAR bit-count: ``np.bitwise_count`` needs NumPy >= 2.0, above
    the package floor.
    """
    x = bitmaps.astype(np.uint64)
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def bits_iter(bitmap: int) -> Iterator[int]:
    """Yield the snapshot indices set in ``bitmap`` in ascending order."""
    bitmap = int(bitmap)
    while bitmap:
        low = bitmap & -bitmap
        yield low.bit_length() - 1
        bitmap ^= low
