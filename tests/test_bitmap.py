"""Unit tests for snapshot bitmap helpers."""

import pytest

from repro.temporal import bit, bits_iter, mask_below, popcount
from repro.temporal.bitmap import MAX_SNAPSHOTS


class TestBit:
    def test_single_bits(self):
        assert bit(0) == 1
        assert bit(5) == 32
        assert bit(63) == 1 << 63

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bit(64)
        with pytest.raises(ValueError):
            bit(-1)


class TestMaskBelow:
    def test_values(self):
        assert mask_below(0) == 0
        assert mask_below(3) == 0b111
        assert mask_below(MAX_SNAPSHOTS) == (1 << 64) - 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mask_below(65)


class TestPopcount:
    def test_examples(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount(mask_below(64)) == 64

    def test_array_form_matches_scalar(self):
        import numpy as np

        from repro.temporal.bitmap import popcounts

        rng = np.random.default_rng(0)
        bitmaps = rng.integers(0, 1 << 63, size=200, dtype=np.uint64) << np.uint64(
            1
        ) | rng.integers(0, 2, size=200, dtype=np.uint64)
        bitmaps[:3] = [0, 1, mask_below(64)]
        counts = popcounts(bitmaps)
        assert counts.dtype == np.int64
        assert counts.tolist() == [popcount(b) for b in bitmaps.tolist()]


class TestBitsIter:
    def test_ascending_order(self):
        assert list(bits_iter(0b101001)) == [0, 3, 5]

    def test_empty(self):
        assert list(bits_iter(0)) == []

    def test_roundtrip(self):
        bm = 0
        for s in (1, 7, 42, 63):
            bm |= bit(s)
        assert list(bits_iter(bm)) == [1, 7, 42, 63]
