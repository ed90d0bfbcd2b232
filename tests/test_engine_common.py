"""Tests for the engine's bitmap helpers: the simulated engine's snapshot
index memo and the boolean-row packing of a group's entry frontier."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine.kernels import snapshot_mask
from repro.engine.traced import snap_indices


class TestSnapIndices:
    def test_examples(self):
        assert list(snap_indices(0)) == []
        assert list(snap_indices(0b1)) == [0]
        assert list(snap_indices(0b1010)) == [1, 3]

    def test_cached_instances(self):
        a = snap_indices(0b110)
        b = snap_indices(0b110)
        assert a is b  # memoised

    @given(st.integers(min_value=0, max_value=(1 << 63) - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_binary_expansion(self, bitmap):
        got = list(snap_indices(bitmap))
        want = [i for i in range(64) if (bitmap >> i) & 1]
        assert got == want


class TestMaskToInt:
    def test_roundtrip_with_unpack(self):
        row = np.array([True, False, True, True])
        assert snapshot_mask(row) == 0b1101

    def test_empty_row(self):
        assert snapshot_mask(np.zeros(5, dtype=bool)) == 0

    @given(st.lists(st.booleans(), min_size=0, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_inverse_of_snap_indices(self, bits):
        row = np.asarray(bits, dtype=bool)
        packed = snapshot_mask(row)
        assert list(snap_indices(packed)) == list(np.nonzero(row)[0])
