"""Apply's native settle pass against the NumPy bookkeeping it replaced.

:func:`repro.native.settle` writes the program's candidate values on the
live cells of the running snapshots and sets the frontier word bits of the
cells that changed; ``tests/apply_oracle.py`` keeps the ``np.where`` /
``changed`` / ``any`` phase it replaced. They must agree on value bytes,
frontier words and the running word over hostile cells: NaN payloads,
±inf, ``-0.0`` against ``0.0``, dead cells, partial running masks,
``tol > 0``, both layouts and C-, F-ordered, broadcast, ``float32`` and
integer candidates.
"""

import numpy as np
import pytest

from repro import native
from repro.algorithms import PageRank
from repro.engine import EngineConfig, run
from repro.engine.kernels import frontier_words, snapshot_mask
from repro.errors import EngineError
from tests.apply_oracle import oracle_settle


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


#: Cells that break a careless comparison: signed zeros, infinities, the
#: tolerance's neighbourhood, a subnormal and NaNs with distinct payloads.
POOL = np.array(
    [
        0.0, -0.0, 1.0, -1.0, 1.0 + 1e-6, 1.0 + 1e-3, 1.002, 2.0, np.inf,
        -np.inf, 5e-324, 1e308, _nan(0x7FF8000000000001),
        _nan(0x7FF800000000BEEF), _nan(0xFFF8000000000000),
    ]
)
TOLS = (0.0, 1e-3)


def _cells(rng, V, S, layout):
    """A ``(V, S)`` value view over hostile cells, in ``layout`` order."""
    phys = np.empty((V, S) if layout == "time" else (S, V))
    values = phys if layout == "time" else phys.T
    values[:] = rng.choice(POOL, size=(V, S))
    return values


def _candidates(rng, values, form):
    """The program's apply result: hostile, often equal to the old value."""
    V, S = values.shape
    cand = np.where(rng.random((V, S)) < 0.3, values, rng.choice(POOL, (V, S)))
    if form == "C":
        return np.ascontiguousarray(cand)
    if form == "F":
        return np.asfortranarray(cand)
    if form == "row":
        return np.ascontiguousarray(cand[0])  # (S,): broadcasts over vertices
    if form == "column":
        return np.ascontiguousarray(cand[:, :1])  # (V, 1): over snapshots
    if form == "float32":
        with np.errstate(over="ignore"):
            return cand.astype(np.float32)
    assert form == "int"
    return rng.integers(-2, 3, size=(V, S))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("layout", ["time", "structure"])
@pytest.mark.parametrize("form", ["C", "F", "row", "column", "float32", "int"])
def test_settle_equals_the_numpy_oracle(seed, layout, form):
    rng = np.random.default_rng(seed)
    V, S = int(rng.integers(1, 40)), int(rng.integers(1, 65))
    for tol in TOLS:
        values = _cells(rng, V, S, layout)
        cand = _candidates(rng, values, form)
        exists = rng.random((V, S)) < 0.8
        running = rng.random(S) < (1.0 if seed % 3 == 0 else 0.6)
        full = np.ones(S, dtype=bool)
        want_values, want_front, want_running = oracle_settle(
            values.copy(), cand, exists, running, tol
        )
        # Stale bits in every word: the pass must clear what did not move.
        front = rng.integers(0, 2**63, size=V, dtype=np.uint64)
        got = native.settle(
            values,
            cand,
            frontier_words(exists, full),
            snapshot_mask(running),
            front,
            tol,
            "probe",
        )
        assert values.tobytes(order="C") == want_values.tobytes(order="C")
        assert front.tolist() == frontier_words(want_front, full).tolist()
        assert got == snapshot_mask(want_running)


def test_settle_reads_a_candidate_that_aliases_the_values():
    values = np.array([[1.0, 2.0], [3.0, np.nan]])
    front = np.zeros(2, dtype=np.uint64)
    exists = np.full(2, 0b11, dtype=np.uint64)
    # A reversed view of the values themselves: every cell reads the
    # candidate as it was before the pass wrote any.
    got = native.settle(values, values[::-1], exists, 0b11, front, 0.0, "probe")
    assert values[0, 0] == 3.0 and np.isnan(values[0, 1])
    assert values[1].tolist() == [1.0, 2.0]
    assert front.tolist() == [0b01, 0b11] and got == 0b11


class _Misshapen(PageRank):
    name = "misshapen"

    def apply(self, old, acc, group):
        return np.zeros((old.shape[0] + 1, old.shape[1]))


def test_a_misshapen_apply_result_is_a_typed_error(small_series):
    V = small_series.num_vertices
    with pytest.raises(EngineError, match=rf"misshapen.*\({V + 1}, 2\).*\({V}, 2\)"):
        run(small_series, _Misshapen(iterations=2), EngineConfig(batch_size=2))
