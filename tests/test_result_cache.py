"""Tests for the fingerprint-keyed result cache (``repro.cache``).

Positive behaviour: a warm re-run serves every group from cache with
bitwise-identical values and the original logical counters.  Negative
behaviour (the part that makes memoization safe): any edge-file
corruption, program change, or config change must produce a *miss*,
never a stale result, and a damaged disk entry is dropped — a plain
miss — rather than trusted.
"""

import json

import numpy as np
import pytest

from repro.algorithms import (
    MaximalIndependentSet,
    PageRank,
    SingleSourceShortestPath,
)
from repro.cache import (
    ResultCache,
    cache_key,
    config_digest,
    group_fingerprint,
    program_identity,
    reset_process_caches,
    result_cache,
)
from repro.engine import EngineConfig, run, simulate
from repro.engine import runner
from repro.engine.counters import EngineCounters
from repro.errors import EngineError, IntegrityError
from repro.parallel.shm import cut_ranges
from repro.storage import TemporalGraphStore, load_series
from tests.conftest import random_temporal_graph


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test gets a clean process-wide cache registry."""
    reset_process_caches()
    yield
    reset_process_caches()


@pytest.fixture
def graph():
    return random_temporal_graph(seed=7)


@pytest.fixture
def series(graph):
    return graph.series(graph.evenly_spaced_times(6))


def _cfg(tmp_path, **kw):
    kw.setdefault("reuse", "cache")
    kw.setdefault("batch_size", 2)
    return EngineConfig(cache_dir=str(tmp_path / "cache"), **kw)


class TestHitAndMiss:
    def test_warm_run_serves_every_group(self, series, tmp_path):
        prog = SingleSourceShortestPath(0)
        cold = run(series, prog, _cfg(tmp_path))
        assert cold.cached_groups == 0
        warm = run(series, prog, _cfg(tmp_path))
        assert warm.cached_groups == 3  # 6 snapshots / batch_size 2
        np.testing.assert_array_equal(warm.values, cold.values)
        assert warm.counters.iterations == cold.counters.iterations
        assert (
            warm.counters.edge_array_accesses
            == cold.counters.edge_array_accesses
        )

    def test_program_change_misses(self, series, tmp_path):
        run(series, SingleSourceShortestPath(0), _cfg(tmp_path))
        other = run(series, SingleSourceShortestPath(1), _cfg(tmp_path))
        assert other.cached_groups == 0

    def test_program_hyperparameter_change_misses(self, series, tmp_path):
        run(series, PageRank(damping=0.85, iterations=5), _cfg(tmp_path))
        other = run(
            series, PageRank(damping=0.9, iterations=5), _cfg(tmp_path)
        )
        assert other.cached_groups == 0

    def test_config_change_misses(self, series, tmp_path):
        prog = SingleSourceShortestPath(0)
        run(series, prog, _cfg(tmp_path, max_iterations=100))
        other = run(series, prog, _cfg(tmp_path, max_iterations=99))
        assert other.cached_groups == 0

    def test_reuse_policy_keys_separately(self, series, tmp_path):
        """Warm-startable entries never leak across reuse policies."""
        prog = SingleSourceShortestPath(0)
        run(series, prog, _cfg(tmp_path, reuse="incremental"))
        other = run(series, prog, _cfg(tmp_path, reuse="cache"))
        assert other.cached_groups == 0

    def test_executor_is_not_part_of_the_key(self, series, tmp_path):
        """The determinism contract says values are identical across
        executors, so a serial run's entries serve a process run."""
        prog = SingleSourceShortestPath(0)
        cold = run(series, prog, _cfg(tmp_path))
        warm = run(
            series, prog, _cfg(tmp_path, executor="process", workers=2)
        )
        assert warm.cached_groups == 3
        np.testing.assert_array_equal(warm.values, cold.values)

    def test_data_change_misses(self, graph, tmp_path):
        times = graph.evenly_spaced_times(6)
        prog = SingleSourceShortestPath(0)
        run(graph.series(times), prog, _cfg(tmp_path))
        shifted = graph.series(graph.evenly_spaced_times(7))
        other = run(shifted, prog, _cfg(tmp_path))
        assert other.cached_groups == 0

    def test_reuse_rejects_trace(self, series, tmp_path, monkeypatch):
        """A cached group would skip its simulated charges, so simulate()
        refuses reuse before it runs (or stores) any group."""

        def run_group(*args, **kwargs):
            raise AssertionError("simulate() ran a group under reuse")

        monkeypatch.setattr(runner, "run_group", run_group)
        prog = SingleSourceShortestPath(0)
        for reuse in ("cache", "incremental"):
            with pytest.raises(EngineError, match="reuse"):
                simulate(series, prog, _cfg(tmp_path, reuse=reuse))
        assert not (tmp_path / "cache").exists()


class TestStoreInvalidation:
    """On-disk stores: corruption can never serve a stale cache entry."""

    @pytest.fixture
    def store_path(self, graph, tmp_path):
        path = tmp_path / "store"
        TemporalGraphStore.create(path, graph)
        return path

    def test_trailer_flip_changes_store_fingerprint(self, store_path):
        before = TemporalGraphStore(store_path).fingerprint()
        edge_files = sorted(store_path.glob("edges_*.chronos"))
        target = edge_files[-1]
        data = bytearray(target.read_bytes())
        data[-1] ^= 0xFF  # last segment's activity-CRC trailer byte
        target.write_bytes(bytes(data))
        after = TemporalGraphStore(store_path).fingerprint()
        assert before != after

    def test_every_edge_file_contributes(self, store_path, graph):
        """Flipping a trailer byte in *any* group's file shifts the
        store fingerprint, so every group's cache key moves."""
        fingerprints = {TemporalGraphStore(store_path).fingerprint()}
        for target in sorted(store_path.glob("edges_*.chronos")):
            data = bytearray(target.read_bytes())
            data[-1] ^= 0xFF
            target.write_bytes(bytes(data))
            fp = TemporalGraphStore(store_path).fingerprint()
            assert fp not in fingerprints
            fingerprints.add(fp)

    def test_data_corruption_cannot_reach_the_cache(
        self, store_path, graph, tmp_path
    ):
        """A flipped data byte raises a typed IntegrityError at load
        time — execution (and thus any cache lookup) is never reached."""
        store = TemporalGraphStore(store_path)
        times = graph.evenly_spaced_times(6)
        series = load_series(store, times)
        run(series, SingleSourceShortestPath(0), _cfg(tmp_path))

        target = sorted(store_path.glob("edges_*.chronos"))[0]
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))
        with pytest.raises(IntegrityError):
            load_series(TemporalGraphStore(store_path), times)

    def test_loaded_series_is_served_its_in_memory_twins_entries(
        self, store_path, graph, tmp_path
    ):
        """The key is the group's content: a store-loaded series hands
        the engine the same arrays as ``graph.series``, so it is served
        every group its in-memory twin computed."""
        times = graph.evenly_spaced_times(6)
        prog = SingleSourceShortestPath(0)
        cold = run(graph.series(times), prog, _cfg(tmp_path))
        loaded = load_series(TemporalGraphStore(store_path), times)
        warm = run(loaded, prog, _cfg(tmp_path))
        assert warm.cached_groups == 3
        assert warm.values.tobytes() == cold.values.tobytes()


class TestDiskTier:
    def test_survives_process_cache_reset(self, series, tmp_path):
        prog = SingleSourceShortestPath(0)
        cold = run(series, prog, _cfg(tmp_path))
        reset_process_caches()  # drop the in-memory tier entirely
        warm = run(series, prog, _cfg(tmp_path))
        assert warm.cached_groups == 3
        np.testing.assert_array_equal(warm.values, cold.values)

    def test_damaged_disk_entry_is_dropped_not_trusted(self, series, tmp_path):
        prog = SingleSourceShortestPath(0)
        cold = run(series, prog, _cfg(tmp_path))
        reset_process_caches()
        payloads = sorted((tmp_path / "cache").glob("entry_*.npy"))
        assert payloads
        data = bytearray(payloads[0].read_bytes())
        data[-1] ^= 0xFF
        payloads[0].write_bytes(bytes(data))
        warm = run(series, prog, _cfg(tmp_path))
        # One group recomputed, the rest cached; values still exact.
        assert warm.cached_groups == 2
        np.testing.assert_array_equal(warm.values, cold.values)
        # The bad entry was unlinked and rewritten by the recompute.
        reset_process_caches()
        again = run(series, prog, _cfg(tmp_path))
        assert again.cached_groups == 3

    def test_missing_sidecar_is_a_miss(self, series, tmp_path):
        prog = SingleSourceShortestPath(0)
        run(series, prog, _cfg(tmp_path))
        reset_process_caches()
        sorted((tmp_path / "cache").glob("entry_*.json"))[0].unlink()
        warm = run(series, prog, _cfg(tmp_path))
        assert warm.cached_groups == 2

    def test_verify_and_clear(self, series, tmp_path):
        run(series, SingleSourceShortestPath(0), _cfg(tmp_path))
        cache = result_cache(str(tmp_path / "cache"))
        report = cache.verify()
        assert report["checked"] == 3 and report["invalid"] == 0
        payload = sorted((tmp_path / "cache").glob("entry_*.npy"))[0]
        payload.write_bytes(b"garbage")
        assert cache.verify()["invalid"] == 1
        removed = cache.clear()
        assert removed >= 2
        assert not list((tmp_path / "cache").glob("entry_*"))


class TestMemoryTier:
    def _entry(self, key, n=4):
        values = np.arange(n, dtype=np.float64).reshape(n, 1) + hash(key) % 7
        return values, EngineCounters(iterations=1)

    def test_lru_eviction(self):
        cache = ResultCache(directory=None, memory_entries=2)
        for key in ("k1", "k2", "k3"):
            values, counters = self._entry(key)
            cache.put(key, values, counters, meta={})
        assert cache.get("k1") is None  # evicted, no disk tier to fall to
        assert cache.get("k2") is not None
        assert cache.get("k3") is not None

    def test_get_refreshes_recency(self):
        cache = ResultCache(directory=None, memory_entries=2)
        for key in ("k1", "k2"):
            values, counters = self._entry(key)
            cache.put(key, values, counters, meta={})
        cache.get("k1")  # k2 is now least recent
        values, counters = self._entry("k3")
        cache.put("k3", values, counters, meta={})
        assert cache.get("k1") is not None
        assert cache.get("k2") is None

    def test_entries_are_read_only(self):
        cache = ResultCache(directory=None)
        values, counters = self._entry("k")
        cache.put("k", values, counters, meta={})
        entry = cache.get("k")
        with pytest.raises(ValueError):
            entry.values[0, 0] = 99.0


class TestKeys:
    def test_key_composition(self, series):
        group = series.group(0, 2)
        prog = SingleSourceShortestPath(0)
        cfg = EngineConfig(reuse="cache")
        k1 = cache_key(
            group_fingerprint(group), program_identity(prog), config_digest(cfg)
        )
        k2 = cache_key(
            group_fingerprint(group),
            program_identity(SingleSourceShortestPath(1)),
            config_digest(cfg),
        )
        assert k1 != k2
        assert k1 == cache_key(
            group_fingerprint(group), program_identity(prog), config_digest(cfg)
        )

    def test_array_parameters_are_keyed(self, tmp_path):
        """Array-valued parameters (MIS priorities) are part of the key:
        a run with other priorities is a miss, never the first run's
        values."""
        sym = random_temporal_graph(seed=7, symmetric=True)
        series = sym.series(sym.evenly_spaced_times(6))
        rng = np.random.default_rng(5)
        p1 = rng.permutation(series.num_vertices) / series.num_vertices
        p2 = p1[::-1].copy()
        assert program_identity(
            MaximalIndependentSet(p1)
        ) != program_identity(MaximalIndependentSet(p2))
        assert program_identity(
            MaximalIndependentSet(p1)
        ) == program_identity(MaximalIndependentSet(p1.copy()))
        # dtype and shape are part of an array's identity, not just bytes.
        p3 = np.arange(6, dtype=np.float64) / 6
        assert len({
            program_identity(MaximalIndependentSet(q))
            for q in (p3, p3.astype(np.float32), p3.reshape(2, 3))
        }) == 3
        run(series, MaximalIndependentSet(p1), _cfg(tmp_path))
        got = run(series, MaximalIndependentSet(p2), _cfg(tmp_path))
        fresh = run(
            series, MaximalIndependentSet(p2), EngineConfig(batch_size=2)
        )
        assert got.cached_groups == 0
        assert got.values.tobytes() == fresh.values.tobytes()

    def test_primitive_parameter_keys_are_unchanged(self):
        """Programs with primitive parameters keep their program
        identity digest (``CACHE_FORMAT`` versions the key, not it)."""
        assert program_identity(SingleSourceShortestPath(3)) == (
            "77fd7749bb30ade71efa9939fa4a9bc9"
        )

    def test_unkeyable_parameter_is_a_typed_error(self, series, tmp_path):
        prog = SingleSourceShortestPath(0)
        prog.sources = [0, 1]
        with pytest.raises(EngineError, match="sources"):
            program_identity(prog)
        with pytest.raises(EngineError):
            run(series, prog, _cfg(tmp_path))
        # Outside reuse no key is derived, so the program runs.
        run(series, prog, EngineConfig(batch_size=2))

    def test_group_fingerprint_depends_on_contents(self, graph):
        s1 = graph.series(graph.evenly_spaced_times(4))
        s2 = graph.series(graph.evenly_spaced_times(5))
        assert group_fingerprint(s1.group(0, 2)) != group_fingerprint(
            s2.group(0, 2)
        )


class TestComposition:
    """reuse composes with every engine feature without parity loss."""

    @pytest.mark.parametrize(
        "extra, count_proofs",
        [
            ({}, False),
            ({"executor": "process", "workers": 2}, False),
            ({}, True),
            ({"executor": "process", "workers": 2}, True),
        ],
        ids=["serial", "process", "sanitize", "process+sanitize"],
    )
    @pytest.mark.parametrize("reuse", ["cache", "incremental"])
    def test_parity_matrix(
        self, series, tmp_path, monkeypatch, reuse, extra, count_proofs
    ):
        # The sanitize cells also count the owner-computes proofs: every
        # group a run executes is proven (incremental runs also prove the
        # base runs they seed from), and a group served from the cache is
        # not executed, so it is not proven either.
        proofs = []
        if count_proofs:
            import repro.engine.runner as runner

            def counted(group, workers, start):
                proofs.append(workers)
                return cut_ranges(group, workers, start)

            monkeypatch.setattr(runner, "cut_ranges", counted)
        prog = SingleSourceShortestPath(0)
        scratch = run(series, prog, EngineConfig(batch_size=2, **extra))
        scratch_proofs = len(proofs)
        cfg = _cfg(tmp_path, reuse=reuse, **extra)
        cold = run(series, prog, cfg)
        cold_proofs = len(proofs) - scratch_proofs
        warm = run(series, prog, cfg)
        np.testing.assert_array_equal(cold.values, scratch.values)
        np.testing.assert_array_equal(warm.values, scratch.values)
        assert warm.cached_groups == 3
        if count_proofs:
            assert scratch_proofs == 3
            assert cold_proofs == 3 if reuse == "cache" else cold_proofs >= 3
            assert len(proofs) == scratch_proofs + cold_proofs
            assert set(proofs) == {extra.get("workers", 1)}

    def test_incremental_seeds_and_matches(self, series, tmp_path):
        prog = SingleSourceShortestPath(0)
        scratch = run(series, prog, EngineConfig(batch_size=2))
        inc = run(series, prog, _cfg(tmp_path, reuse="incremental"))
        np.testing.assert_array_equal(inc.values, scratch.values)
        assert inc.seeded_groups > 0

    def test_incremental_warm_start_pagerank_tolerance(
        self, series, tmp_path
    ):
        prog = PageRank(iterations=500, tol=1e-12)
        scratch = run(series, prog, EngineConfig(batch_size=2))
        inc = run(
            series,
            PageRank(iterations=500, tol=1e-12),
            _cfg(tmp_path, reuse="incremental"),
        )
        assert np.allclose(
            inc.values, scratch.values, atol=1e-8, equal_nan=True
        )
        assert inc.seeded_groups > 0


class TestCLI:
    def _run_args(self, tmp_path, reuse="cache"):
        return [
            "run", "--graph", "wiki", "--app", "sssp",
            "--snapshots", "4", "--batch", "2", "--seed", "3",
            "--reuse", reuse, "--cache-dir", str(tmp_path / "cache"),
        ]

    def test_run_reports_cached_groups(self, capsys, tmp_path):
        from repro.cli import main

        assert main(self._run_args(tmp_path)) == 0
        capsys.readouterr()
        reset_process_caches()  # CLI warm runs hit the disk tier
        assert main(self._run_args(tmp_path)) == 0
        assert "2 group(s) from cache" in capsys.readouterr().out

    def test_cache_stats_verify_clear(self, capsys, tmp_path):
        from repro.cli import main

        main(self._run_args(tmp_path))
        cache_dir = str(tmp_path / "cache")
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["disk"]["entries"] == 2

        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0

        payload = sorted((tmp_path / "cache").glob("entry_*.npy"))[0]
        payload.write_bytes(b"garbage")
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1

        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert not list((tmp_path / "cache").glob("entry_*"))
