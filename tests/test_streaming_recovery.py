"""Crash-safe streaming ingestion: the kill-then-recover matrix.

Every named crash point (:data:`repro.resilience.faults.CRASH_POINTS`)
is exercised the same way a real death would play out: the injected
:class:`~repro.errors.InjectedCrash` leaves on disk exactly the bytes a
SIGKILLed process would have handed the OS, the "process" (the store
object) is abandoned, and a fresh :class:`StreamingStore` opens the
directory. The acceptance identities:

- recovery succeeds at every crash point, and finishing the interrupted
  work yields a store whose analytics are **bitwise identical** to a
  run that never crashed;
- recovery is **idempotent**: recovering twice (or recovering an
  already-clean store) yields the same logical fingerprint.

The hypothesis property test generalises both over random activity
streams and random kill points, in serial and process-executor runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import make_program
from repro.cache import fingerprint
from repro.cache.result_cache import reset_process_caches
from repro.engine import EngineConfig, run
from repro.errors import InjectedCrash, StorageError, TemporalGraphError
from repro.resilience import faults
from repro.streaming import StreamingStore, fsck_store
from repro.streaming.wal import FSYNC_POLICIES
from repro.temporal.activity import (
    Activity,
    ActivityKind,
    add_edge,
    add_vertex,
    del_edge,
)
from repro.temporal.graph import TemporalGraph

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _batch_a():
    return [add_edge(i, i + 1, t) for t, i in enumerate(range(5), start=1)]


def _batch_b():
    return [
        add_edge(0, 3, 10),
        del_edge(1, 2, 11),
        add_vertex(7, 12),
        add_edge(7, 0, 13, weight=2.5),
    ]


def _reference_fingerprint(tmp_path):
    """The fingerprint of the never-crashed append/compact/append run."""
    with StreamingStore(tmp_path / "ref") as ref:
        ref.append(_batch_a())
        ref.compact()
        ref.append(_batch_b())
        return ref.fingerprint()


def _analytics(store, app="pagerank", executor="serial", workers=2):
    series = store.series(store.graph().evenly_spaced_times(6))
    config = EngineConfig(executor=executor, workers=workers, batch_size=3)
    return run(series, make_program(app), config).decoded()


# --------------------------------------------------------------------- #
# the kill-then-recover matrix
# --------------------------------------------------------------------- #


class TestCrashMatrix:
    @pytest.mark.parametrize("point", faults.CRASH_POINTS)
    def test_every_crash_point_recovers_bitwise_identical(
        self, tmp_path, point
    ):
        ref_fp = _reference_fingerprint(tmp_path)
        store_dir = tmp_path / "store"
        victim = StreamingStore(store_dir, fsync="always")
        victim.append(_batch_a())
        plan = faults.FaultPlan()
        plan.crash_point(point)
        with faults.injected(plan):
            with pytest.raises(InjectedCrash):
                if point.startswith("wal."):
                    victim.compact()
                    victim.append(_batch_b())
                else:
                    victim.compact()
        assert plan.fired.get("crash") == 1

        # The process died; a fresh open is the recovery path.
        survivor = StreamingStore(store_dir, fsync="always")
        # Redo whatever work the dead process never acked.
        if point == "wal.append":
            survivor.append(_batch_b())  # torn frame: batch was lost
        elif point == "wal.fsync":
            # The frame reached the OS before the death: already there.
            assert survivor.fingerprint() == ref_fp
        else:
            survivor.compact()
            survivor.append(_batch_b())
        assert survivor.fingerprint() == ref_fp

        # Idempotency: a second recovery changes nothing.
        survivor.close()
        with StreamingStore(store_dir) as again:
            assert again.fingerprint() == ref_fp
        assert fsck_store(store_dir)["clean"]

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_fsync_policy_never_changes_the_store(self, tmp_path, policy):
        """A policy decides when bytes reach the disk, never which: every
        policy ingests to the never-crashed reference fingerprint."""
        ref_fp = _reference_fingerprint(tmp_path)
        store_dir = tmp_path / "store"
        with StreamingStore(store_dir, fsync=policy, batch_records=2) as store:
            store.append(_batch_a())
            store.compact()
            store.append(_batch_b())
            assert store.fingerprint() == ref_fp
        with StreamingStore(store_dir) as reopened:
            assert reopened.fingerprint() == ref_fp

    @pytest.mark.parametrize("point", faults.CRASH_POINTS)
    def test_analytics_after_recovery_match_no_crash_run(
        self, tmp_path, point
    ):
        reset_process_caches()
        with StreamingStore(tmp_path / "ref") as ref:
            ref.append(_batch_a())
            ref.compact()
            ref.append(_batch_b())
            expected = _analytics(ref)

        store_dir = tmp_path / "store"
        victim = StreamingStore(store_dir, fsync="always")
        victim.append(_batch_a())
        plan = faults.FaultPlan()
        plan.crash_point(point)
        with faults.injected(plan):
            with pytest.raises(InjectedCrash):
                victim.compact()
                victim.append(_batch_b())

        with StreamingStore(store_dir, fsync="always") as survivor:
            if survivor.generation == 0:
                survivor.compact()
            if survivor.num_activities < len(_batch_a()) + len(_batch_b()):
                survivor.append(_batch_b())
            got = _analytics(survivor)
        np.testing.assert_array_equal(got, expected)

    def test_manifest_swap_crash_preserves_old_generation(self, tmp_path):
        """A death at the commit point leaves the *old* store intact."""
        store_dir = tmp_path / "store"
        victim = StreamingStore(store_dir, fsync="always")
        victim.append(_batch_a())
        victim.compact()
        fp = victim.fingerprint()
        victim.append(_batch_b())
        plan = faults.FaultPlan()
        plan.crash_point("manifest.swap")
        with faults.injected(plan):
            with pytest.raises(InjectedCrash):
                victim.compact()
        with StreamingStore(store_dir) as survivor:
            # Generation 2 never committed; the WAL still carries batch B.
            assert survivor.generation == 1
            assert survivor.recovery.replayed_records == len(_batch_b())
            assert survivor.fingerprint() != fp  # batch B survived the WAL
            # The aborted generation's files were garbage-collected.
            names = {p.name for p in store_dir.glob("edges_*.chronos")}
            assert all(name.startswith("edges_g0001_") for name in names)


# --------------------------------------------------------------------- #
# recovery semantics beyond the matrix
# --------------------------------------------------------------------- #


class TestRecoverySemantics:
    def test_recovery_report_counts_replay(self, tmp_path):
        with StreamingStore(tmp_path / "s") as store:
            store.append(_batch_a())
            store.append(_batch_b())
        with StreamingStore(tmp_path / "s") as store:
            report = store.recovery
            assert not report.had_base
            assert report.replayed_frames == 2
            assert report.replayed_records == len(_batch_a()) + len(_batch_b())
            assert report.truncated_bytes == 0

    def test_absorbed_frames_are_skipped_not_replayed_twice(self, tmp_path):
        """Crash between manifest swap and WAL reset == worst case for
        idempotency: every frame is both absorbed and still in the WAL."""
        store_dir = tmp_path / "s"
        store = StreamingStore(store_dir, fsync="always")
        store.append(_batch_a())
        fp = store.fingerprint()
        # Simulate the torn instant: compact commits the manifest but the
        # process dies before WalWriter.reset() truncates the log.
        from repro.streaming.compact import compact_to

        compact_to(
            store_dir, store.graph(), generation=1,
            absorbed_seq=store.last_seq,
        )
        store.close()  # WAL still holds the absorbed frame
        with StreamingStore(store_dir) as survivor:
            assert survivor.recovery.skipped_frames == 1
            assert survivor.recovery.replayed_frames == 0
            assert survivor.fingerprint() == fp

    def test_append_rejects_time_regression_without_touching_wal(
        self, tmp_path
    ):
        with StreamingStore(tmp_path / "s") as store:
            store.append(_batch_a())
            seq = store.last_seq
            with pytest.raises(TemporalGraphError):
                store.append([add_edge(9, 8, 0)])  # before the head's tail
            assert store.last_seq == seq
            assert store.num_activities == len(_batch_a())

    def test_empty_store_graph_raises_typed_error(self, tmp_path):
        with StreamingStore(tmp_path / "s") as store:
            with pytest.raises(StorageError):
                store.graph()

    def test_corrupt_manifest_is_a_typed_error(self, tmp_path):
        store_dir = tmp_path / "s"
        with StreamingStore(store_dir) as store:
            store.append(_batch_a())
            store.compact()
        (store_dir / "manifest.json").write_text("{ not json")
        with pytest.raises(StorageError):
            StreamingStore(store_dir)

    def test_vertex_activities_survive_compaction(self, tmp_path):
        acts = [
            add_vertex(4, 1),
            add_edge(0, 1, 2),
            add_edge(1, 2, 3),
        ]
        with StreamingStore(tmp_path / "s") as store:
            store.append(acts)
            fp = store.fingerprint()
            store.compact()
            assert store.fingerprint() == fp
        with StreamingStore(tmp_path / "s") as store:
            assert store.fingerprint() == fp
            graph = store.graph()
            assert graph.vertex_live_at(4, 3)

    def test_num_vertices_floor_survives_compaction(self, tmp_path):
        """Trailing vertices with no activities must not vanish."""
        with StreamingStore(tmp_path / "s") as store:
            store.append([add_vertex(9, 1), add_edge(0, 1, 2)])
            n = store.graph().num_vertices
            store.compact()
            assert store.graph().num_vertices == n
        with StreamingStore(tmp_path / "s") as store:
            assert store.graph().num_vertices == n

    def test_weighted_delete_survives_compaction(self, tmp_path):
        """A delete's weight means nothing, so the log drops it: reopening
        from the WAL and from a compacted base give the same log."""
        acts = [
            add_vertex(0, 1),
            add_vertex(1, 1),
            add_edge(0, 1, 2, 2.0),
            Activity(time=5, kind=ActivityKind.DEL_EDGE, src=0, dst=1, weight=7.0),
            add_edge(0, 1, 6, 3.0),
        ]
        store_dir = tmp_path / "s"
        with StreamingStore(store_dir) as store:
            store.append(acts)
            fp = store.fingerprint()
            records = store.graph().columns().records.tobytes()
        with StreamingStore(store_dir) as store:  # replayed from the WAL
            assert store.fingerprint() == fp
            assert store.graph().columns().records.tobytes() == records
            store.compact()
        with StreamingStore(store_dir) as store:  # read from the base
            assert store.recovery.had_base
            assert store.fingerprint() == fp
            assert store.graph().columns().records.tobytes() == records


# --------------------------------------------------------------------- #
# result-cache freshness across appends (reuse="incremental")
# --------------------------------------------------------------------- #


class TestIncrementalFreshness:
    def test_prefix_groups_hit_cache_after_append(self, tmp_path, monkeypatch):
        reset_process_caches()
        with StreamingStore(tmp_path / "s") as store:
            store.append(
                [add_edge(i % 20, (i * 7 + 1) % 20, t)
                 for t, i in enumerate(range(200), start=1)]
            )
            times = list(store.graph().evenly_spaced_times(8))
            config = EngineConfig(reuse="incremental", batch_size=4)
            program = make_program("pagerank")
            series = store.series(times)
            first = run(series, program, config)
            assert first.cached_groups == 0

            store.append(
                [add_edge((i * 3) % 20, (i * 11 + 2) % 20, 201 + i)
                 for i in range(50)]
            )
            times2 = times + [230, 251]
            digests = []
            digest = fingerprint.digest_bytes
            monkeypatch.setattr(
                fingerprint,
                "digest_bytes",
                lambda *chunks: digests.append(1) or digest(*chunks),
            )
            series2 = store.series(times2)
            second = run(series2, program, config)
            # The unchanged prefix groups are the first series' views,
            # fingerprints included: only the new group is sliced and hashed.
            assert second.cached_groups == 2
            for start, stop in ((0, 4), (4, 8)):
                assert series2.group(start, stop) is series.group(start, stop)
            assert len(digests) == 1
            monkeypatch.undo()
            fresh = run(
                TemporalGraph.from_columns(store.graph().columns()).series(times2),
                program,
                EngineConfig(batch_size=4),
            )
            np.testing.assert_array_equal(
                second.decoded(), fresh.decoded()
            )

    def test_compaction_does_not_invalidate_cache(self, tmp_path):
        reset_process_caches()
        with StreamingStore(tmp_path / "s") as store:
            store.append(_batch_a() + _batch_b())
            times = list(store.graph().evenly_spaced_times(6))
            config = EngineConfig(reuse="cache", batch_size=3)
            program = make_program("wcc")
            run(store.series(times), program, config)
            store.compact()
            result = run(store.series(times), program, config)
            assert result.cached_groups == 2  # every group served


# --------------------------------------------------------------------- #
# the property test: random streams, random kills, executor parity
# --------------------------------------------------------------------- #


@st.composite
def activity_streams(draw):
    """A time-ordered random stream chopped into append batches."""
    num_vertices = draw(st.integers(min_value=3, max_value=8))
    n_ops = draw(st.integers(min_value=4, max_value=40))
    acts = []
    t = 1
    for _ in range(n_ops):
        t += draw(st.integers(min_value=0, max_value=2))
        u = draw(st.integers(min_value=0, max_value=num_vertices - 1))
        v = draw(st.integers(min_value=0, max_value=num_vertices - 1))
        if u == v:
            continue
        acts.append(
            add_edge(u, v, t, weight=float(draw(
                st.integers(min_value=1, max_value=4)
            )))
        )
    if not acts:
        acts = [add_edge(0, 1, 1)]
    n_batches = draw(st.integers(min_value=1, max_value=4))
    size = max(1, len(acts) // n_batches)
    return [acts[i : i + size] for i in range(0, len(acts), size)]


@given(
    batches=activity_streams(),
    point=st.sampled_from(faults.CRASH_POINTS),
    compact_first=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_property_recovery_is_exact(tmp_path_factory, batches, point,
                                    compact_first):
    """Kill at a random crash point on a random stream; after recovery
    plus a redo of unacked work, the store is bitwise identical to one
    that never crashed."""
    tmp_path = tmp_path_factory.mktemp("prop")
    with StreamingStore(tmp_path / "ref", fsync="always") as ref:
        for batch in batches:
            ref.append(batch)
        if compact_first:
            ref.compact()
        ref.compact()
        ref_fp = ref.fingerprint()

    store_dir = tmp_path / "store"
    victim = StreamingStore(store_dir, fsync="always")
    for batch in batches:
        victim.append(batch)
    if compact_first:
        victim.compact()
    plan = faults.FaultPlan()
    plan.crash_point(point)
    with faults.injected(plan):
        try:
            victim.compact()
            crashed = False
        except InjectedCrash:
            crashed = True
    assert crashed or plan.fired.get("crash") is None

    with StreamingStore(store_dir, fsync="always") as survivor:
        # Whatever the death interrupted, the log is intact: finishing
        # the compaction must converge on the reference store.
        survivor.compact()
        assert survivor.fingerprint() == ref_fp
    with StreamingStore(store_dir) as again:
        assert again.fingerprint() == ref_fp
    assert fsck_store(store_dir)["clean"]


def test_recovered_store_matches_under_process_executor(tmp_path):
    """Serial and process-executor analytics agree on a recovered store."""
    reset_process_caches()
    store_dir = tmp_path / "store"
    victim = StreamingStore(store_dir, fsync="always")
    victim.append(
        [add_edge(i % 12, (i * 5 + 1) % 12, t)
         for t, i in enumerate(range(120), start=1)]
    )
    plan = faults.FaultPlan()
    plan.crash_point("manifest.swap")
    with faults.injected(plan):
        with pytest.raises(InjectedCrash):
            victim.compact()
    with StreamingStore(store_dir) as survivor:
        survivor.compact()
        serial = _analytics(survivor, app="pagerank", executor="serial")
        parallel = _analytics(
            survivor, app="pagerank", executor="process", workers=2
        )
    np.testing.assert_array_equal(serial, parallel)
