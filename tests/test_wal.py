"""The WAL layer: frame encoding, scanning, torn tails, fsync policies."""

import os

import pytest

from repro.errors import StorageError
from repro.streaming import wal as walmod
from repro.streaming.wal import (
    HEADER_SIZE,
    WalWriter,
    header_bytes,
    pack_frame,
    pack_record,
    recover_wal,
    scan_wal,
    unpack_record,
)
from repro.temporal.activity import (
    add_edge,
    add_vertex,
    del_edge,
    mod_edge,
)


def _sample_activities():
    return [
        add_vertex(0, 1),
        add_edge(0, 1, 2, weight=3.5),
        mod_edge(0, 1, 3, weight=-1.25),
        del_edge(0, 1, 4),
    ]


# --------------------------------------------------------------------- #
# record / frame encoding
# --------------------------------------------------------------------- #


def test_record_roundtrip_covers_every_kind():
    for activity in _sample_activities():
        raw = pack_record(activity)
        assert unpack_record(raw, 0) == activity


def test_del_edge_weight_none_roundtrips_via_nan():
    activity = del_edge(3, 7, 9)
    assert activity.weight is None
    assert unpack_record(pack_record(activity), 0).weight is None


def test_frame_rejects_empty_and_oversized_batches():
    with pytest.raises(StorageError):
        pack_frame(1, [])
    with pytest.raises(StorageError):
        pack_frame(1, [add_edge(0, 1, 1)] * (walmod.MAX_FRAME_RECORDS + 1))


# --------------------------------------------------------------------- #
# scanning
# --------------------------------------------------------------------- #


def _write_wal(path, frames):
    with open(path, "wb") as fh:
        fh.write(header_bytes())
        for seq, acts in frames:
            fh.write(pack_frame(seq, acts))


def test_scan_clean_log(tmp_path):
    path = tmp_path / "wal.chronos"
    acts = _sample_activities()
    _write_wal(path, [(1, acts[:2]), (2, acts[2:])])
    scan = scan_wal(path)
    assert scan.torn_bytes == 0
    assert scan.torn_reason is None
    assert [f.seq for f in scan.frames] == [1, 2]
    assert scan.num_records == 4
    assert scan.last_seq == 2
    recovered = [a for f in scan.frames for a in f.activities]
    assert recovered == acts


def test_scan_stops_at_torn_frame_keeps_valid_prefix(tmp_path):
    path = tmp_path / "wal.chronos"
    acts = _sample_activities()
    _write_wal(path, [(1, acts)])
    extra = pack_frame(2, acts)
    with open(path, "ab") as fh:
        fh.write(extra[: len(extra) // 2])
    scan = scan_wal(path)
    assert [f.seq for f in scan.frames] == [1]
    assert scan.torn_bytes == len(extra) // 2
    assert scan.torn_reason is not None


def test_scan_detects_payload_bitflip(tmp_path):
    path = tmp_path / "wal.chronos"
    _write_wal(path, [(1, _sample_activities())])
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF  # flip a bit inside the last record
    path.write_bytes(bytes(raw))
    scan = scan_wal(path)
    assert scan.frames == []
    assert scan.torn_reason == "frame payload checksum mismatch"
    assert scan.valid_end == HEADER_SIZE


def test_scan_rejects_sequence_regression(tmp_path):
    path = tmp_path / "wal.chronos"
    acts = _sample_activities()
    _write_wal(path, [(5, acts[:1]), (5, acts[1:2])])
    scan = scan_wal(path)
    assert [f.seq for f in scan.frames] == [5]
    assert "sequence regression" in scan.torn_reason


def test_scan_raises_on_damaged_header(tmp_path):
    path = tmp_path / "wal.chronos"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(StorageError):
        scan_wal(path)


# --------------------------------------------------------------------- #
# recovery (truncation)
# --------------------------------------------------------------------- #


def test_recover_truncates_torn_tail_idempotently(tmp_path):
    path = tmp_path / "wal.chronos"
    acts = _sample_activities()
    _write_wal(path, [(1, acts)])
    clean_size = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(pack_frame(2, acts)[:7])
    scan = recover_wal(path)
    assert scan.torn_bytes == 7
    assert path.stat().st_size == clean_size
    # Recovery of an already-clean log changes nothing (idempotent).
    again = recover_wal(path)
    assert again.torn_bytes == 0
    assert [f.seq for f in again.frames] == [1]


def test_recover_reinitialises_torn_header(tmp_path):
    path = tmp_path / "wal.chronos"
    path.write_bytes(header_bytes()[:3])  # died mid-header write
    scan = recover_wal(path)
    assert scan.frames == []
    assert "re-initialised" in scan.torn_reason
    # The file is a valid empty WAL again.
    assert scan_wal(path).frames == []


# --------------------------------------------------------------------- #
# the writer + fsync policies
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("policy", walmod.FSYNC_POLICIES)
def test_writer_appends_are_scannable(tmp_path, policy):
    path = tmp_path / "wal.chronos"
    acts = _sample_activities()
    with WalWriter(path, fsync=policy, batch_records=2) as writer:
        assert writer.append(acts[:2]) == 1
        assert writer.append(acts[2:]) == 2
    scan = scan_wal(path)
    assert [f.seq for f in scan.frames] == [1, 2]
    assert [a for f in scan.frames for a in f.activities] == acts


def test_writer_rejects_unknown_policy_and_bad_batch(tmp_path):
    with pytest.raises(StorageError):
        WalWriter(tmp_path / "w", fsync="sometimes")
    with pytest.raises(StorageError):
        WalWriter(tmp_path / "w", batch_records=0)


def test_writer_resumes_sequence_numbers(tmp_path):
    path = tmp_path / "wal.chronos"
    with WalWriter(path) as writer:
        writer.append(_sample_activities())
    last = scan_wal(path).last_seq
    with WalWriter(path, next_seq=last + 1) as writer:
        assert writer.append(_sample_activities()[:1]) == last + 1


def test_writer_reset_keeps_sequence_monotonic(tmp_path):
    path = tmp_path / "wal.chronos"
    with WalWriter(path) as writer:
        writer.append(_sample_activities())
        writer.reset()
        assert os.path.getsize(path) == HEADER_SIZE
        # Sequences continue past the reset: replay idempotency depends
        # on them never being reused.
        assert writer.append(_sample_activities()[:1]) == 2
    assert [f.seq for f in scan_wal(path).frames] == [2]


def test_writer_use_after_close_raises(tmp_path):
    writer = WalWriter(tmp_path / "wal.chronos")
    writer.close()
    with pytest.raises(StorageError):
        writer.append(_sample_activities()[:1])


# --------------------------------------------------------------------- #
# records the scanner must refuse, and ids the writer must refuse
# --------------------------------------------------------------------- #

NAN = float("nan")


@pytest.mark.parametrize(
    "record",
    [
        pytest.param((5, 0, 1, 1, 1.0), id="unknown-kind"),
        pytest.param((2, 0, 1, -1, 1.0), id="negative-time"),
        pytest.param((0, 0, -1, -5, NAN), id="negative-time-vertex"),
        pytest.param((2, 0, -1, 1, 1.0), id="addE-without-dst"),
        pytest.param((3, 0, -2, 1, NAN), id="delE-negative-dst"),
        pytest.param((2, 0, 1, 1, NAN), id="addE-without-weight"),
        pytest.param((4, 0, 1, 1, NAN), id="modE-without-weight"),
        pytest.param((0, 0, 3, 1, NAN), id="addV-with-dst"),
        pytest.param((1, 0, -2, 1, NAN), id="delV-dst-not-minus-one"),
        pytest.param((0, 0, -1, 1, 2.0), id="addV-with-weight"),
    ],
)
def test_scan_stops_at_crc_valid_frame_with_an_invalid_record(tmp_path, record):
    """A record no ``Activity`` could have produced, behind a valid CRC,
    ends the scan at its frame like any other torn tail."""
    import struct
    import zlib

    acts = _sample_activities()
    payload = struct.pack("<QH", 2, 2) + pack_record(acts[1])
    payload += struct.pack("<BIqqd", *record)
    bad = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    path = tmp_path / "wal.chronos"
    _write_wal(path, [(1, acts)])
    clean_size = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(bad)
        fh.write(pack_frame(3, acts))
    scan = scan_wal(path)
    assert [f.seq for f in scan.frames] == [1]
    assert scan.torn_reason == "undecodable activity record"
    assert scan.valid_end == clean_size
    assert scan.torn_bytes == path.stat().st_size - clean_size


@pytest.mark.parametrize(
    "activity",
    [
        pytest.param(add_edge(2**32, 1, 5), id="src-past-u32"),
        pytest.param(add_vertex(2**32, 5), id="vertex-past-u32"),
        pytest.param(add_edge(1, 2**63, 5), id="dst-past-i64"),
        pytest.param(add_edge(1, 2, 2**63), id="time-past-i64"),
    ],
)
def test_ids_and_times_outside_the_record_format_are_typed_errors(
    tmp_path, activity
):
    """The write path raises ``StorageError`` (not ``struct.error`` or
    ``OverflowError``) before a byte reaches the WAL or the head."""
    from repro.streaming import StreamingStore

    with pytest.raises(StorageError):
        pack_record(activity)
    wal_path = tmp_path / "s" / walmod.WAL_NAME
    with StreamingStore(tmp_path / "s") as store:
        store.append(_sample_activities())
        before = (
            wal_path.stat().st_size,
            store.num_activities,
            store.last_time,
            store.last_seq,
        )
        with pytest.raises(StorageError):
            store.append([add_edge(3, 4, 5), activity])
        assert before == (
            wal_path.stat().st_size,
            store.num_activities,
            store.last_time,
            store.last_seq,
        )
        assert store.append([add_edge(3, 4, 5)]) == before[3] + 1
    assert scan_wal(wal_path).num_records == 5
