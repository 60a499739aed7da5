"""Tests for repro.service.journal: delta replay parity and corruption paths.

The correctness bar of the incremental persistence layer: state restored from
``full checkpoint + journal replay`` must be **bit-identical** to the live
sketch — array bytes, counters, estimates and LSH candidate sets — across
shard counts, with deletions and cancelled batches in the mutation mix.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro.exceptions import SnapshotError
from repro.index import BandedSketchIndex
from repro.service import SimilarityService
from repro.service.journal import (
    JOURNAL_MAGIC,
    JournalWriter,
    default_journal_path,
    journal_info,
    read_journal,
    replay_journal,
)
from repro.service.snapshot import load_snapshot_state
from repro.streams.edge import Action, StreamElement


def mutation_mix(rng, base_user=0, users=40, rounds=120):
    """Insertions, deletions of previously inserted items, and a cancelled pair."""
    elements = []
    inserted: list[tuple[int, int]] = []
    for _ in range(rounds):
        user = base_user + int(rng.integers(0, users))
        item = int(rng.integers(0, 10**9))
        elements.append(StreamElement(user, item, Action.INSERT))
        inserted.append((user, item))
        if inserted and rng.random() < 0.3:
            del_user, del_item = inserted.pop(int(rng.integers(0, len(inserted))))
            elements.append(StreamElement(del_user, del_item, Action.DELETE))
    # A user whose whole batch cancels exactly: counters move, no array write.
    ghost = base_user + users + 7
    elements.append(StreamElement(ghost, 424242, Action.INSERT))
    elements.append(StreamElement(ghost, 424242, Action.DELETE))
    return elements


def assert_same_sketch_state(live, restored):
    """Bit-identical arrays and counters, shard by shard."""
    live_shards = live.row_shards()
    restored_shards = restored.row_shards()
    assert len(live_shards) == len(restored_shards)
    for a, b in zip(live_shards, restored_shards):
        assert a.shared_array.to_packed_bytes() == b.shared_array.to_packed_bytes()
        assert a.shared_array.ones_count == b.shared_array.ones_count
        assert a.counters() == b.counters()


class TestReplayParity:
    @pytest.mark.parametrize("num_shards", [1, 4, 8])
    def test_full_plus_journal_matches_live(self, tmp_path, num_shards):
        rng = np.random.default_rng(17 + num_shards)
        from repro.service import ServiceConfig

        service = SimilarityService.from_config(
            ServiceConfig(expected_users=100, num_shards=num_shards, seed=5)
        )
        service.ingest(mutation_mix(rng))
        path = tmp_path / "state.vos"
        service.save(path)
        # Three delta rounds with deletions and cancelled batches in the mix.
        for round_index in range(3):
            service.ingest(mutation_mix(rng, base_user=50 * round_index))
            delta = service.save_delta()
            assert delta["records"] >= 1
        restored = SimilarityService.load(path)
        assert_same_sketch_state(service.sketch, restored.sketch)
        users = sorted(service.sketch.users())[:8]
        for i, user_a in enumerate(users):
            for user_b in users[i + 1 :]:
                assert service.estimate(user_a, user_b) == restored.estimate(
                    user_a, user_b
                )
        # LSH candidate sets are reproducible across the restart.
        pool = sorted(service.sketch.users())
        live_pairs = BandedSketchIndex(service.sketch).candidate_pairs(pool)
        restored_pairs = BandedSketchIndex(restored.sketch).candidate_pairs(pool)
        assert live_pairs[0].tolist() == restored_pairs[0].tolist()
        assert live_pairs[1].tolist() == restored_pairs[1].tolist()

    def test_deltas_are_small_when_mutation_is_light(self, tmp_path):
        from repro.service import ServiceConfig

        service = SimilarityService.from_config(
            ServiceConfig(expected_users=2000, num_shards=4, seed=2)
        )
        service.ingest(
            [
                StreamElement(user, item, Action.INSERT)
                for user in range(500)
                for item in range(10)
            ]
        )
        path = tmp_path / "state.vos"
        service.save(path)
        full_bytes = path.stat().st_size
        service.ingest([StreamElement(3, 999999, Action.INSERT)])
        delta = service.save_delta()
        assert delta["bytes"] < full_bytes / 10
        restored = SimilarityService.load(path)
        assert_same_sketch_state(service.sketch, restored.sketch)

    def test_replay_is_skipped_without_matching_journal(self, tmp_path):
        """A journal left behind by an older checkpoint must be ignored."""
        from repro.service import ServiceConfig

        service = SimilarityService.from_config(
            ServiceConfig(expected_users=50, num_shards=2, seed=1)
        )
        service.ingest([StreamElement(1, i, Action.INSERT) for i in range(20)])
        path = tmp_path / "state.vos"
        service.save(path)
        service.ingest([StreamElement(2, i, Action.INSERT) for i in range(20)])
        service.save_delta()
        journal = default_journal_path(path)
        stale = journal.read_bytes()
        # A new full checkpoint resets the journal; resurrect the stale one.
        service.save(path)
        assert not journal.exists()
        journal.write_bytes(stale)
        restored = SimilarityService.load(path)
        assert_same_sketch_state(service.sketch, restored.sketch)

    def test_explicit_stale_journal_raises(self, tmp_path):
        from repro.service import ServiceConfig

        service = SimilarityService.from_config(
            ServiceConfig(expected_users=50, num_shards=2, seed=1)
        )
        service.ingest([StreamElement(1, i, Action.INSERT) for i in range(20)])
        path = tmp_path / "state.vos"
        service.save(path)
        service.ingest([StreamElement(2, i, Action.INSERT) for i in range(20)])
        service.save_delta()
        journal = default_journal_path(path)
        stale = journal.read_bytes()
        service.save(path)
        journal.write_bytes(stale)
        with pytest.raises(SnapshotError, match="bound to checkpoint"):
            SimilarityService.load(path, journal=journal)

    def test_writer_reopen_resumes_sequences(self, tmp_path):
        from repro.service import ServiceConfig

        service = SimilarityService.from_config(
            ServiceConfig(expected_users=50, num_shards=2, seed=3)
        )
        service.ingest([StreamElement(1, i, Action.INSERT) for i in range(30)])
        path = tmp_path / "state.vos"
        service.save(path)
        service.ingest([StreamElement(2, i, Action.INSERT) for i in range(30)])
        service.save_delta()
        # Drop the in-memory writer, as a restarted process would.
        service._journal = None
        service.ingest([StreamElement(3, i, Action.INSERT) for i in range(30)])
        service.save_delta()
        contents = read_journal(default_journal_path(path))
        assert [record.seq for record in contents.records] == list(
            range(1, len(contents.records) + 1)
        )
        restored = SimilarityService.load(path)
        assert_same_sketch_state(service.sketch, restored.sketch)


class TestJournalCorruption:
    """Flipped bits, torn tails and reordered records must never replay silently."""

    @pytest.fixture()
    def journaled(self, tmp_path):
        from repro.service import ServiceConfig

        service = SimilarityService.from_config(
            ServiceConfig(expected_users=50, num_shards=2, seed=4)
        )
        service.ingest([StreamElement(1, i, Action.INSERT) for i in range(30)])
        path = tmp_path / "state.vos"
        service.save(path)
        for user in (2, 3):
            service.ingest(
                [StreamElement(user, i, Action.INSERT) for i in range(25)]
            )
            service.save_delta()
        return path, default_journal_path(path)

    def test_flipped_payload_bit_fails_crc(self, journaled):
        path, journal = journaled
        blob = bytearray(journal.read_bytes())
        blob[-3] ^= 0x10
        journal.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="CRC"):
            SimilarityService.load(path)

    def test_cleanly_truncated_tail_is_skipped(self, journaled):
        path, journal = journaled
        blob = journal.read_bytes()
        journal.write_bytes(blob[:-7])  # tear the final record mid-body
        restored = SimilarityService.load(path)  # must not raise
        info = journal_info(journal)
        assert info["truncated_tail"] is True
        # The writer trims the torn tail before appending again.
        state = load_snapshot_state(path)
        writer = JournalWriter(journal, state.checkpoint_id)
        assert journal.stat().st_size < len(blob)
        assert writer.records_written == info["records"]

    def test_out_of_order_records_raise(self, journaled):
        path, journal = journaled
        blob = journal.read_bytes()
        contents = read_journal(journal)
        assert len(contents.records) >= 2
        # Re-append a copy of the final frame: its seq/shard_seq now repeat.
        with journal.open("ab") as handle:
            handle.write(blob[_last_frame_start(blob) :])
        with pytest.raises(SnapshotError, match="out of order"):
            SimilarityService.load(path)

    def test_wrong_base_state_is_detected(self, journaled):
        """Replaying a valid journal over mismatched bits trips the popcount check."""
        path, journal = journaled
        state = load_snapshot_state(path)
        shard = state.sketch.row_shards()[0]
        # Corrupt the base state in a word the journal does not rewrite.
        untouched = sorted(
            set(range(shard.shared_array.num_words))
            - {
                int(word)
                for record in read_journal(journal).records
                if record.shard == 0
                for word in record.delta["words"].tolist()
            }
        )
        assert untouched, "need a word the journal leaves alone"
        shard.shared_array.flip(untouched[0] * 64)
        with pytest.raises(SnapshotError, match="does not match this snapshot"):
            replay_journal(
                state.sketch, journal, checkpoint_id=state.checkpoint_id
            )

    def test_bad_magic_and_version(self, journaled):
        _, journal = journaled
        blob = journal.read_bytes()
        journal.write_bytes(b"NOTAJRNL" + blob[len(JOURNAL_MAGIC) :])
        with pytest.raises(SnapshotError, match="magic"):
            read_journal(journal)
        bad_version = bytearray(blob)
        bad_version[len(JOURNAL_MAGIC) : len(JOURNAL_MAGIC) + 4] = struct.pack("<I", 9)
        journal.write_bytes(bytes(bad_version))
        with pytest.raises(SnapshotError, match="version 9"):
            read_journal(journal)


HEADER_COUNT_FIELDS = [
    "seq",
    "shard",
    "shard_seq",
    "words",
    "counters",
    "counter_users_bytes",
    "ones_count",
    "num_users",
]


@pytest.mark.parametrize("bad", ["0", 0.0, True, [0], None], ids=repr)
@pytest.mark.parametrize("field", HEADER_COUNT_FIELDS)
def test_non_integer_header_counts_are_corruption(tmp_path, field, bad):
    """A well-framed record (valid CRC) whose header counts are not plain
    non-negative ints raises SnapshotError — never a raw TypeError, and
    ``true`` never passes as 1."""
    from repro.service import ServiceConfig

    service = SimilarityService.from_config(
        ServiceConfig(expected_users=50, num_shards=2, seed=4)
    )
    path = tmp_path / "state.vos"
    service.save(path)
    service.ingest([StreamElement(1, i, Action.INSERT) for i in range(20)])
    service.save_delta()
    journal = default_journal_path(path)
    blob = journal.read_bytes()
    start = _last_frame_start(blob)
    body = blob[start + 8 :]
    (header_length,) = struct.unpack_from("<I", body)
    header = json.loads(body[4 : 4 + header_length])
    header[field] = bad
    header_bytes = json.dumps(header).encode("utf-8")
    body = struct.pack("<I", len(header_bytes)) + header_bytes + body[4 + header_length :]
    journal.write_bytes(
        blob[:start] + struct.pack("<II", len(body), zlib.crc32(body)) + body
    )
    with pytest.raises(SnapshotError, match="not a count"):
        read_journal(journal)
    with pytest.raises(SnapshotError, match="not a count"):
        SimilarityService.load(path)


def _journal_with_legacy_index_rows(tmp_path):
    """A snapshot whose journal's one record carries LSH rows in the old layout.

    Older writers appended the signature rows of users new to a shard whose
    array words did not change: header fields ``index_rows``,
    ``index_columns``, ``index_users_encoding`` and ``index_users_bytes``,
    then the user column, the little-endian ``uint64`` signature matrix and
    the packed validity bits after the counter payload.  Returns the live
    service and the snapshot path.
    """
    from repro.service import ServiceConfig
    from repro.service.snapshot import encode_id_column

    service = SimilarityService.from_config(
        ServiceConfig(expected_users=100, num_shards=4, seed=5)
    )
    service.ingest(mutation_mix(np.random.default_rng(3)))
    service.top_k_pairs(k=5, candidates="lsh")
    path = tmp_path / "state.vos"
    service.save(path)
    # A new user inserts and deletes one item in one batch: a counter-only
    # record, the only kind that ever carried index rows.
    service.ingest(
        [StreamElement(9001, 5, Action.INSERT), StreamElement(9001, 5, Action.DELETE)]
    )
    assert service.save_delta()["records"] == 1
    index = service.index()
    index.refresh()
    signatures, valid = index._gather([9001])
    users_blob, users_encoding = encode_id_column([9001])

    journal = default_journal_path(path)
    blob = journal.read_bytes()
    start = _last_frame_start(blob)
    body = blob[start + 8 :]
    (header_length,) = struct.unpack_from("<I", body)
    header = json.loads(body[4 : 4 + header_length])
    assert header["words"] == 0
    header.update(
        index_rows=1,
        index_columns=int(signatures.shape[1]),
        index_users_encoding=users_encoding,
        index_users_bytes=len(users_blob),
    )
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body = (
        struct.pack("<I", len(header_bytes))
        + header_bytes
        + body[4 + header_length :]
        + users_blob
        + signatures.astype("<u8").tobytes()
        + np.packbits(valid.ravel()).tobytes()
    )
    journal.write_bytes(
        blob[:start] + struct.pack("<II", len(body), zlib.crc32(body)) + body
    )
    return service, path


class TestLegacyIndexRows:
    def test_old_records_replay_and_rebuild_the_shard(self, tmp_path):
        service, path = _journal_with_legacy_index_rows(tmp_path)
        restored = SimilarityService.load(path)
        # Every persisted table is attached; replaying the record adds user
        # 9001 to one shard, so only that shard's table rebuilds.
        assert restored.stats()["index"]["restored"] == 4
        fresh = SimilarityService.from_state_bytes(
            service.dumps_state(include_index=False)
        )
        assert_same_sketch_state(service.sketch, restored.sketch)
        for user in (0, 7, 23, 9001):
            assert restored.top_k(user, k=5, index="lsh") == fresh.top_k(
                user, k=5, index="lsh"
            )
        assert restored.stats()["index"]["rebuilds"] == 1

    @pytest.mark.parametrize("bad", ["0", 0.0, True, [0], None], ids=repr)
    @pytest.mark.parametrize(
        "field", ["index_rows", "index_columns", "index_users_bytes"]
    )
    def test_non_integer_index_counts_are_corruption(self, tmp_path, field, bad):
        _, path = _journal_with_legacy_index_rows(tmp_path)
        journal = default_journal_path(path)
        blob = journal.read_bytes()
        start = _last_frame_start(blob)
        body = blob[start + 8 :]
        (header_length,) = struct.unpack_from("<I", body)
        header = json.loads(body[4 : 4 + header_length])
        header[field] = bad
        header_bytes = json.dumps(header).encode("utf-8")
        body = struct.pack("<I", len(header_bytes)) + header_bytes + body[4 + header_length :]
        journal.write_bytes(
            blob[:start] + struct.pack("<II", len(body), zlib.crc32(body)) + body
        )
        with pytest.raises(SnapshotError, match="not a count"):
            read_journal(journal)
        with pytest.raises(SnapshotError, match="not a count"):
            SimilarityService.load(path)


def _last_frame_start(blob: bytes) -> int:
    """Byte offset of the final record frame in a journal blob."""
    offset = len(JOURNAL_MAGIC) + 8
    (header_length,) = struct.unpack_from("<I", blob, len(JOURNAL_MAGIC) + 4)
    offset += header_length
    last = offset
    while offset < len(blob):
        (body_length, _) = struct.unpack_from("<II", blob, offset)
        last = offset
        offset += 8 + body_length
    return last


class TestCompaction:
    def test_compact_folds_journal_into_full_snapshot(self, tmp_path):
        from repro.service import ServiceConfig

        service = SimilarityService.from_config(
            ServiceConfig(expected_users=60, num_shards=4, seed=9)
        )
        rng = np.random.default_rng(1)
        service.ingest(mutation_mix(rng))
        path = tmp_path / "state.vos"
        service.save(path)
        service.ingest(mutation_mix(rng, base_user=100))
        service.save_delta()
        journal = default_journal_path(path)
        assert journal.exists()
        service.compact()
        assert not journal.exists()
        restored = SimilarityService.load(path)
        assert_same_sketch_state(service.sketch, restored.sketch)
        assert service.stats()["persistence"]["compactions"] == 1


class TestUnreplayedJournalSafety:
    """save_delta must never resume a journal the load did not replay."""

    def _journaled_service(self, tmp_path):
        from repro.service import ServiceConfig

        service = SimilarityService.from_config(
            ServiceConfig(expected_users=50, num_shards=2, seed=8)
        )
        service.ingest([StreamElement(1, i, Action.INSERT) for i in range(30)])
        path = tmp_path / "state.vos"
        service.save(path)
        service.ingest([StreamElement(2, i, Action.INSERT) for i in range(30)])
        service.save_delta()
        return path

    def test_load_without_journal_refuses_delta(self, tmp_path):
        from repro.exceptions import ConfigurationError

        path = self._journaled_service(tmp_path)
        behind = SimilarityService.load(path, journal=None)
        behind.ingest([StreamElement(3, i, Action.INSERT) for i in range(10)])
        with pytest.raises(ConfigurationError, match="not replayed"):
            behind.save_delta()
        # A full save rotates the journal and re-enables deltas; the
        # resulting snapshot+journal pair stays loadable.
        behind.save()
        behind.ingest([StreamElement(4, i, Action.INSERT) for i in range(10)])
        behind.save_delta()
        restored = SimilarityService.load(path)
        assert_same_sketch_state(behind.sketch, restored.sketch)

    def test_policy_upgrades_instead_of_corrupting(self, tmp_path):
        from repro.service import CheckpointPolicy

        path = self._journaled_service(tmp_path)
        behind = SimilarityService.load(
            path,
            journal=None,
            checkpoint_policy=CheckpointPolicy(every_n_elements=5),
        )
        behind.ingest([StreamElement(3, i, Action.INSERT) for i in range(10)])
        # The trigger wrote a full checkpoint (journal rotated), not a delta
        # against the wrong base.
        assert behind.stats()["persistence"]["deltas_written"] == 0
        restored = SimilarityService.load(path)
        assert_same_sketch_state(behind.sketch, restored.sketch)

    def test_superseded_journal_is_rotated_not_fatal(self, tmp_path):
        """A stale journal from an older checkpoint (crash between a full
        save and its unlink) must not brick delta checkpoints."""
        path = self._journaled_service(tmp_path)
        journal = default_journal_path(path)
        stale = journal.read_bytes()
        service = SimilarityService.load(path)
        service.save(path)  # new checkpoint id; journal removed
        journal.write_bytes(stale)  # simulate the crash window
        service.ingest([StreamElement(5, i, Action.INSERT) for i in range(10)])
        delta = service.save_delta()  # must rotate the stale file, not raise
        assert delta["records"] >= 1
        restored = SimilarityService.load(path)
        assert_same_sketch_state(service.sketch, restored.sketch)


def test_snapshot_files_respect_the_umask(tmp_path):
    """Atomic writes must not leak mkstemp's 0600 onto snapshot files."""
    import os

    from repro.service.snapshot import atomic_write_bytes

    previous = os.umask(0o022)
    try:
        target = tmp_path / "mode.vos"
        atomic_write_bytes(target, b"payload")
        assert (target.stat().st_mode & 0o777) == 0o644
    finally:
        os.umask(previous)


def test_torn_first_record_does_not_destroy_the_header(tmp_path):
    """Resume after a crash mid-FIRST-append must trim to the header end,
    never truncate the file to zero bytes."""
    from repro.service import ServiceConfig

    service = SimilarityService.from_config(
        ServiceConfig(expected_users=20, num_shards=2, seed=6)
    )
    service.ingest([StreamElement(1, i, Action.INSERT) for i in range(20)])
    path = tmp_path / "state.vos"
    service.save(path)
    service.ingest([StreamElement(2, i, Action.INSERT) for i in range(20)])
    service.save_delta()
    journal = default_journal_path(path)
    blob = journal.read_bytes()
    header_end = _last_frame_start(blob)
    # Keep the header plus a torn fragment of the first record.
    journal.write_bytes(blob[: header_end + 5])
    contents = read_journal(journal)
    assert contents.truncated_tail is True
    assert contents.end_offset == header_end
    # A restarted writer trims the torn tail and keeps the header usable.
    service._journal = None
    service.ingest([StreamElement(3, i, Action.INSERT) for i in range(20)])
    service.save_delta()
    assert journal.read_bytes()[: len(JOURNAL_MAGIC)] == JOURNAL_MAGIC
    restored = SimilarityService.load(path)
    assert restored.sketch.cardinality(3) == 20


def test_numpy_integer_user_ids_snapshot(tmp_path):
    """np.int64 user ids kept working under format v1; v2 must accept them too."""
    from repro.service.snapshot import dumps_snapshot, loads_snapshot

    from repro.core.vos import VirtualOddSketch

    vos = VirtualOddSketch(shared_array_bits=1024, virtual_sketch_size=32, seed=1)
    for item in range(10):
        vos.process(StreamElement(np.int64(5), item, Action.INSERT))
    restored = loads_snapshot(dumps_snapshot(vos))
    assert restored.cardinality(5) == 10
    assert vos.shared_array.to_packed_bytes() == restored.shared_array.to_packed_bytes()


class TestGroupCommit:
    """One fsync per save_delta behind JournalConfig(group_commit=True)."""

    @pytest.fixture()
    def fsync_calls(self, monkeypatch):
        """Count os.fsync calls made by the journal module."""
        import repro.service.journal as journal_module

        calls = []
        real_fsync = journal_module.os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(journal_module.os, "fsync", counting_fsync)
        return calls

    def _delta(self, shard):
        """A minimal well-formed shard delta (never replayed in these tests)."""
        return dict(
            shard=shard,
            words=np.array([0], dtype=np.int64),
            word_data=b"\x01" + b"\x00" * 7,
            counter_users=[1],
            counter_counts=np.array([5], dtype=np.int64),
            ones_count=1,
            num_users=1,
        )

    def test_default_config_fsyncs_every_append(self, tmp_path, fsync_calls):
        writer = JournalWriter(tmp_path / "j", "cafe" * 4)
        baseline = len(fsync_calls)  # header creation may fsync
        for shard in range(3):
            writer.append_delta([self._delta(shard)])
        assert len(fsync_calls) - baseline == 3
        assert writer.sync() is False  # nothing deferred to sync

    def test_group_commit_defers_to_one_fsync(self, tmp_path, fsync_calls):
        from repro.service.journal import JournalConfig

        writer = JournalWriter(
            tmp_path / "j", "cafe" * 4, config=JournalConfig(group_commit=True)
        )
        baseline = len(fsync_calls)
        for shard in range(3):
            writer.append_delta([self._delta(shard)])
        assert len(fsync_calls) == baseline  # appends only flushed
        assert writer.sync() is True
        assert len(fsync_calls) - baseline == 1
        assert writer.sync() is False  # idempotent: nothing pending
        assert len(fsync_calls) - baseline == 1

    def test_save_delta_is_one_fsync_across_shards(self, tmp_path, fsync_calls):
        from repro.service import JournalConfig, ServiceConfig

        rng = np.random.default_rng(29)
        service = SimilarityService.from_config(
            ServiceConfig(
                expected_users=100,
                num_shards=4,
                seed=6,
                journal=JournalConfig(group_commit=True),
            )
        )
        service.ingest(mutation_mix(rng))
        path = tmp_path / "state.vos"
        service.save(path)
        # First delta round creates the journal (header write fsyncs too);
        # measure on the second round, where only record durability remains.
        service.ingest(mutation_mix(rng, base_user=60))
        service.save_delta()
        service.ingest(mutation_mix(rng, base_user=120))
        baseline = len(fsync_calls)
        delta = service.save_delta()
        assert delta["records"] >= 2  # several shards went dirty...
        assert len(fsync_calls) - baseline == 1  # ...but one fsync covers them
        restored = SimilarityService.load(path)
        assert_same_sketch_state(service.sketch, restored.sketch)

    def test_save_delta_is_one_open_and_one_write(self, tmp_path, monkeypatch, fsync_calls):
        """Every shard's record of a checkpoint goes out in one write to one
        open of the journal, fsynced once under the default config; the
        records keep their sequence numbers and replay as before."""
        import pathlib

        from repro.service import ServiceConfig

        rng = np.random.default_rng(30)
        service = SimilarityService.from_config(
            ServiceConfig(expected_users=100, num_shards=4, seed=6)
        )
        service.ingest(mutation_mix(rng))
        path = tmp_path / "state.vos"
        service.save(path)
        service.ingest(mutation_mix(rng, base_user=60))
        service.save_delta()
        service.ingest(mutation_mix(rng, base_user=120))
        writes = []
        real_open = pathlib.Path.open

        def counting_open(self, mode="r", *args, **kwargs):
            handle = real_open(self, mode, *args, **kwargs)
            if mode == "ab":
                real_write = handle.write
                handle.write = lambda data: writes.append(len(data)) or real_write(data)
            return handle

        journal = default_journal_path(path)
        size = journal.stat().st_size
        baseline = len(fsync_calls)
        monkeypatch.setattr(pathlib.Path, "open", counting_open)
        delta = service.save_delta()
        monkeypatch.undo()
        assert delta["records"] >= 2
        assert writes == [delta["bytes"]] == [journal.stat().st_size - size]
        assert len(fsync_calls) - baseline == 1
        records = read_journal(journal).records
        assert [record.seq for record in records] == list(range(1, len(records) + 1))
        assert_same_sketch_state(service.sketch, SimilarityService.load(path).sketch)

    def test_torn_tail_after_crash_before_sync(self, tmp_path):
        """Crash between group-commit appends and the sync tears only the tail.

        The torn record must trim cleanly: load replays the surviving prefix,
        and a recovered service (restored state + reopened writer) journals
        new work that replays bit-identically — the same contract as a crash
        mid-append under fsync-per-record.
        """
        from repro.service import JournalConfig, ServiceConfig

        rng = np.random.default_rng(31)
        config = ServiceConfig(
            expected_users=100,
            num_shards=2,
            seed=7,
            journal=JournalConfig(group_commit=True),
        )
        service = SimilarityService.from_config(config)
        service.ingest(mutation_mix(rng))
        path = tmp_path / "state.vos"
        service.save(path)
        for base in (40, 80):
            service.ingest(mutation_mix(rng, base_user=base))
            service.save_delta()
        journal = default_journal_path(path)
        blob = journal.read_bytes()
        journal.write_bytes(blob[:-11])  # tear the final record mid-body
        recovered = SimilarityService.load(
            path, journal_config=config.journal
        )  # must not raise
        info = journal_info(journal)
        assert info["truncated_tail"] is True
        # The recovered service resumes journaling where the tear left off:
        # its writer trims the torn bytes, appends, and the result replays.
        recovered.ingest(mutation_mix(rng, base_user=120))
        recovered.save_delta()
        assert journal_info(journal)["truncated_tail"] is False
        assert journal.stat().st_size < len(blob) + 10_000
        replayed = SimilarityService.load(path)
        assert_same_sketch_state(recovered.sketch, replayed.sketch)
