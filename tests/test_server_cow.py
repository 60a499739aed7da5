"""Copy-on-publish epochs: parity, per-publish work, noops, isolation.

The acceptance bar for :mod:`repro.server.cow`: a daemon whose publishes
copy the touched shards and apply each delta must answer every query
bit-identically (``==``) to a whole-state frozen copy of its writer
(``from_state_bytes(dumps_state())``) over the same ingest history —
including delete-heavy batches that cancel inserts and users that are
re-inserted after deletion.  Each publish applies only its own delta's
words, no-op publishes (nothing changed) must short-circuit without copying
anything, and pinned readers must keep their epoch's copy across later
publishes.  Independence from the journal's cursor is exercised in
``test_service_delta.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.vos import VirtualOddSketch
from repro.hashing import PackedBitArray
from repro.hashing.bitpack import next_stamp
from repro.index import encode_index_state
from repro.obs import get_registry
from repro.server import CowEpochPublisher, ServingClient, ServingDaemon
from repro.service import ServiceConfig
from repro.service.service import SimilarityService
from repro.streams import Action, StreamElement


def _inserts(users, items) -> list[StreamElement]:
    return [StreamElement(u, i, Action.INSERT) for u in users for i in items]


def _deletes(users, items) -> list[StreamElement]:
    return [StreamElement(u, i, Action.DELETE) for u in users for i in items]


def _sharded_service(seed: int = 19) -> SimilarityService:
    return SimilarityService.from_config(
        ServiceConfig(expected_users=300, num_shards=4, seed=seed)
    )


def _plain_service(seed: int = 19) -> SimilarityService:
    sketch = VirtualOddSketch(
        shared_array_bits=1 << 14, virtual_sketch_size=256, seed=seed
    )
    return SimilarityService(sketch)


#: The arrays an LSH table consists of.
ENTRY_ARRAYS = ("bucket_signatures", "bucket_rows", "bucket_columns")

#: Ingest rounds covering the hard cases: plain growth, a delete-heavy batch
#: that cancels earlier inserts exactly, and users re-inserted after deletion.
ROUNDS = [
    _inserts(range(30), range(12)),
    _inserts(range(25, 45), range(8, 20)),
    _deletes(range(10), range(12)),  # cancels round 1 exactly for users 0..9
    _inserts(range(5), range(12)) + _inserts(range(5), range(40, 44)),  # re-insert
    _deletes(range(40, 45), range(8, 14)) + _inserts(range(60, 70), range(6)),
]


def _unpacked_bits(shard: VirtualOddSketch) -> np.ndarray:
    """The shard's shared array, one ``uint8`` entry per bit."""
    return np.unpackbits(np.frombuffer(shard.shared_array.to_packed_bytes(), np.uint8))


def _whole_state_copy(writer: SimilarityService) -> SimilarityService:
    """The reference epoch: the writer frozen through a full snapshot round trip."""
    return SimilarityService.from_state_bytes(
        writer.dumps_state(),
        index_config=writer.index_config,
        elements_ingested=writer.elements_ingested,
    )


class TestCowFullParity:
    @pytest.mark.parametrize("build", [_sharded_service, _plain_service])
    def test_daemons_answer_bit_identically(self, build):
        with ServingDaemon(build(), workers=2) as daemon:
            with ServingClient(*daemon.address) as cow:
                for batch in ROUNDS:
                    response = cow.ingest_batch(batch)
                    assert response["publish_mode"] == "cow"
                    full = _whole_state_copy(daemon.writer)
                    assert cow.top_k_pairs(k=15) == full.top_k_pairs(k=15)
                    assert cow.nearest(3, k=8) == full.top_k(3, k=8)
                    probes = [(0, 1), (3, 27), (12, 25), (8, 9)]
                    assert cow.estimate_many(probes) == full.estimate_many(probes)
                # LSH candidate generation sees identical signatures too.
                assert cow.top_k_pairs(k=10, candidates="lsh") == (
                    full.top_k_pairs(k=10, candidates="lsh")
                )
                assert cow.stats()["users"] == full.stats()["users"]

    def test_publisher_matches_full_freeze_after_many_publishes(self):
        writer = _sharded_service(seed=5)
        writer.ingest(ROUNDS[0])
        publisher = CowEpochPublisher(writer)
        publisher.materialize()
        frozen = None
        for batch in ROUNDS[1:]:
            writer.ingest(batch)
            frozen = publisher.publish_delta(writer.freeze_delta(publisher.cursor))
        reference = _whole_state_copy(writer)
        assert frozen.top_k_pairs(k=20) == reference.top_k_pairs(k=20)

    def test_each_publish_applies_only_its_own_delta(self, monkeypatch):
        applied: list[int] = []
        real = PackedBitArray.apply_packed_words

        def counting(self, word_indices, data, **kwargs):
            applied.append(int(np.asarray(word_indices).size))
            return real(self, word_indices, data, **kwargs)

        monkeypatch.setattr(PackedBitArray, "apply_packed_words", counting)
        writer = _sharded_service(seed=37)
        writer.ingest(ROUNDS[0])
        publisher = CowEpochPublisher(writer)
        publisher.materialize()
        for batch in ROUNDS[1:]:
            writer.ingest(batch)
            delta = writer.freeze_delta(publisher.cursor)
            delta_words = sum(len(entry["words"]) for entry in delta["shards"])
            assert delta_words > 0
            applied.clear()
            publisher.publish_delta(delta)
            assert sum(applied) == delta_words


class TestNoopPublish:
    def test_empty_batch_short_circuits(self):
        service = _sharded_service(seed=7)
        service.ingest(ROUNDS[0])
        with ServingDaemon(service, workers=2) as daemon:
            registry = get_registry()
            before = registry.snapshot()
            publishes_before = (
                before["histograms"]
                .get("server.epoch.publish", {})
                .get("count", 0)
            )
            with ServingClient(*daemon.address) as client:
                response = client.ingest_batch([])
                assert response["epoch"] == 1  # readers keep their epoch
                assert response["published"] is True
                assert response["publish_mode"] == "noop"
                stats = client.stats()["server"]["epochs"]
                assert stats["noops"] == 1
                assert stats["published"] == 1
            after = registry.snapshot()
            # Nothing was serialized, copied, or revived: the publish-latency
            # histogram did not record an observation, only the noop counter.
            publishes_after = (
                after["histograms"].get("server.epoch.publish", {}).get("count", 0)
            )
            assert publishes_after == publishes_before
            assert daemon.epochs.stats()["noops"] == 1
            assert len(daemon.publish_log) == 0

    def test_cancelling_batch_still_publishes(self):
        # Insert+delete of the same items nets to zero bit flips, but user 99
        # is new (with a zero counter), so the publish must run and stay
        # correct, not silently no-op.
        service = _plain_service(seed=9)
        service.ingest(ROUNDS[0])
        with ServingDaemon(service, workers=2) as daemon:
            with ServingClient(*daemon.address) as client:
                batch = _inserts([99], range(5)) + _deletes([99], range(5))
                response = client.ingest_batch(batch)
                assert response["publish_mode"] == "cow"
                assert response["epoch"] == 2


class TestEpochChangeTracking:
    def test_delta_covers_changed_words_under_xor_bulk(self):
        """Cancelled and re-inserted users produce deltas ⊇ changed words."""
        service = _sharded_service(seed=13)
        service.ingest(ROUNDS[0])
        cursor = next_stamp()
        shards = list(service._sketch.row_shards())
        before = [_unpacked_bits(shard) for shard in shards]
        counts_before = [shard.counters() for shard in shards]
        # Delete-heavy batch: exact cancellation for users 0..9, then re-insert.
        service.ingest(ROUNDS[2])
        service.ingest(ROUNDS[3])
        deltas = {entry["shard"]: entry for entry in service.freeze_delta(cursor)["shards"]}
        for index, (shard, old_bits, old_counts) in enumerate(
            zip(shards, before, counts_before)
        ):
            new_bits = _unpacked_bits(shard)
            # One entry per bit, so bit index // 64 is the word.
            changed = {
                int(bit) // 64 for bit in np.flatnonzero(old_bits != new_bits)
            }
            entry = deltas.get(index, {"words": [], "counter_users": []})
            assert changed <= {int(word) for word in entry["words"]}
            new_counts = shard.counters()
            changed_counters = {
                user
                for user in set(old_counts) | set(new_counts)
                if old_counts.get(user) != new_counts.get(user)
            }
            assert changed_counters <= set(entry["counter_users"])

    def test_frozen_overlays_carry_no_stamps(self):
        writer = _sharded_service(seed=29)
        writer.ingest(ROUNDS[0])
        publisher = CowEpochPublisher(writer)
        publisher.materialize()
        writer.ingest(ROUNDS[1])
        frozen = publisher.publish_delta(writer.freeze_delta(publisher.cursor))
        for shard in frozen.sketch.row_shards():
            assert shard.shared_array._stamps is None
            assert shard.user_table._stamps is None


class TestReaderIsolation:
    def test_pinned_reader_keeps_old_overlay_across_publishes(self):
        service = _sharded_service(seed=23)
        service.ingest(ROUNDS[0])
        with ServingDaemon(service, workers=2) as daemon:
            with daemon.epochs.pin() as pinned:
                old_pairs = pinned.service.top_k_pairs(k=10)
                old_users = pinned.service.stats()["users"]
                with ServingClient(*daemon.address) as client:
                    client.ingest_batch(ROUNDS[1])
                    client.ingest_batch(ROUNDS[2])
                    assert client.epoch >= 3
                # The pinned epoch still answers from its own copy.
                assert pinned.service.top_k_pairs(k=10) == old_pairs
                assert pinned.service.stats()["users"] == old_users
                assert not pinned.retired
            assert daemon.epochs.live_epochs == 1  # released epoch drained


class TestEpochIndexTables:
    def test_counter_only_publish_shares_untouched_tables(self):
        """Epochs share an untouched shard object, and with it its LSH table.

        A new user inserting and deleting the same item in one batch changes
        counters but no array word, and adds a user to one shard.  That
        shard's copy fails its key check and rebuilds; every other table of
        the new epoch *is* the previous epoch's, and epoch N+1's rebuild
        leaves epoch N's tables exactly as they were.
        """
        writer = _sharded_service(seed=31)
        writer.ingest(ROUNDS[0])
        writer.top_k(3, k=5, index="lsh")  # builds the writer's tables
        publisher = CowEpochPublisher(writer)
        first = publisher.materialize()
        # The first epoch's copies start out with the writer's tables.
        assert all(
            shard.index_table is source.index_table is not None
            for shard, source in zip(first.sketch.row_shards(), writer.sketch.row_shards())
        )
        first_reference = _whole_state_copy(writer)
        first_index = first.index()
        first_tables = first_index.refresh()
        assert first_index.stats()["rebuilds"] == 0
        arrays = [[getattr(table, name).copy() for name in ENTRY_ARRAYS] for table in first_tables]
        users_indexed = first_index.stats()["users_indexed"]
        exported = encode_index_state(first_index.export_state())

        writer.ingest(_inserts([999], [7]) + _deletes([999], [7]))
        delta = writer.freeze_delta(publisher.cursor)
        assert delta["shards"] and not any(len(e["words"]) for e in delta["shards"])
        (touched,) = [entry["shard"] for entry in delta["shards"]]
        second = publisher.publish_delta(delta)
        second_reference = _whole_state_copy(writer)
        assert second.top_k_pairs(k=10, candidates="lsh") == (
            second_reference.top_k_pairs(k=10, candidates="lsh")
        )
        assert second.top_k(999, k=5, index="lsh") == (
            second_reference.top_k(999, k=5, index="lsh")
        )
        second_index = second.index()
        assert second_index.bands == first_index.bands
        assert second_index.stats()["rebuilds"] == 1
        assert second_index.stats()["users_indexed"] == users_indexed + 1
        for position, (old, new) in enumerate(zip(first_tables, second_index.refresh())):
            if position == touched:
                assert new is not old and new.rows == old.rows + 1
            else:
                assert new is old

        for shard, table, saved in zip(first.sketch.row_shards(), first_tables, arrays):
            assert shard.index_table is table
            for name, array in zip(ENTRY_ARRAYS, saved):
                assert np.array_equal(getattr(table, name), array)
        assert first_index.stats()["users_indexed"] == users_indexed
        assert encode_index_state(first_index.export_state()) == exported
        assert first_index.stats()["rebuilds"] == 0
        assert first.top_k_pairs(k=10, candidates="lsh") == (
            first_reference.top_k_pairs(k=10, candidates="lsh")
        )
        for user in (3, 27):
            assert first.top_k(user, k=5, index="lsh") == (
                first_reference.top_k(user, k=5, index="lsh")
            )
