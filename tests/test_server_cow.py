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
        counts_before = [dict(shard._cardinalities) for shard in shards]
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
            changed_counters = {
                user
                for user in set(old_counts) | set(shard._cardinalities)
                if old_counts.get(user) != shard._cardinalities.get(user)
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
            assert shard._counter_stamps == {}


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


class TestCarriedIndexTables:
    def test_counter_only_publish_leaves_previous_epoch_tables_intact(self):
        """Epochs share LSH tables by reference; rebuilding one never edits another.

        A new user inserting and deleting the same item in one batch changes
        counters but no array word, so the publish carries every table
        forward; epoch N+1's first ``lsh`` query must then leave epoch N's
        tables exactly as they were.
        """
        writer = _sharded_service(seed=31)
        writer.ingest(ROUNDS[0])
        writer.top_k_pairs(k=5, candidates="lsh")
        publisher = CowEpochPublisher(writer)
        first = publisher.materialize()
        first_reference = _whole_state_copy(writer)
        first_index = first.index()
        first_index.refresh()
        tables = [
            (
                tuple(table.users),
                dict(table.ordinal),
                table.signatures.copy(),
                table.valid.copy(),
            )
            for table in first_index._shard_signatures
        ]
        users_indexed = first_index.stats()["users_indexed"]
        shapes = [
            (len(entry["users"]), entry["signatures"].shape, entry["valid"].shape)
            for entry in first_index.export_state()["shards"]
        ]

        writer.ingest(_inserts([999], [7]) + _deletes([999], [7]))
        delta = writer.freeze_delta(publisher.cursor)
        assert delta["shards"] and not any(len(e["words"]) for e in delta["shards"])
        second = publisher.publish_delta(delta, previous_service=first)
        second_reference = _whole_state_copy(writer)
        assert second.top_k_pairs(k=10, candidates="lsh") == (
            second_reference.top_k_pairs(k=10, candidates="lsh")
        )
        assert second.top_k(999, k=5, index="lsh") == (
            second_reference.top_k(999, k=5, index="lsh")
        )
        assert second.index().stats()["users_indexed"] == users_indexed + 1

        for table, (users, ordinal, signatures, valid) in zip(
            first_index._shard_signatures, tables
        ):
            assert tuple(table.users) == users
            assert table.ordinal == ordinal
            assert np.array_equal(table.signatures, signatures)
            assert np.array_equal(table.valid, valid)
        assert first_index.stats()["users_indexed"] == users_indexed
        assert [
            (len(entry["users"]), entry["signatures"].shape, entry["valid"].shape)
            for entry in first_index.export_state()["shards"]
        ] == shapes
        assert first.top_k_pairs(k=10, candidates="lsh") == (
            first_reference.top_k_pairs(k=10, candidates="lsh")
        )
        for user in (3, 27):
            assert first.top_k(user, k=5, index="lsh") == (
                first_reference.top_k(user, k=5, index="lsh")
            )
