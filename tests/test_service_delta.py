"""Shard deltas and change cursors: every consumer sees every change it missed.

The journal (``save_delta``) and the copy-on-write epoch publisher
(``freeze_delta`` → ``publish_delta``) both ship :mod:`repro.service.delta`
records built from one set of change stamps, each consumer reading from its
own cursor.  The load-bearing invariant: a change made after a consumer last
read is in that consumer's next delta, whatever the other consumer did in
between.  The interleaving test drives random mixes of both over
delete-heavy, exactly cancelling and
re-inserting batches and checks that invariant against the actual state
difference, plus bit-identical journal replay and epoch answers ``==`` the
writer's.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exceptions import SnapshotError
from repro.hashing.bitpack import next_stamp
from repro.server.cow import CowEpochPublisher
from repro.service import ServiceConfig
from repro.service.delta import apply_shard_delta, delta_mismatch, shard_delta
from repro.service.journal import read_journal, replay_journal
from repro.service.service import SimilarityService
from repro.service.snapshot import dumps_snapshot, load_snapshot_state
from repro.streams import Action, StreamElement

USERS = 40
ITEMS = 120


def _service() -> SimilarityService:
    return SimilarityService.from_config(
        ServiceConfig(expected_users=200, num_shards=4, seed=31)
    )


class _Stream:
    """Valid fully dynamic batches over a tracked edge set."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.edges: set[tuple[int, int]] = set()
        self.deleted: list[tuple[int, int]] = []

    def _fresh(self, count: int) -> list[tuple[int, int]]:
        fresh = set()
        while len(fresh) < count:
            edge = (self.rng.randrange(USERS), self.rng.randrange(ITEMS))
            if edge not in self.edges:
                fresh.add(edge)
        return sorted(fresh)

    def grow(self) -> list[StreamElement]:
        edges = self._fresh(self.rng.randint(20, 60))
        self.edges.update(edges)
        return [StreamElement(u, i, Action.INSERT) for u, i in edges]

    def delete_heavy(self) -> list[StreamElement]:
        victims = self.rng.sample(sorted(self.edges), int(len(self.edges) * 0.6))
        self.edges.difference_update(victims)
        self.deleted.extend(victims)
        batch = [StreamElement(u, i, Action.DELETE) for u, i in victims]
        extra = self._fresh(5)
        self.edges.update(extra)
        return batch + [StreamElement(u, i, Action.INSERT) for u, i in extra]

    def cancelling(self) -> list[StreamElement]:
        """Inserts and deletes of the same new edges: no bit changes, but new
        users (at count zero) may appear."""
        edges = self._fresh(self.rng.randint(3, 10)) + [(USERS + self.rng.randrange(5), 0)]
        return [StreamElement(u, i, Action.INSERT) for u, i in edges] + [
            StreamElement(u, i, Action.DELETE) for u, i in edges
        ]

    def reinsert(self) -> list[StreamElement]:
        back = [edge for edge in self.deleted if edge not in self.edges][:30]
        self.deleted = self.deleted[len(back) :]
        self.edges.update(back)
        return [StreamElement(u, i, Action.INSERT) for u, i in back] or self.grow()

    def batch(self) -> list[StreamElement]:
        kind = self.rng.choice(
            [self.grow, self.delete_heavy, self.cancelling, self.reinsert]
        )
        return kind() if self.edges else self.grow()


def _state(service: SimilarityService) -> list[tuple[np.ndarray, dict]]:
    return [
        (
            np.unpackbits(np.frombuffer(shard.shared_array.to_packed_bytes(), np.uint8)),
            shard.counters(),
        )
        for shard in service.sketch.row_shards()
    ]


def _shard_blobs(service: SimilarityService) -> list[bytes]:
    """Per-shard snapshot bytes with a pinned checkpoint id, for ``==`` parity."""
    return [dumps_snapshot(shard, checkpoint_id="x") for shard in service.sketch.shards]


def _assert_covers(before, after, deltas) -> None:
    """``deltas`` (shard -> (words, users)) ⊇ what changed from before to after."""
    for index, ((old_bits, old_counts), (new_bits, new_counts)) in enumerate(
        zip(before, after)
    ):
        changed_words = {int(bit) // 64 for bit in np.flatnonzero(old_bits != new_bits)}
        changed_users = {
            user
            for user in set(old_counts) | set(new_counts)
            if old_counts.get(user) != new_counts.get(user)
        }
        words, users = deltas.get(index, (set(), set()))
        assert changed_words <= words, (index, changed_words - words)
        assert changed_users <= users, (index, changed_users - users)


def _journal_deltas(journal, start: int) -> tuple[dict, int]:
    records = read_journal(journal).records
    deltas: dict[int, tuple[set, set]] = {}
    for record in records[start:]:
        words, users = deltas.setdefault(record.shard, (set(), set()))
        words.update(int(word) for word in record.delta["words"])
        users.update(record.delta["counter_users"])
    return deltas, len(records)


def _answers(service: SimilarityService):
    known = service.sketch.has_user
    probes = [(a, b) for a, b in [(0, 1), (2, 3), (5, 17), (USERS, 4)] if known(a) and known(b)]
    return service.top_k_pairs(k=12), service.estimate_many(probes)


@pytest.mark.parametrize("seed", range(6))
def test_interleaved_consumers_each_see_every_change(tmp_path, seed):
    rng = random.Random(seed)
    stream = _Stream(rng)
    writer = _service()
    writer.ingest(stream.grow())
    snapshot = tmp_path / "state.vos"
    writer.save(snapshot)
    journal = snapshot.with_name(snapshot.name + ".journal")
    publisher = CowEpochPublisher(writer)
    publisher.materialize()
    journal_base = epoch_base = _state(writer)
    records_read = 0
    steps = ["ingest", "ingest", "save_delta", "publish"]
    # The two orders the independence guarantee is about, then random ones.
    schedule = ["ingest", "save_delta", "ingest", "publish", "ingest", "publish", "save_delta"]
    schedule += [rng.choice(steps) for _ in range(14)]
    for step in schedule:
        if step == "ingest":
            writer.ingest(stream.batch())
        elif step == "save_delta":
            writer.save_delta()
            deltas, records_read = _journal_deltas(journal, records_read)
            now = _state(writer)
            _assert_covers(journal_base, now, deltas)
            journal_base = now
        elif step == "publish":
            delta = writer.freeze_delta(publisher.cursor)
            deltas = {
                entry["shard"]: (
                    {int(word) for word in entry["words"]},
                    set(entry["counter_users"]),
                )
                for entry in delta["shards"]
            }
            now = _state(writer)
            _assert_covers(epoch_base, now, deltas)
            epoch_base = now
            frozen = publisher.publish_delta(delta)
            assert _answers(frozen) == _answers(writer)
    writer.save_delta()
    restored = SimilarityService.load(snapshot)
    assert _shard_blobs(restored) == _shard_blobs(writer)
    frozen = publisher.publish_delta(writer.freeze_delta(publisher.cursor))
    assert _answers(frozen) == _answers(writer) == _answers(restored)


class TestShardDelta:
    def test_nothing_changed_is_none(self):
        service = _service()
        service.ingest(_Stream(random.Random(1)).grow())
        cursor = next_stamp()
        for index, shard in enumerate(service.sketch.row_shards()):
            assert shard_delta(shard, index, cursor) is None

    def test_apply_round_trips_onto_the_base_state(self):
        source = _service()
        stream = _Stream(random.Random(2))
        source.ingest(stream.grow())
        target = SimilarityService.from_state_bytes(source.dumps_state())
        cursor = next_stamp()
        source.ingest(stream.delete_heavy())
        source.ingest(stream.cancelling())
        target_cursor = next_stamp()
        for index, (shard, twin) in enumerate(
            zip(source.sketch.row_shards(), target.sketch.row_shards())
        ):
            delta = shard_delta(shard, index, cursor)
            if delta is not None:
                assert apply_shard_delta(twin, delta) is None
                # Applied changes are stamped for the target's own consumers.
                table = twin.user_table
                changed = table.ids(table.changed(target_cursor)).tolist()
                assert sorted(changed, key=str) == sorted(
                    delta["counter_users"], key=str
                )
        assert _shard_blobs(source) == _shard_blobs(target)

    def test_mismatch_names_popcount_then_users(self):
        service = _service()
        service.ingest(_Stream(random.Random(3)).grow())
        shard = service.sketch.row_shards()[0]
        delta = shard_delta(shard, 0, 0)
        assert delta_mismatch(shard, delta) is None
        assert "popcount" in delta_mismatch(shard, {**delta, "ones_count": -1})
        assert "users" in delta_mismatch(shard, {**delta, "num_users": -1})

    def test_callers_raise_their_own_typed_errors(self, tmp_path, monkeypatch):
        import repro.service.journal as journal_module

        service = _service()
        stream = _Stream(random.Random(4))
        service.ingest(stream.grow())
        snapshot = tmp_path / "state.vos"
        service.save(snapshot)
        service.ingest(stream.grow())
        service.save_delta()
        state = load_snapshot_state(snapshot)

        def failing(shard, delta):
            return "leaves shard 0 in a made-up state"

        monkeypatch.setattr(journal_module, "apply_shard_delta", failing)
        with pytest.raises(SnapshotError, match="made-up state"):
            replay_journal(
                state.sketch,
                snapshot.with_name(snapshot.name + ".journal"),
                checkpoint_id=state.checkpoint_id,
            )
