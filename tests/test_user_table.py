"""Tests for the per-sketch user table (:mod:`repro.baselines.users`).

A seeded random walk over ``process``, ``process_batch`` (with mid-batch
clamps at zero), delta apply and ``copy`` checks the table against a plain
dict model: counters, ``changed(since)`` at random cursors, key order and the
``int64`` → ``object`` id column promotion.  The second half checks that
every bulk path refuses repeated users and negative counters with a
:class:`~repro.exceptions.SnapshotError`.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro.baselines.exact import ExactSimilarityTracker
from repro.baselines.users import UserTable
from repro.core.vos import VirtualOddSketch
from repro.exceptions import ConfigurationError, SnapshotError, UnknownUserError
from repro.hashing.bitpack import next_stamp
from repro.server.cow import CowEpochPublisher
from repro.service import ServiceConfig, SimilarityService
from repro.service.delta import apply_shard_delta, shard_delta
from repro.service.journal import JournalWriter, default_journal_path
from repro.service.snapshot import MAGIC, dumps_snapshot, loads_snapshot
from repro.streams.edge import Action, StreamElement, user_sort_key

#: Ids that force the id column from ``int64`` to ``object``, one kind each.
PROMOTING_IDS = ["carol", 2.5, 2**70, np.int64(7)]


def _vos() -> VirtualOddSketch:
    return VirtualOddSketch(shared_array_bits=1 << 12, virtual_sketch_size=128, seed=4)


SKETCHES = {"vos": _vos, "exact": ExactSimilarityTracker}


class DictModel:
    """The reference: counters and last-write op numbers in plain dicts."""

    def __init__(self) -> None:
        self.counts: dict = {}
        self.written: dict = {}
        self.op = 0

    def write(self, user, value: int) -> None:
        self.counts[user] = value
        self.written[user] = self.op

    def process(self, element: StreamElement) -> None:
        count = self.counts.get(element.user, 0)
        self.write(
            element.user, count + 1 if element.is_insertion else max(0, count - 1)
        )


def _check(sketch, model: DictModel, cursors: list[tuple[int, int]]) -> None:
    table = sketch.user_table
    assert sketch.counters() == model.counts
    assert sketch.num_users == len(model.counts) == len(table)
    users = sorted(model.counts, key=user_sort_key)
    assert table.ids(table.key_order()).tolist() == users
    assert sketch.cardinalities(users).tolist() == [model.counts[u] for u in users]
    for cursor, op in cursors:
        changed = {user for user, when in model.written.items() if when >= op}
        assert set(table.ids(table.changed(cursor)).tolist()) == changed
    plain_ints = all(type(user) is int and -(2**63) <= user < 2**63 for user in users)
    assert table.ids(np.arange(len(table))).dtype == (np.int64 if plain_ints else object)


def _random_elements(rng, users: list, count: int) -> list[StreamElement]:
    return [
        StreamElement(
            users[int(rng.integers(len(users)))],
            int(rng.integers(40)),
            Action.INSERT if rng.random() < 0.55 else Action.DELETE,
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("kind", sorted(SKETCHES))
@pytest.mark.parametrize("seed", range(6))
def test_random_walk_matches_dict_model(kind, seed):
    rng = np.random.default_rng(seed)
    sketch = SKETCHES[kind]()
    model = DictModel()
    cursors: list[tuple[int, int]] = []
    users = list(range(-3, 25))
    promoting = list(PROMOTING_IDS)
    copies: list[tuple[UserTable, dict]] = []
    for op in range(60):
        model.op = op
        if rng.random() < 0.25:
            cursors.append((next_stamp(), model.op))
        if promoting and rng.random() < 0.08:
            users.append(promoting.pop(int(rng.integers(len(promoting)))))
        action = rng.integers(4)
        if action == 0:
            for element in _random_elements(rng, users, int(rng.integers(1, 6))):
                sketch.process(element)
                model.process(element)
        elif action == 1:
            # Deletes ahead of inserts for one user clamp at zero mid-batch.
            user = users[int(rng.integers(len(users)))]
            batch = _random_elements(rng, users, int(rng.integers(0, 30)))
            batch += [StreamElement(user, 99, Action.DELETE)] * 3
            batch += [StreamElement(user, 98, Action.INSERT)]
            sketch.process_batch(batch)
            for element in batch:
                model.process(element)
        elif action == 2:
            chosen = rng.choice(len(users), size=int(rng.integers(1, 6)), replace=False)
            assigned = [users[i] for i in chosen.tolist()]
            values = rng.integers(0, 9, size=len(assigned))
            sketch.user_table.assign(assigned, values)
            for user, value in zip(assigned, values.tolist()):
                model.write(user, value)
        else:
            copy = sketch.user_table.copy()
            assert copy.changed(0).size == 0  # copies carry no stamps
            copies.append((copy, dict(model.counts)))
        _check(sketch, model, cursors)
    for copy, counts in copies:
        assert copy.as_dict() == counts  # later writes never reach a copy


def test_shard_delta_round_trip_matches_model():
    """A delta of a live shard, applied to a twin, reproduces its counters."""
    rng = np.random.default_rng(3)
    source, twin = _vos(), _vos()
    users = list(range(30)) + ["dave", 4.5]
    for _ in range(5):
        cursor = next_stamp()
        source.process_batch(_random_elements(rng, users, 80))
        delta = shard_delta(source, 0, cursor)
        assert list(delta["counter_users"]) == sorted(
            delta["counter_users"].tolist(), key=user_sort_key
        )
        assert apply_shard_delta(twin, delta) is None
        assert twin.counters() == source.counters()
        assert np.array_equal(
            twin.shared_array.to_packed_bytes(), source.shared_array.to_packed_bytes()
        )


@pytest.mark.parametrize("user", PROMOTING_IDS)
def test_promotion_keeps_counters_order_and_stamps(user):
    sketch = _vos()
    sketch.process_batch([StreamElement(u, 1, Action.INSERT) for u in (5, 1, 3)])
    table = sketch.user_table
    assert table.ids(np.arange(3)).dtype == np.int64
    cursor = next_stamp()
    sketch.process(StreamElement(user, 2, Action.INSERT))
    assert table.ids(np.arange(4)).dtype == object
    assert sketch.counters() == {5: 1, 1: 1, 3: 1, user: 1}
    assert table.ids(table.changed(cursor)).tolist() == [user]
    expected = sorted([5, 1, 3, user], key=user_sort_key)
    assert table.ids(table.key_order()).tolist() == expected
    # Ints interned after the promotion keep their plain values.
    sketch.process_batch([StreamElement(9, 1, Action.INSERT)])
    assert table.count(9) == 1 and type(table.ids(np.arange(5))[-1]) is int


def test_unknown_users_raise():
    sketch = _vos()
    sketch.process(StreamElement(1, 1, Action.INSERT))
    with pytest.raises(UnknownUserError):
        sketch.cardinality(2)
    with pytest.raises(UnknownUserError):
        sketch.cardinalities([1, 2])
    assert not sketch.has_user(2) and sketch.has_user(1)


def test_deleting_an_unseen_user_records_it_at_zero():
    sketch = ExactSimilarityTracker()
    sketch.process(StreamElement("eve", 1, Action.DELETE))
    assert sketch.counters() == {"eve": 0}


class TestAssignRefusesBadColumns:
    def test_repeated_user(self):
        table = UserTable()
        with pytest.raises(ConfigurationError):
            table.assign([1, 2, 1], [1, 1, 1])
        assert len(table) == 0

    def test_negative_counter(self):
        table = UserTable()
        with pytest.raises(ConfigurationError):
            table.assign(["a", "b"], [1, -5])
        assert len(table) == 0

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            UserTable().assign([1, 2], [1])


# -- every bulk path surfaces a bad counter column as SnapshotError --------------------

BAD_COLUMNS = {
    "repeat": ([3, 3], [4, 5]),
    "negative": ([3], [-1]),
}


def _rewrite_section(data: bytes, name: str, payload: bytes) -> bytes:
    """``data`` with one core section replaced (same length), CRC re-signed."""
    (header_length,) = struct.unpack_from("<I", data, len(MAGIC) + 4)
    start = len(MAGIC) + 8
    header = json.loads(data[start : start + header_length])
    body = bytearray(data[start + header_length :])
    offset = 0
    for entry in header["sections"]:
        if entry["name"] == name:
            assert len(payload) == entry["bytes"]
            body[offset : offset + len(payload)] = payload
        offset += entry["bytes"]
    header["crc32"] = zlib.crc32(bytes(body))
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return (
        data[: len(MAGIC) + 4]
        + struct.pack("<I", len(header_bytes))
        + header_bytes
        + bytes(body)
    )


def _three_user_sketch() -> VirtualOddSketch:
    sketch = _vos()
    for user in (1, 2, 3):
        sketch.process(StreamElement(user, 10 + user, Action.INSERT))
    return sketch


def test_snapshot_with_repeated_user_is_refused():
    data = dumps_snapshot(_three_user_sketch(), checkpoint_id="c" * 16)
    users = np.array([1, 1, 3], dtype="<i8").tobytes()
    with pytest.raises(SnapshotError):
        loads_snapshot(_rewrite_section(data, "card_users", users))


def test_snapshot_with_negative_counter_is_refused():
    data = dumps_snapshot(_three_user_sketch(), checkpoint_id="c" * 16)
    counts = np.array([1, -5, 1], dtype="<i8").tobytes()
    with pytest.raises(SnapshotError):
        loads_snapshot(_rewrite_section(data, "card_counts", counts))


@pytest.mark.parametrize("bad", sorted(BAD_COLUMNS))
def test_journal_with_bad_counters_is_refused(bad, tmp_path):
    service = SimilarityService(_three_user_sketch())
    path = tmp_path / "state.vos"
    checkpoint = service.save(path)
    users, counts = BAD_COLUMNS[bad]
    writer = JournalWriter(default_journal_path(path), checkpoint)
    writer.append_delta(
        [
            {
                "shard": 0,
                "words": np.empty(0, dtype=np.int64),
                "word_data": b"",
                "counter_users": users,
                "counter_counts": counts,
                "ones_count": service.sketch.shared_array.ones_count,
                "num_users": 3,
            }
        ]
    )
    with pytest.raises(SnapshotError):
        SimilarityService.load(path)


@pytest.mark.parametrize("bad", sorted(BAD_COLUMNS))
def test_cow_publish_with_bad_counters_is_refused(bad):
    writer = SimilarityService.from_config(
        ServiceConfig(expected_users=50, num_shards=2, seed=5)
    )
    writer.ingest([StreamElement(3, item, Action.INSERT) for item in range(4)])
    publisher = CowEpochPublisher(writer)
    publisher.materialize()
    shard_index = writer.sketch.shard_of(3)
    shard = writer.sketch.shards[shard_index]
    users, counts = BAD_COLUMNS[bad]
    delta = {
        "shards": [
            {
                "shard": shard_index,
                "words": np.empty(0, dtype=np.int64),
                "word_data": b"",
                "counter_users": np.array(users, dtype=np.int64),
                "counter_counts": np.array(counts, dtype=np.int64),
                "ones_count": shard.shared_array.ones_count,
                "num_users": shard.num_users,
            }
        ],
        "cursor": next_stamp(),
        "elements_ingested": 4,
        "batches_ingested": 1,
    }
    with pytest.raises(SnapshotError):
        publisher.publish_delta(delta)
