"""The one batch ingest of both VOS layouts (``repro.core.vos.ingest_batch``).

A batch is hashed, folded and routed once, then each shard interns its users
and xors its positions.  These tests hold it to two references on random
mixed batches (inserts, deletes that clamp counters at zero, an insert and a
delete of one edge in the same batch) over 1, 3 and 8 shards, with integer
and object ids:

* the per-element ``process`` loop: the same bits, popcounts, counters and
  users per shard, the same users stamped as changed, and no word stamped
  that the loop does not stamp;
* the per-shard batch path it replaces (route every element, then per shard
  ``UserTable.add_many`` and ``xor_bulk``): the same ordinals, stamped words
  and users, and byte-identical journal records.

The kernel tier follows ``REPRO_KERNEL``; CI runs this file under both.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.vos import VirtualOddSketch
from repro.hashing.bitpack import next_stamp
from repro.service.delta import shard_delta
from repro.service.journal import JournalWriter
from repro.service.sharding import ShardedVOS
from repro.streams.batch import ElementBatch

ARRAY_BITS = 1 << 12
SKETCH_SIZE = 64


def _sketch(shards: int, layout: str):
    if layout == "array":
        return VirtualOddSketch(ARRAY_BITS, SKETCH_SIZE, seed=11)
    return ShardedVOS(shards, ARRAY_BITS, SKETCH_SIZE, seed=11)


def _batches(seed: int, object_ids: bool) -> list[ElementBatch]:
    """Three random batches over a small population, so users repeat,
    deletes of absent edges clamp counters at 0 and positions collide."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(3):
        size = int(rng.integers(1, 400))
        users = rng.integers(0, 60, size)
        items = rng.integers(0, 40, size)
        signs = rng.choice(np.array([1, -1], dtype=np.int8), size, p=[0.65, 0.35])
        # One edge inserted and deleted again inside the batch.
        user, item = int(rng.integers(0, 60)), int(rng.integers(0, 40))
        at = sorted(rng.integers(0, size + 1, 2).tolist())
        users = np.insert(users, at, user)
        items = np.insert(items, at, item)
        signs = np.insert(signs, at, [1, -1])
        user_column = users.tolist()
        if object_ids:
            user_column = [f"u{u}" if u % 3 == 0 else u for u in user_column]
        batches.append(ElementBatch(user_column, items, signs))
    return batches


def _per_shard_reference(sketch, batch: ElementBatch) -> None:
    """The per-shard batch path: route every element, then each shard folds
    its users with ``add_many`` and xors its positions with ``xor_bulk``."""
    if not (batch.integer_users and batch.integer_items):
        for element in batch.to_elements():
            sketch.process(element)
        return
    owners = np.array([sketch.shard_of(user) for user in batch.users.tolist()])
    for index, shard in enumerate(sketch.row_shards()):
        rows = np.flatnonzero(owners == index)
        if not rows.size:
            continue
        users = batch.users[rows]
        shard.user_table.add_many(users, batch.deltas()[rows])
        shard.shared_array.xor_bulk(
            [
                shard._user_hashes.hash_pair(user, shard._item_hash(item))
                for user, item in zip(users.tolist(), batch.items[rows].tolist())
            ]
        )


def _ordinal_ids(shard) -> list:
    table = shard.user_table
    return table.ids(np.arange(len(table))).tolist()


def _journal_bytes(sketch, since: int, directory: Path, name: str) -> bytes:
    """The records a ``save_delta`` after cursor ``since`` appends."""
    deltas = [
        delta
        for index, shard in enumerate(sketch.row_shards())
        if (delta := shard_delta(shard, index, since)) is not None
    ]
    path = directory / name
    JournalWriter(path, "c" * 16).append_delta(deltas)
    return path.read_bytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from([("array", 1), ("sharded", 1), ("sharded", 3), ("sharded", 8)]),
    object_ids=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_batch_ingest_matches_element_loop_and_per_shard_path(seed, layout, object_ids):
    kind, shards = layout
    batched, reference, loop = (_sketch(shards, kind) for _ in range(3))
    start = next_stamp()
    for batch in _batches(seed, object_ids):
        cursor = next_stamp()
        assert batched.process_batch(batch) == len(batch)
        _per_shard_reference(reference, batch)
        for element in batch.to_elements():
            loop.process(element)
        for got, want, each in zip(
            batched.row_shards(), reference.row_shards(), loop.row_shards()
        ):
            array = got.shared_array
            assert array.to_packed_bytes() == want.shared_array.to_packed_bytes()
            assert array.to_packed_bytes() == each.shared_array.to_packed_bytes()
            assert array.ones_count == each.shared_array.ones_count
            assert got.counters() == each.counters() == want.counters()
            assert _ordinal_ids(got) == _ordinal_ids(want)
            assert set(_ordinal_ids(got)) == set(_ordinal_ids(each))
            words = array.dirty_words(cursor)
            assert words.tolist() == want.shared_array.dirty_words(cursor).tolist()
            # The loop also stamps words whose flips cancelled.
            assert set(words.tolist()) <= set(each.shared_array.dirty_words(cursor).tolist())
            changed = got.user_table.changed(cursor)
            assert changed.tolist() == want.user_table.changed(cursor).tolist()
            assert set(got.user_table.ids(changed).tolist()) == set(
                each.user_table.ids(each.user_table.changed(cursor)).tolist()
            )
    with tempfile.TemporaryDirectory() as directory:
        assert _journal_bytes(batched, start, Path(directory), "batched") == _journal_bytes(
            reference, start, Path(directory), "reference"
        )


def test_sharded_batch_hashes_three_times(monkeypatch):
    """One integer batch on 8 shards makes three ``hash_keys`` dispatches:
    the router over its distinct users, ``psi`` over its items and the
    positions.  (The per-shard path made 17: one route, then ``psi`` and
    positions once per shard.)"""
    calls = []
    original = kernels.hash_keys

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    sketch = ShardedVOS(8, ARRAY_BITS, SKETCH_SIZE, seed=3)
    rng = np.random.default_rng(3)
    batch = ElementBatch(rng.integers(0, 500, 4096), rng.integers(0, 900, 4096), np.ones(4096))
    monkeypatch.setattr(kernels, "hash_keys", counting)
    sketch.process_batch(batch)
    assert sorted(calls) == sorted([len(np.unique(batch.users)), 4096, 4096])
    assert {index for index, shard in enumerate(sketch.shards) if shard.num_users} == set(
        range(8)
    )
