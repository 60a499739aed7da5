"""One user key: the row memo and the LSH tables index rows by user ordinal.

A seeded walk over a :class:`VirtualOddSketch` and a 4-shard
:class:`ShardedVOS` fed mixed-type ids (ints, strings, ints beyond 64 bits)
in an order unrelated to their sort key, so ordinal order, key order and
routing order all differ.  After ingest, after copy-on-publish epochs
(``cow_view`` + ``apply_shard_delta(track=False)``, which intern new users in
delta key order) and after a snapshot round trip with the index (which
interns every user in key order), on each kernel tier:

* every memoised packed row equals a cold recovery (a fresh ``cow_view``);
* the shard-held tables propose exactly the candidate pairs and neighbour
  candidates a :class:`BandedSketchIndex` built over a snapshot copy of the
  bits (new shard objects, so no table is shared) proposes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.vos import VirtualOddSketch
from repro.hashing.bitpack import next_stamp
from repro.index import BandedSketchIndex
from repro.service.delta import apply_shard_delta, shard_delta
from repro.service.service import SimilarityService
from repro.service.sharding import ShardedVOS
from repro.service.snapshot import dumps_snapshot, loads_snapshot
from repro.streams import Action, StreamElement
from repro.streams.edge import user_sort_key


def _tiers() -> list[str]:
    with kernels.use_tier("auto"):
        native = kernels.active_tier() == "native"
    return ["numpy"] + (["native"] if native else [])


def _mixed_ids(rng: np.random.Generator, count: int) -> list:
    """``count`` distinct ids of three types, shuffled out of key order."""
    third = count // 3
    numbers = rng.choice(10**6, size=count, replace=False).tolist()
    ids = (
        numbers[:third]
        + [f"user-{number}" for number in numbers[third : 2 * third]]
        + [2**70 + number for number in numbers[2 * third :]]
    )
    return [ids[position] for position in rng.permutation(count).tolist()]


def _clone_elements(rng: np.random.Generator, users: list) -> list[StreamElement]:
    """Consecutive users share an item set (clones), plus one item of their own."""
    elements = []
    for start in range(0, len(users) - 1, 2):
        items = rng.choice(10**7, size=30, replace=False).tolist()
        for user in users[start : start + 2]:
            own = [int(rng.integers(10**7, 2 * 10**7))]
            elements += [StreamElement(user, item, Action.INSERT) for item in items + own]
    return [elements[position] for position in rng.permutation(len(elements)).tolist()]


def _churn(rng: np.random.Generator, elements: list[StreamElement]) -> list[StreamElement]:
    """Delete a tenth of ``elements`` and re-insert half of those."""
    chosen = rng.choice(len(elements), size=len(elements) // 10, replace=False).tolist()
    gone = [elements[position] for position in chosen]
    return [StreamElement(e.user, e.item, Action.DELETE) for e in gone] + [
        StreamElement(e.user, e.item, Action.INSERT) for e in gone[::2]
    ]


def _by_ordinal(table) -> list:
    return table.ids(np.arange(len(table))).tolist()


def _make(kind: str):
    if kind == "vos":
        return VirtualOddSketch(shared_array_bits=1 << 20, virtual_sketch_size=512, seed=7)
    return ShardedVOS(4, shard_array_bits=1 << 18, virtual_sketch_size=512, seed=7)


def _check(sketch, index: BandedSketchIndex) -> tuple:
    """Rows against cold recovery and ``index`` against a fresh one, per tier."""
    pool = sorted(sketch.users(), key=user_sort_key)
    targets = pool[:: max(1, len(pool) // 9)]
    answers = []
    for tier in _tiers():
        with kernels.use_tier(tier):
            for shard in sketch.row_shards():
                members = list(shard.user_table.keys())
                warm = shard.packed_rows(members)
                cold = VirtualOddSketch.cow_view(shard).packed_rows(members)
                assert np.array_equal(warm, cold), tier
                # A second read, reordered, comes from the memo.
                hits = shard.sketch_cache_info()["hits"]
                assert np.array_equal(shard.packed_rows(members[::-1]), cold[::-1])
                assert shard.sketch_cache_info()["hits"] == hits + len(members)
            fresh = BandedSketchIndex(loads_snapshot(dumps_snapshot(sketch)))
            pairs = [array.tolist() for array in index.candidate_pairs(pool)]
            assert pairs == [array.tolist() for array in fresh.candidate_pairs(pool)]
            neighbours = [index.neighbour_candidates(t, set(pool)) for t in targets]
            assert neighbours == [fresh.neighbour_candidates(t, set(pool)) for t in targets]
            assert all(found == sorted(found, key=user_sort_key) for found in neighbours)
            answers.append((pairs, neighbours))
    assert all(answer == answers[0] for answer in answers), "tiers disagree"
    pairs, neighbours = answers[0]
    assert pairs[0] and any(neighbours)  # the walk exercises real buckets
    return answers[0]


@pytest.mark.parametrize("kind", ["vos", "sharded"])
def test_ordinal_keyed_rows_and_tables_match_fresh_builds(kind):
    rng = np.random.default_rng(2024)
    users = _mixed_ids(rng, 150)
    first = _clone_elements(rng, users[:90])
    writer = _make(kind)
    writer.process_batch(first)
    index = BandedSketchIndex(writer)
    _check(writer, index)

    # Ingest: more users (integer-only, so the vectorized path runs) and churn.
    extra = [int(user) for user in rng.choice(10**6, size=40, replace=False) + 10**6]
    writer.process_batch(_clone_elements(rng, extra))
    writer.process_batch(_churn(rng, first))
    _check(writer, index)

    # Copy-on-publish epochs: each view copies its predecessor (and its
    # table) and applies the writer's delta untracked; each epoch gets its
    # own index over the shards, as an epoch service does.
    shards = [VirtualOddSketch.cow_view(shard) for shard in writer.row_shards()]
    for batch in (_clone_elements(rng, users[90:]), _churn(rng, first)):
        cursor = next_stamp()
        writer.process_batch(batch)
        for position, shard in enumerate(writer.row_shards()):
            delta = shard_delta(shard, position, cursor)
            if delta is None:
                continue
            shards[position] = VirtualOddSketch.cow_view(shards[position])
            assert apply_shard_delta(shards[position], delta, track=False) is None
        epoch = shards[0] if kind == "vos" else ShardedVOS.from_shards(shards, seed=7)
        epoch_index = BandedSketchIndex(epoch)
        assert _check(epoch, epoch_index) == _check(writer, BandedSketchIndex(writer))

    # Snapshot round trip with the index: the restored tables are adopted
    # (no rebuild) although every ordinal moved to key order.
    service = SimilarityService(writer)
    service.index().refresh()
    restored = SimilarityService.from_state_bytes(service.dumps_state(include_index=True))
    moved = [
        (_by_ordinal(shard.user_table), _by_ordinal(mirror.user_table))
        for shard, mirror in zip(writer.row_shards(), restored.sketch.row_shards())
    ]
    assert any(ours != theirs for ours, theirs in moved)
    assert all(sorted(ours, key=user_sort_key) == theirs for ours, theirs in moved)
    assert restored.stats()["index"]["restored"] == len(writer.row_shards())
    assert _check(restored.sketch, restored.index()) == _check(writer, index)
    assert restored.index().stats()["rebuilds"] == 0
    # The same key-ordered section restored onto the writer, whose ordinals
    # follow first appearance, is scattered into that order instead.
    readopted = BandedSketchIndex(writer)
    assert readopted.restore_state(service.index().export_state())
    assert _check(writer, readopted) == _check(writer, index)
    assert readopted.stats()["rebuilds"] == 0
