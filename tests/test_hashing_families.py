"""Tests for repro.hashing.families."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.memory import MemoryBudget
from repro.exceptions import ConfigurationError
from repro.hashing import universal
from repro.hashing.families import HashFamily, IndexedHash
from repro.hashing.universal import (
    UniversalHash,
    coefficient_arrays,
    stable_hash64,
    universal_coefficients,
)
from repro.server.cow import CowEpochPublisher
from repro.service.service import SimilarityService
from repro.service.sharding import ShardedVOS
from repro.service.snapshot import load_snapshot, save_snapshot
from repro.streams import Action, StreamElement


class TestHashFamily:
    def test_length_and_indexing(self):
        family = HashFamily(size=8, range_size=32, seed=1)
        assert len(family) == 8
        assert isinstance(family[0], IndexedHash)
        assert family[7].index == 7

    def test_members_are_distinct_functions(self):
        family = HashFamily(size=10, range_size=10_000, seed=4)
        outputs = [member("same-key") for member in family]
        assert len(set(outputs)) > 5  # overwhelmingly likely for independent hashes

    def test_deterministic_across_instances(self):
        family_a = HashFamily(size=5, range_size=100, seed=2)
        family_b = HashFamily(size=5, range_size=100, seed=2)
        assert family_a.apply_all("user") == family_b.apply_all("user")

    def test_different_master_seeds_differ(self):
        family_a = HashFamily(size=5, range_size=10_000, seed=1)
        family_b = HashFamily(size=5, range_size=10_000, seed=2)
        assert family_a.apply_all("user") != family_b.apply_all("user")

    def test_apply_all_range(self):
        family = HashFamily(size=6, range_size=17, seed=3)
        for key in ["a", "b", 12, ("x", 1)]:
            assert all(0 <= v < 17 for v in family.apply_all(key))

    def test_iteration_preserves_order(self):
        family = HashFamily(size=4, range_size=8, seed=0)
        assert [member.index for member in family] == [0, 1, 2, 3]

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            HashFamily(size=0, range_size=8)
        with pytest.raises(ConfigurationError):
            HashFamily(size=3, range_size=0)

    def test_min_index_in_bounds(self):
        family = HashFamily(size=9, range_size=100, seed=5)
        assert 0 <= family.min_index("key") < 9

    def test_indexed_hash_exposes_range_and_variants(self):
        family = HashFamily(size=2, range_size=50, seed=6)
        member = family[1]
        assert member.range_size == 50
        assert 0 <= member("k") < 50
        assert member.value64("k") >= 0
        assert 0.0 <= member.unit_interval("k") < 1.0


FAMILY_CASES = [(1, 2, 0), (7, 100, 3), (64, 1 << 20, 11), (300, 10_007, 2**63 + 5)]


class TestCoefficients:
    @pytest.mark.parametrize("size, range_size, seed", FAMILY_CASES, ids=repr)
    def test_match_per_member_universal_hashes(self, size, range_size, seed):
        family = HashFamily(size=size, range_size=range_size, seed=seed)
        reference = [
            UniversalHash(range_size, stable_hash64(("hash-family", seed, j)))._coefficients
            for j in range(size)
        ]
        assert family._coeff_a.dtype == family._coeff_b.dtype == np.uint64
        assert list(zip(family._coeff_a.tolist(), family._coeff_b.tolist())) == reference

    def test_universal_coefficients_is_the_universal_hash_derivation(self):
        for seed in (0, 1, 7, 2**64 - 1, -3):
            assert universal_coefficients(seed) == UniversalHash(5, seed)._coefficients

    @pytest.mark.parametrize("size, range_size, seed", FAMILY_CASES, ids=repr)
    def test_lazy_members_match_the_coefficients(self, size, range_size, seed):
        family = HashFamily(size=size, range_size=range_size, seed=seed)
        assert family._members is None  # construction builds no member object
        member = family[size - 1]
        assert family._members is not None
        assert member.index == size - 1
        assert member.hash_function == UniversalHash(
            range_size, stable_hash64(("hash-family", seed, size - 1))
        )
        for j, member in enumerate(family):
            assert member.hash_function._coefficients == (
                int(family._coeff_a[j]),
                int(family._coeff_b[j]),
            )
        keys = [0, 5, -9, 2**40]
        expected = [[member(key) for member in family] for key in keys]
        assert family.apply_many_array(keys).tolist() == expected
        assert [family.apply_all(key) for key in keys] == expected

    @pytest.mark.parametrize("size, range_size, seed", FAMILY_CASES, ids=repr)
    def test_hash_pair_matches_the_members_without_building_them(self, size, range_size, seed):
        family = HashFamily(size=size, range_size=range_size, seed=seed)
        keys = [0, 5, -9, 2**40, "user", ("x", 1)]
        values = [family.hash_pair(key, j) for key in keys for j in range(size)]
        assert family._members is None
        assert values == [family[j](key) for key in keys for j in range(size)]
        int_keys = np.array([0, 5, -9, 2**40] * size, dtype=np.int64)
        members = np.repeat(np.arange(size), 4)
        assert family.hash_pairs(int_keys, members).tolist() == [
            family.hash_pair(int(key), int(j)) for key, j in zip(int_keys, members)
        ]

    def test_every_scalar_entry_point_builds_the_members(self):
        for touch in (
            lambda family: family[0],
            lambda family: list(family),
            lambda family: family.apply_all("key"),
            lambda family: family.min_index("key"),
        ):
            family = HashFamily(size=3, range_size=50, seed=9)
            touch(family)
            assert [m.index for m in family._members] == [0, 1, 2]

    def test_arrays_reject_writes(self):
        family = HashFamily(size=4, range_size=64, seed=1)
        for array in (family._coeff_a, family._coeff_b):
            with pytest.raises(ValueError):
                array[0] = 1
        band_a, band_b = coefficient_arrays([1, 2, 3])
        assert not (band_a.flags.writeable or band_b.flags.writeable)


def _shard_hashes(shards) -> tuple[set, set]:
    return {id(shard._user_hashes) for shard in shards}, {id(shard._item_hash) for shard in shards}


def _assert_one_family(shards) -> None:
    families, item_hashes = _shard_hashes(shards)
    assert len(shards) > 1 and len(families) == 1 and len(item_hashes) == 1


def _fed_sharded(seed: int = 5) -> ShardedVOS:
    sketch = ShardedVOS(4, shard_array_bits=4096, virtual_sketch_size=256, seed=seed)
    sketch.process_batch(
        [StreamElement(u, i, Action.INSERT) for u in range(40) for i in range(u % 5, 12)]
    )
    return sketch


class TestSharedFamilies:
    """Shards of one sketch hold one ``psi`` and one user family (``is``)."""

    def test_constructor_and_budget(self):
        _assert_one_family(ShardedVOS(8, 4096, 256, seed=2).shards)
        budget = MemoryBudget(baseline_registers=8, num_users=200)
        _assert_one_family(ShardedVOS.from_budget(budget, num_shards=3, seed=2).shards)

    def test_shards_share_hashes_but_not_state(self):
        sketch = _fed_sharded()
        first, second = sketch.shards[:2]
        assert first.shared_array is not second.shared_array
        assert first.user_table is not second.user_table
        assert sum(shard.num_users for shard in sketch.shards) == 40

    def test_snapshot_restore(self, tmp_path):
        sketch = _fed_sharded()
        save_snapshot(sketch, tmp_path / "state.vos")
        restored = load_snapshot(tmp_path / "state.vos")
        _assert_one_family(restored.shards)
        assert restored.shards[0]._user_hashes == sketch.shards[0]._user_hashes
        users = list(range(40))
        assert np.array_equal(restored.sketch_matrix(users), sketch.sketch_matrix(users))

    def test_epochs_hold_the_writers_family(self):
        writer = SimilarityService(_fed_sharded())
        publisher = CowEpochPublisher(writer)
        family = writer.sketch.shards[0]._user_hashes
        epoch = publisher.materialize()
        assert _shard_hashes(epoch.sketch.shards)[0] == {id(family)}
        writer.ingest([StreamElement(99, 3, Action.INSERT)])
        epoch = publisher.publish_delta(writer.freeze_delta(publisher.cursor))
        assert _shard_hashes(epoch.sketch.shards)[0] == {id(family)}

    def test_construction_derives_one_family(self, monkeypatch):
        """A count, not a timing: ``ShardedVOS(8, 4096, 256)`` derives the
        position family once (its seed and two coefficient pairs, six
        digests whatever ``k``) plus ``psi`` and the router, not once per
        shard."""
        original = universal.stable_hash64
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "stable_hash64", None) is original:
                monkeypatch.setattr(module, "stable_hash64", counting)
        ShardedVOS(8, 4096, 256)
        assert len(calls) <= 16


def test_racing_first_use_builds_equal_members():
    """Threads racing on a fresh family's first scalar use may each build the
    members; whichever tuple lands, every thread sees the same values."""
    reference = HashFamily(size=200, range_size=997, seed=8).apply_all("key")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            family = HashFamily(size=200, range_size=997, seed=8)
            results = []
            threads = [
                threading.Thread(target=lambda: results.append(family.apply_all("key")))
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [reference] * 8
            assert [member.index for member in family] == list(range(200))
    finally:
        sys.setswitchinterval(interval)
