"""Tests for repro.service.sharding (ShardedVOS)."""

from __future__ import annotations

import pytest

from repro.core.memory import MemoryBudget
from repro.core.vos import VirtualOddSketch
from repro.exceptions import ConfigurationError, UnknownUserError
from repro.service.sharding import ShardedVOS
from repro.similarity.measures import jaccard_coefficient
from repro.streams.edge import Action, StreamElement


class TestConstruction:
    def test_rejects_non_positive_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardedVOS(0, 1024, 64)

    def test_from_budget_splits_memory_evenly(self):
        budget = MemoryBudget(baseline_registers=10, num_users=40)
        sketch = ShardedVOS.from_budget(budget, num_shards=4)
        assert sketch.num_shards == 4
        assert sketch.shard_array_bits == budget.total_bits // 4
        assert sketch.memory_bits() == budget.total_bits

    def test_from_budget_uneven_split_rounds_up(self):
        budget = MemoryBudget(baseline_registers=10, num_users=7)
        sketch = ShardedVOS.from_budget(budget, num_shards=3)
        assert sketch.shard_array_bits * 3 >= budget.total_bits
        assert sketch.virtual_sketch_size <= sketch.shard_array_bits


class TestRouting:
    def test_every_user_owned_by_exactly_one_shard(self):
        sketch = ShardedVOS(4, 2048, 64, seed=1)
        for user in range(200):
            shard = sketch.shard_of(user)
            assert 0 <= shard < 4
            assert sketch.shard_of(user) == shard  # deterministic

    def test_routing_distributes_users(self):
        sketch = ShardedVOS(4, 2048, 64, seed=1)
        owners = {sketch.shard_of(user) for user in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_updates_only_touch_owning_shard(self):
        sketch = ShardedVOS(4, 2048, 64, seed=1)
        sketch.process(StreamElement(7, 42, Action.INSERT))
        owner = sketch.shard_of(7)
        for index, shard in enumerate(sketch.shards):
            expected = 1 if index == owner else 0
            assert shard.shared_array.ones_count == expected


class TestSingleShardEquivalence:
    """ShardedVOS(1, m, k) must be bit-for-bit a plain VirtualOddSketch(m, k)."""

    def test_estimates_and_state_identical(self, small_dynamic_stream):
        stream = small_dynamic_stream.prefix(3000)
        plain = VirtualOddSketch(shared_array_bits=16384, virtual_sketch_size=256, seed=5)
        sharded = ShardedVOS(1, 16384, 256, seed=5)
        for element in stream:
            plain.process(element)
            sharded.process(element)
        assert (
            plain.shared_array.to_packed_bytes()
            == sharded.shards[0].shared_array.to_packed_bytes()
        )
        users = sorted(plain.users())[:8]
        for i, user_a in enumerate(users):
            for user_b in users[i + 1 :]:
                assert plain.estimate_jaccard(user_a, user_b) == sharded.estimate_jaccard(
                    user_a, user_b
                )
                assert plain.estimate_common_items(
                    user_a, user_b
                ) == sharded.estimate_common_items(user_a, user_b)
                assert plain.estimate_symmetric_difference(
                    user_a, user_b
                ) == sharded.estimate_symmetric_difference(user_a, user_b)


class TestDelegatedBookkeeping:
    def test_cardinality_and_users(self):
        sketch = ShardedVOS(3, 1024, 32, seed=2)
        for user in range(10):
            for item in range(user + 1):
                sketch.process(StreamElement(user, item, Action.INSERT))
        assert sketch.users() == set(range(10))
        for user in range(10):
            assert sketch.has_user(user)
            assert sketch.cardinality(user) == user + 1
        assert not sketch.has_user(999)
        with pytest.raises(UnknownUserError):
            sketch.cardinality(999)

    def test_shard_report_accounts_all_users(self):
        sketch = ShardedVOS(4, 1024, 32, seed=2)
        for user in range(50):
            sketch.process(StreamElement(user, 1, Action.INSERT))
        report = sketch.shard_report()
        assert sum(entry["users"] for entry in report) == 50
        assert all(entry["memory_bits"] == 1024 for entry in report)

    @pytest.mark.parametrize("build", ["init", "from_shards"])
    def test_users_live_only_in_the_shard_tables(self, build):
        """A sharded sketch keeps no table of its own that writes never reach."""
        sketch = ShardedVOS(4, 4096, 256)
        if build == "from_shards":
            sketch = ShardedVOS.from_shards(sketch.shards, seed=0)
        sketch.process(StreamElement(1, 2, Action.INSERT))
        assert sketch.num_users == sum(len(s.user_table) for s in sketch.shards) == 1
        assert "_user_table" not in vars(sketch)
        with pytest.raises(ConfigurationError, match=r"shards\[i\]\.user_table"):
            sketch.user_table


class TestCrossShardEstimates:
    def test_cross_shard_pairs_track_true_jaccard(self, small_dynamic_stream):
        """Accuracy sanity: estimates across shards stay close to ground truth."""
        stream = small_dynamic_stream.prefix(4000)
        sketch = ShardedVOS(4, 65536, 512, seed=13)
        for element in stream:
            sketch.process(element)
        item_sets = stream.item_sets_at(None)
        users = sorted(
            (u for u, items in item_sets.items() if len(items) >= 10),
            key=lambda u: -len(item_sets[u]),
        )[:12]
        cross_pairs = [
            (a, b)
            for i, a in enumerate(users)
            for b in users[i + 1 :]
            if sketch.shard_of(a) != sketch.shard_of(b)
        ]
        assert cross_pairs, "expected at least one cross-shard pair"
        errors = [
            abs(
                sketch.estimate_jaccard(a, b)
                - jaccard_coefficient(item_sets[a], item_sets[b])
            )
            for a, b in cross_pairs
        ]
        assert sum(errors) / len(errors) < 0.15

    def test_identical_users_in_different_shards_look_identical(self):
        sketch = ShardedVOS(8, 8192, 256, seed=3)
        users = list(range(12))
        for user in users:
            for item in range(40):
                sketch.process(StreamElement(user, item, Action.INSERT))
        pair = next(
            (a, b)
            for i, a in enumerate(users)
            for b in users[i + 1 :]
            if sketch.shard_of(a) != sketch.shard_of(b)
        )
        assert sketch.estimate_jaccard(*pair) > 0.8

    def test_beta_aggregates_over_shards(self):
        sketch = ShardedVOS(2, 64, 8, seed=1)
        sketch.process(StreamElement(1, 1, Action.INSERT))
        ones = sum(shard.shared_array.ones_count for shard in sketch.shards)
        assert sketch.beta == ones / 128
        betas = [shard.beta for shard in sketch.row_shards()]
        assert betas == [shard.shared_array.ones_count / 64 for shard in sketch.shards]
