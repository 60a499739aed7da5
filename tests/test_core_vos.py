"""Tests for repro.core.vos (the VirtualOddSketch streaming sketch)."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.baselines.exact import ExactSimilarityTracker
from repro.core.memory import MemoryBudget
from repro.core.vos import VirtualOddSketch
from repro.exceptions import ConfigurationError, UnknownUserError
from repro.service.sharding import ShardedVOS
from repro.streams.edge import Action, StreamElement


def _feed_sets(sketch, set_a, set_b, user_a=1, user_b=2):
    for item in set_a:
        sketch.process(StreamElement(user_a, item, Action.INSERT))
    for item in set_b:
        sketch.process(StreamElement(user_b, item, Action.INSERT))


def _make(k=2048, m=1 << 17, seed=1, **kwargs):
    return VirtualOddSketch(shared_array_bits=m, virtual_sketch_size=k, seed=seed, **kwargs)


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            VirtualOddSketch(shared_array_bits=0, virtual_sketch_size=4)
        with pytest.raises(ConfigurationError):
            VirtualOddSketch(shared_array_bits=16, virtual_sketch_size=0)
        with pytest.raises(ConfigurationError):
            VirtualOddSketch(shared_array_bits=16, virtual_sketch_size=32)

    def test_from_budget_follows_paper_rule(self):
        budget = MemoryBudget(baseline_registers=100, num_users=50)
        sketch = VirtualOddSketch.from_budget(budget, size_multiplier=2.0, seed=3)
        assert sketch.shared_array_bits == budget.total_bits
        assert sketch.virtual_sketch_size == 2 * 32 * 100

    def test_memory_bits_is_shared_array_only(self):
        sketch = _make(k=128, m=4096)
        assert sketch.memory_bits() == 4096

    def test_name(self):
        assert _make(k=4, m=64).name == "VOS"


class TestUpdates:
    def test_each_element_flips_exactly_one_bit_worth_of_parity(self):
        sketch = _make(k=64, m=4096)
        sketch.process(StreamElement(1, 10, Action.INSERT))
        assert sketch.shared_array.ones_count == 1
        sketch.process(StreamElement(1, 11, Action.INSERT))
        assert sketch.shared_array.ones_count in (0, 2)  # collision or not

    def test_insert_then_delete_cancels_exactly(self):
        sketch = _make(k=256, m=8192)
        for item in range(100):
            sketch.process(StreamElement(1, item, Action.INSERT))
        state_after_inserts = list(sketch.virtual_sketch(1))
        for item in range(100, 200):
            sketch.process(StreamElement(1, item, Action.INSERT))
        for item in range(100, 200):
            sketch.process(StreamElement(1, item, Action.DELETE))
        assert list(sketch.virtual_sketch(1)) == state_after_inserts
        assert sketch.cardinality(1) == 100

    def test_element_order_irrelevant(self):
        elements = [StreamElement(1, item, Action.INSERT) for item in range(50)] + [
            StreamElement(2, item, Action.INSERT) for item in range(25, 75)
        ]
        sketch_a = _make(seed=9)
        sketch_b = _make(seed=9)
        for element in elements:
            sketch_a.process(element)
        for element in reversed(elements):
            sketch_b.process(element)
        assert sketch_a.shared_array.ones_count == sketch_b.shared_array.ones_count
        assert list(sketch_a.virtual_sketch(1)) == list(sketch_b.virtual_sketch(1))

    def test_beta_increases_with_load(self):
        sketch = _make(k=256, m=8192)
        assert sketch.beta == 0.0
        for item in range(500):
            sketch.process(StreamElement(item % 20, item, Action.INSERT))
        assert 0.0 < sketch.beta < 0.5


class TestQueries:
    def test_unknown_user_raises(self):
        sketch = _make(k=16, m=256)
        with pytest.raises(UnknownUserError):
            sketch.virtual_sketch(5)

    def test_identical_sets_have_high_jaccard(self):
        sketch = _make(k=2048, m=1 << 17, seed=2)
        items = set(range(300))
        _feed_sets(sketch, items, items)
        assert sketch.estimate_jaccard(1, 2) > 0.9
        assert sketch.estimate_common_items(1, 2) == pytest.approx(300, rel=0.1)

    def test_disjoint_sets_have_low_jaccard(self):
        sketch = _make(k=4096, m=1 << 18, seed=3)
        _feed_sets(sketch, set(range(0, 300)), set(range(300, 600)))
        assert sketch.estimate_jaccard(1, 2) < 0.1

    def test_partial_overlap_accuracy(self):
        sketch = _make(k=8192, m=1 << 19, seed=4)
        set_a = set(range(0, 400))
        set_b = set(range(200, 600))
        _feed_sets(sketch, set_a, set_b)
        assert sketch.estimate_common_items(1, 2) == pytest.approx(200, rel=0.2)
        assert sketch.estimate_jaccard(1, 2) == pytest.approx(200 / 600, abs=0.08)

    def test_symmetric_difference_estimate(self):
        sketch = _make(k=8192, m=1 << 19, seed=5)
        _feed_sets(sketch, set(range(0, 300)), set(range(150, 450)))
        assert sketch.estimate_symmetric_difference(1, 2) == pytest.approx(300, rel=0.25)

    def test_pair_alpha_symmetric(self):
        sketch = _make(k=512, m=1 << 15, seed=6)
        _feed_sets(sketch, set(range(40)), set(range(20, 60)))
        assert sketch.pair_alpha(1, 2) == pytest.approx(sketch.pair_alpha(2, 1))

    def test_estimates_unbiased_under_heavy_deletions(self):
        """The headline property: deletions do not bias VOS (unlike MinHash/OPH)."""
        sketch = _make(k=4096, m=1 << 18, seed=7)
        exact = ExactSimilarityTracker()
        items = list(range(400))
        for item in items:
            for user in (1, 2):
                element = StreamElement(user, item, Action.INSERT)
                sketch.process(element)
                exact.process(element)
        # Delete 75% of the common items from both users.
        for item in items[:300]:
            for user in (1, 2):
                element = StreamElement(user, item, Action.DELETE)
                sketch.process(element)
                exact.process(element)
        assert exact.estimate_jaccard(1, 2) == pytest.approx(1.0)
        assert sketch.estimate_jaccard(1, 2) > 0.85
        assert sketch.estimate_common_items(1, 2) == pytest.approx(100, rel=0.25)

    def test_estimate_common_items_nonnegative_and_bounded(self, small_dynamic_stream):
        sketch = _make(k=1024, m=1 << 17, seed=8)
        sketch.process_stream(small_dynamic_stream)
        users = sorted(sketch.users())[:12]
        for index, user_a in enumerate(users):
            for user_b in users[index + 1 :]:
                estimate = sketch.estimate_common_items(user_a, user_b)
                assert 0.0 <= estimate <= min(
                    sketch.cardinality(user_a), sketch.cardinality(user_b)
                )
                assert 0.0 <= sketch.estimate_jaccard(user_a, user_b) <= 1.0

    @pytest.mark.parametrize("shards", [0, 3], ids=["single", "sharded"])
    def test_estimate_pair_equals_the_two_scalar_estimates(self, shards, small_dynamic_stream):
        """One gather feeds both estimates: the record is ``==`` the two
        separate scalar calls on either layout."""
        sketch = (
            ShardedVOS(shards, 1 << 14, 512, seed=9) if shards else _make(k=512, m=1 << 15, seed=9)
        )
        sketch.process_stream(small_dynamic_stream)
        users = sorted(sketch.users())[:10]
        for user_a in users:
            for user_b in users:
                estimate = sketch.estimate_pair(user_a, user_b)
                assert (estimate.user_a, estimate.user_b) == (user_a, user_b)
                assert estimate.common_items == sketch.estimate_common_items(user_a, user_b)
                assert estimate.jaccard == sketch.estimate_jaccard(user_a, user_b)


class TestRowMemoConcurrency:
    def test_readers_racing_a_writer_never_lose_counts_or_keep_stale_rows(self):
        """Concurrent readers share one memo while a writer keeps moving the stamp.

        Every requested row is counted exactly once (a lost counter update
        breaks the total), and once the writer stops the memoised rows equal
        a cold recovery: rows read across a write never outlive it.
        """
        sketch = _make(k=192, m=1 << 13, seed=12)
        users = list(range(48))
        sketch.process_batch(
            [StreamElement(user, item, Action.INSERT) for user in users for item in range(8)]
        )
        requested = [0] * 8
        errors: list[Exception] = []
        done = threading.Barrier(len(requested) + 1)

        def reader(slot: int) -> None:
            try:
                for _ in range(150):
                    subset = users[slot % 3 :: 3]
                    sketch.packed_rows(subset)
                    requested[slot] += len(subset)
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)
            done.wait(timeout=60)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(8)]
        try:
            for thread in threads:
                thread.start()
            writes = 0
            while done.n_waiting < len(threads) and writes < 10_000:
                user = users[writes % len(users)]
                sketch.process(StreamElement(user, 1000 + writes, Action.INSERT))
                writes += 1
                time.sleep(0.0005)
            done.wait(timeout=60)
        finally:
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        info = sketch.sketch_cache_info()
        assert info["hits"] + info["misses"] == sum(requested)
        served = sketch.packed_rows(users)
        cold = VirtualOddSketch.cow_view(sketch)
        assert np.array_equal(served, cold.packed_rows(users))

    def test_rows_recovered_across_a_write_are_not_memoised(self, monkeypatch):
        sketch = _make(k=64, m=2048, seed=3)
        _feed_sets(sketch, set(range(20)), set(range(10, 30)))
        recover = sketch._recover_rows

        def racing_recover(users):
            rows = recover(users)
            sketch.process(StreamElement(1, 999, Action.INSERT))  # lands mid-read
            return rows

        monkeypatch.setattr(sketch, "_recover_rows", racing_recover)
        sketch.packed_rows([1, 2])
        assert sketch.sketch_cache_info()["entries"] == 0
        monkeypatch.undo()
        cold = VirtualOddSketch.cow_view(sketch)
        assert np.array_equal(sketch.packed_rows([1, 2]), cold.packed_rows([1, 2]))
        assert sketch.sketch_cache_info()["entries"] == 2
