"""Tests for repro.service.batching and the ``process_batch`` contract.

The load-bearing guarantee: for every sketch in the registry, batched ingest
must leave the sketch in exactly the state the per-element loop produces —
bit-exact shared-array state for VOS, identical estimates for everyone.
"""

from __future__ import annotations

import pytest

from repro.core.memory import MemoryBudget
from repro.core.vos import VirtualOddSketch
from repro.exceptions import ConfigurationError
from repro.service.batching import IngestReport, ingest_stream, iter_batches
from repro.service.sharding import ShardedVOS
from repro.similarity.engine import build_sketch, sketch_registry
from repro.streams.edge import Action, StreamElement


@pytest.fixture(scope="module")
def parity_stream(small_dynamic_stream):
    """A 5k-element fully dynamic stream shared by the parity tests."""
    return small_dynamic_stream.prefix(5000)


def _sample_pairs(sketch, limit=15):
    users = sorted(sketch.users())[:8]
    pairs = [(a, b) for i, a in enumerate(users) for b in users[i + 1 :]]
    return pairs[:limit]


class TestIterBatches:
    def test_batches_cover_everything_in_order(self):
        elements = [StreamElement(1, i, Action.INSERT) for i in range(10)]
        batches = list(iter_batches(elements, 3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        assert [e for batch in batches for e in batch] == elements

    def test_exact_multiple_has_no_empty_tail(self):
        elements = [StreamElement(1, i, Action.INSERT) for i in range(6)]
        assert [len(b) for b in iter_batches(elements, 3)] == [3, 3]

    def test_empty_iterable_yields_nothing(self):
        assert list(iter_batches([], 4)) == []

    def test_rejects_non_positive_batch_size(self):
        with pytest.raises(ConfigurationError):
            list(iter_batches([], 0))


class TestIngestReport:
    def test_throughput(self):
        report = IngestReport(elements=100, batches=2, seconds=0.5)
        assert report.elements_per_second == 200.0

    def test_zero_seconds_is_safe(self):
        assert IngestReport(elements=5, batches=1, seconds=0.0).elements_per_second == 0.0


class TestBatchParityEverySketch:
    """process_batch == per-element process, for every registered sketch."""

    @pytest.mark.parametrize("method", sorted(sketch_registry()))
    def test_estimates_identical(self, method, parity_stream):
        budget = MemoryBudget(
            baseline_registers=16, num_users=len(parity_stream.users())
        )
        reference = build_sketch(method, budget, seed=11)
        batched = build_sketch(method, budget, seed=11)
        for element in parity_stream:
            reference.process(element)
        report = ingest_stream(batched, parity_stream, batch_size=997)
        assert report.elements == len(parity_stream)
        assert batched.users() == reference.users()
        for user in sorted(reference.users()):
            assert batched.cardinality(user) == reference.cardinality(user)
        for user_a, user_b in _sample_pairs(reference):
            assert batched.estimate_common_items(
                user_a, user_b
            ) == reference.estimate_common_items(user_a, user_b)
            assert batched.estimate_jaccard(user_a, user_b) == reference.estimate_jaccard(
                user_a, user_b
            )

    @pytest.mark.parametrize("batch_size", [1, 7, 1024, 100000])
    def test_vos_shared_array_bit_exact(self, batch_size, parity_stream):
        reference = VirtualOddSketch(shared_array_bits=16384, virtual_sketch_size=256, seed=3)
        batched = VirtualOddSketch(shared_array_bits=16384, virtual_sketch_size=256, seed=3)
        for element in parity_stream:
            reference.process(element)
        ingest_stream(batched, parity_stream, batch_size=batch_size)
        assert (
            reference.shared_array.to_packed_bytes()
            == batched.shared_array.to_packed_bytes()
        )
        assert reference.shared_array.ones_count == batched.shared_array.ones_count
        assert reference.counters() == batched.counters()

    def test_sharded_vos_bit_exact(self, parity_stream):
        reference = ShardedVOS(4, 4096, 128, seed=9)
        batched = ShardedVOS(4, 4096, 128, seed=9)
        for element in parity_stream:
            reference.process(element)
        ingest_stream(batched, parity_stream, batch_size=512)
        for shard_a, shard_b in zip(reference.shards, batched.shards):
            assert (
                shard_a.shared_array.to_packed_bytes()
                == shard_b.shared_array.to_packed_bytes()
            )
            assert shard_a.counters() == shard_b.counters()


class TestBatchEdgeCases:
    def test_empty_batch_is_a_no_op(self):
        vos = VirtualOddSketch(shared_array_bits=64, virtual_sketch_size=8)
        assert vos.process_batch([]) == 0
        assert vos.shared_array.ones_count == 0

    def test_counter_clamping_matches_per_element(self):
        """Deletions below zero clamp exactly like the per-element loop."""
        weird = [
            StreamElement(1, 5, Action.DELETE),
            StreamElement(1, 5, Action.DELETE),
            StreamElement(1, 6, Action.INSERT),
            StreamElement(1, 7, Action.DELETE),
            StreamElement(2, 1, Action.DELETE),
            StreamElement(2, 1, Action.INSERT),
            StreamElement(3, 2, Action.INSERT),
        ]
        reference = VirtualOddSketch(shared_array_bits=256, virtual_sketch_size=16, seed=1)
        batched = VirtualOddSketch(shared_array_bits=256, virtual_sketch_size=16, seed=1)
        for element in weird:
            reference.process(element)
        batched.process_batch(weird)
        assert reference.counters() == batched.counters()
        assert (
            reference.shared_array.to_packed_bytes()
            == batched.shared_array.to_packed_bytes()
        )

    def test_non_integer_users_fall_back_to_per_element(self):
        elements = [
            StreamElement("alice", "item-1", Action.INSERT),
            StreamElement("bob", "item-1", Action.INSERT),
            StreamElement("alice", "item-2", Action.INSERT),
        ]
        reference = VirtualOddSketch(shared_array_bits=512, virtual_sketch_size=32, seed=2)
        batched = VirtualOddSketch(shared_array_bits=512, virtual_sketch_size=32, seed=2)
        for element in elements:
            reference.process(element)
        assert batched.process_batch(elements) == 3
        assert (
            reference.shared_array.to_packed_bytes()
            == batched.shared_array.to_packed_bytes()
        )
        assert batched.estimate_jaccard("alice", "bob") == reference.estimate_jaccard(
            "alice", "bob"
        )

    def test_float_ids_fall_back_instead_of_truncating(self):
        """Regression: np.fromiter would cast 1.5 -> 1; the fallback must kick in."""
        elements = [
            StreamElement(1.5, 10, Action.INSERT),
            StreamElement(1, 10, Action.INSERT),
            StreamElement(2, 2.5, Action.INSERT),
        ]
        reference = VirtualOddSketch(shared_array_bits=512, virtual_sketch_size=32, seed=2)
        batched = VirtualOddSketch(shared_array_bits=512, virtual_sketch_size=32, seed=2)
        sharded_reference = ShardedVOS(4, 128, 32, seed=2)
        sharded_batched = ShardedVOS(4, 128, 32, seed=2)
        for element in elements:
            reference.process(element)
            sharded_reference.process(element)
        batched.process_batch(elements)
        sharded_batched.process_batch(elements)
        assert batched.counters() == reference.counters() == {1.5: 1, 1: 1, 2: 1}
        assert (
            reference.shared_array.to_packed_bytes()
            == batched.shared_array.to_packed_bytes()
        )
        for shard_a, shard_b in zip(sharded_reference.shards, sharded_batched.shards):
            assert shard_a.counters() == shard_b.counters()
            assert (
                shard_a.shared_array.to_packed_bytes()
                == shard_b.shared_array.to_packed_bytes()
            )

    def test_generator_input_is_accepted(self):
        vos = VirtualOddSketch(shared_array_bits=512, virtual_sketch_size=32)
        count = vos.process_batch(
            StreamElement(1, item, Action.INSERT) for item in range(10)
        )
        assert count == 10
        assert vos.cardinality(1) == 10


class TestIterBatchesArrayNative:
    """iter_batches accepts ElementBatch sources and always yields batches."""

    def test_yields_element_batches(self):
        from repro.streams.batch import ElementBatch

        elements = [StreamElement(1, i, Action.INSERT) for i in range(10)]
        batches = list(iter_batches(elements, 4))
        assert all(isinstance(batch, ElementBatch) for batch in batches)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_single_batch_source_is_sliced(self):
        from repro.streams.batch import ElementBatch

        elements = [StreamElement(1, i, Action.INSERT) for i in range(10)]
        source = ElementBatch.from_elements(elements)
        batches = list(iter_batches(source, 3))
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        assert [e for batch in batches for e in batch] == elements

    def test_batch_iterable_source_is_rechunked(self):
        from repro.streams.batch import ElementBatch

        elements = [StreamElement(1, i, Action.INSERT) for i in range(12)]
        source = [
            ElementBatch.from_elements(elements[:7]),
            ElementBatch.from_elements(elements[7:]),
        ]
        batches = list(iter_batches(source, 5))
        assert [e for batch in batches for e in batch] == elements
        assert all(len(b) <= 5 for b in batches)

    def test_mixed_source_preserves_order(self):
        from repro.streams.batch import ElementBatch

        elements = [StreamElement(1, i, Action.INSERT) for i in range(9)]
        source = [
            elements[0],
            elements[1],
            ElementBatch.from_elements(elements[2:6]),
            elements[6],
            elements[7],
            elements[8],
        ]
        batches = list(iter_batches(source, 4))
        assert [e for batch in batches for e in batch] == elements

    def test_ingest_from_batches_matches_ingest_from_elements(self, parity_stream):
        from repro.streams.batch import ElementBatch

        from_elements = VirtualOddSketch(
            shared_array_bits=16384, virtual_sketch_size=256, seed=3
        )
        from_batches = VirtualOddSketch(
            shared_array_bits=16384, virtual_sketch_size=256, seed=3
        )
        ingest_stream(from_elements, parity_stream, batch_size=512)
        whole = ElementBatch.from_elements(list(parity_stream))
        ingest_stream(from_batches, whole, batch_size=512)
        assert (
            from_elements.shared_array.to_packed_bytes()
            == from_batches.shared_array.to_packed_bytes()
        )
        assert from_elements.counters() == from_batches.counters()


class TestIngestReportPhases:
    def test_phase_timings_are_recorded(self, parity_stream):
        sketch = ShardedVOS(4, 4096, 128, seed=9)
        report = ingest_stream(sketch, parity_stream, batch_size=512)
        assert report.assemble_seconds >= 0.0
        assert report.process_seconds > 0.0
        assert report.seconds >= report.process_seconds
