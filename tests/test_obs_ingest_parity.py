"""Instrumentation parity for ``ingest_stream``.

Enabled vs disabled metrics must not change a single bit of ingest state or
a single query result, for an unsharded sketch and for sharded ones, and the
counter totals must equal what the ingest report says it consumed.
"""

from __future__ import annotations

import pytest

from repro.core.memory import MemoryBudget
from repro.core.vos import VirtualOddSketch
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.service.batching import ingest_stream
from repro.service.sharding import ShardedVOS
from repro.similarity.search import top_k_similar_pairs
from repro.streams.deletions import MassiveDeletionModel
from repro.streams.generators import PowerLawBipartiteGenerator
from repro.streams.stream import build_dynamic_stream

BATCH_SIZE = 500


@pytest.fixture(scope="module")
def elements():
    """A dynamic stream (insertions + deletions) across many users."""
    generator = PowerLawBipartiteGenerator(
        num_users=120, num_items=2000, num_edges=6000, seed=21
    )
    model = MassiveDeletionModel(period=1500, deletion_probability=0.3, seed=22)
    stream = build_dynamic_stream(generator.generate_edges(), model, name="obs-par")
    return list(stream)


def _make_sketch(elements, num_shards, seed=1):
    users = {element.user for element in elements}
    budget = MemoryBudget(baseline_registers=24, num_users=len(users))
    if num_shards == 0:
        return VirtualOddSketch.from_budget(budget, seed=seed)
    return ShardedVOS.from_budget(budget, num_shards=num_shards, seed=seed)


def _parts(sketch):
    """The VOS instances that hold a sketch's state."""
    return sketch.shards if isinstance(sketch, ShardedVOS) else [sketch]


def _ingest_under(enabled, elements, num_shards):
    previous = get_registry()
    try:
        registry = set_registry(MetricsRegistry(enabled=enabled))
        sketch = _make_sketch(elements, num_shards)
        report = ingest_stream(sketch, elements, batch_size=BATCH_SIZE)
    finally:
        set_registry(previous)
    return sketch, report, registry


# 0 shards means a plain, unsharded VirtualOddSketch.
@pytest.mark.parametrize("num_shards", [0, 2, 8])
class TestInstrumentationParity:
    """Enabled vs disabled metrics must not change a single bit of state."""

    def test_ingest_state_bit_identical(self, elements, num_shards):
        enabled, _, _ = _ingest_under(True, elements, num_shards)
        disabled, _, _ = _ingest_under(False, elements, num_shards)
        for part_a, part_b in zip(_parts(enabled), _parts(disabled), strict=True):
            assert (
                part_a.shared_array.to_packed_bytes()
                == part_b.shared_array.to_packed_bytes()
            )
            assert part_a.shared_array.ones_count == part_b.shared_array.ones_count
            assert part_a.counters() == part_b.counters()

    def test_query_results_bit_identical(self, elements, num_shards):
        results = {}
        for label, enabled in (("on", True), ("off", False)):
            sketch, _, _ = _ingest_under(enabled, elements, num_shards)
            pairs = top_k_similar_pairs(sketch, k=25)
            results[label] = [(p.user_a, p.user_b, p.jaccard) for p in pairs]
        assert len(results["on"]) == 25
        assert results["on"] == results["off"]

    def test_counters_match_the_report(self, elements, num_shards):
        _, report, registry = _ingest_under(True, elements, num_shards)
        counters = registry.snapshot()["counters"]
        assert report.elements == len(elements)
        assert counters["ingest.elements"]["value"] == len(elements)
        assert counters["ingest.batches"]["value"] == report.batches
        assert report.batches == -(-len(elements) // BATCH_SIZE)
        _, _, silent = _ingest_under(False, elements, num_shards)
        assert silent.snapshot()["counters"] == {}
