"""Instrumentation parity under process-pool ingest.

Enabled vs disabled metrics must not change a single bit of ingest state or
a single query result when shard sub-batches run on worker processes, and
counter totals must not depend on whether ingest ran serially or on a pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.memory import MemoryBudget
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.service.batching import ingest_stream
from repro.service.sharding import ShardedVOS
from repro.similarity.search import top_k_similar_pairs
from repro.streams.deletions import MassiveDeletionModel
from repro.streams.generators import PowerLawBipartiteGenerator
from repro.streams.stream import build_dynamic_stream

NUM_SHARDS = 8
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


def _make_sketch(elements, seed=1) -> ShardedVOS:
    users = {element.user for element in elements}
    budget = MemoryBudget(baseline_registers=24, num_users=len(users))
    return ShardedVOS.from_budget(budget, num_shards=NUM_SHARDS, seed=seed)


@pytest.mark.parametrize("workers", [2, 8])
class TestInstrumentationParity:
    """Enabled vs disabled metrics must not change a single bit of state."""

    def test_ingest_state_bit_identical(self, elements, workers):
        previous = get_registry()
        try:
            set_registry(MetricsRegistry(enabled=True))
            enabled = _make_sketch(elements)
            ingest_stream(enabled, elements, batch_size=BATCH_SIZE, workers=workers)
            set_registry(MetricsRegistry(enabled=False))
            disabled = _make_sketch(elements)
            ingest_stream(disabled, elements, batch_size=BATCH_SIZE, workers=workers)
        finally:
            set_registry(previous)
        for shard_a, shard_b in zip(enabled.shards, disabled.shards):
            assert np.array_equal(
                shard_a.shared_array._bits._bits, shard_b.shared_array._bits._bits
            )
            assert shard_a.shared_array.ones_count == shard_b.shared_array.ones_count
            assert shard_a._cardinalities == shard_b._cardinalities

    def test_query_results_bit_identical(self, elements, workers):
        previous = get_registry()
        results = {}
        try:
            for label, enabled in (("on", True), ("off", False)):
                set_registry(MetricsRegistry(enabled=enabled))
                sketch = _make_sketch(elements)
                ingest_stream(
                    sketch, elements, batch_size=BATCH_SIZE, workers=workers
                )
                pairs = top_k_similar_pairs(sketch, k=25)
                results[label] = [(p.user_a, p.user_b, p.jaccard) for p in pairs]
        finally:
            set_registry(previous)
        assert results["on"] == results["off"]

    def test_process_metrics_match_serial_metrics(self, elements, workers):
        """Counter totals are mode-independent: serial and process agree."""
        previous = get_registry()
        totals = {}
        try:
            for label, mode_workers in (("serial", 1), ("process", workers)):
                registry = set_registry(MetricsRegistry())
                sketch = _make_sketch(elements)
                ingest_stream(
                    sketch, elements, batch_size=BATCH_SIZE, workers=mode_workers
                )
                counters = registry.snapshot()["counters"]
                totals[label] = counters["ingest.elements"]["value"]
        finally:
            set_registry(previous)
        assert totals["serial"] == totals["process"] == len(elements)
