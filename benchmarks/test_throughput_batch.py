"""Ingest-throughput benchmark: per-element vs batched vs sharded VOS.

This is the service subsystem's headline number — the batched fast path must
ingest a 100k-element fully dynamic stream at least 10x faster than the
per-element loop while producing *bit-identical* shared-array state.  The
measured figures are written to ``BENCH_throughput.json`` at the repository
root so the performance trajectory accumulates across PRs.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

try:  # pragma: no cover
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.core.memory import MemoryBudget
from repro.core.vos import VirtualOddSketch
from repro.service.batching import ingest_stream
from repro.service.sharding import ShardedVOS
from repro.streams.deletions import MassiveDeletionModel
from repro.streams.generators import PowerLawBipartiteGenerator
from repro.streams.stream import build_dynamic_stream

from bench_paths import results_path

STREAM_ELEMENTS = 100_000
RESULTS_PATH = results_path("BENCH_throughput.json")


@pytest.fixture(scope="module")
def throughput_stream():
    """A 100k-element synthetic fully dynamic stream (insertions + deletions)."""
    generator = PowerLawBipartiteGenerator(
        num_users=2000, num_items=20000, num_edges=95000, seed=42
    )
    model = MassiveDeletionModel(period=25000, deletion_probability=0.3, seed=43)
    stream = build_dynamic_stream(generator.generate_edges(), model, name="throughput")
    assert len(stream) >= STREAM_ELEMENTS
    return stream.prefix(STREAM_ELEMENTS)


@pytest.fixture(scope="module")
def budget(throughput_stream):
    return MemoryBudget(
        baseline_registers=24, num_users=len(throughput_stream.users())
    )


@pytest.fixture(scope="module")
def measurements(throughput_stream, budget):
    """Time the three ingest modes once, sharing the results across tests."""
    elements = list(throughput_stream)

    per_element = VirtualOddSketch.from_budget(budget, seed=1)
    start = time.perf_counter()
    for element in elements:
        per_element.process(element)
    per_element_seconds = time.perf_counter() - start

    # The batched runs finish in tens of milliseconds, so a single scheduler
    # hiccup could dominate one measurement; keep the best of three.
    batched_seconds = float("inf")
    for _ in range(3):
        batched = VirtualOddSketch.from_budget(budget, seed=1)
        batched_seconds = min(
            batched_seconds, ingest_stream(batched, elements, batch_size=8192).seconds
        )

    sharded_seconds = float("inf")
    for _ in range(3):
        sharded = ShardedVOS.from_budget(budget, num_shards=4, seed=1)
        sharded_seconds = min(
            sharded_seconds, ingest_stream(sharded, elements, batch_size=8192).seconds
        )

    return {
        "per_element": (per_element, per_element_seconds),
        "batched": (batched, batched_seconds),
        "sharded": (sharded, sharded_seconds),
    }


def test_batched_state_is_bit_identical(measurements):
    per_element, _ = measurements["per_element"]
    batched, _ = measurements["batched"]
    assert (
        per_element.shared_array.to_packed_bytes()
        == batched.shared_array.to_packed_bytes()
    )
    assert per_element.shared_array.ones_count == batched.shared_array.ones_count
    assert per_element.counters() == batched.counters()


def test_batched_ingest_at_least_10x_faster(measurements):
    _, per_element_seconds = measurements["per_element"]
    _, batched_seconds = measurements["batched"]
    speedup = per_element_seconds / batched_seconds
    assert speedup >= 10.0, (
        f"batched ingest only {speedup:.1f}x faster "
        f"({per_element_seconds:.3f}s vs {batched_seconds:.3f}s)"
    )


def test_sharded_ingest_beats_per_element(measurements):
    _, per_element_seconds = measurements["per_element"]
    _, sharded_seconds = measurements["sharded"]
    assert sharded_seconds < per_element_seconds


def test_write_throughput_json(measurements, throughput_stream):
    _, per_element_seconds = measurements["per_element"]
    _, batched_seconds = measurements["batched"]
    sharded_sketch, sharded_seconds = measurements["sharded"]
    payload = {
        "stream_elements": len(throughput_stream),
        "distinct_users": len(throughput_stream.users()),
        "per_element": {
            "seconds": per_element_seconds,
            "elements_per_second": len(throughput_stream) / per_element_seconds,
        },
        "batched": {
            "seconds": batched_seconds,
            "elements_per_second": len(throughput_stream) / batched_seconds,
            "speedup_vs_per_element": per_element_seconds / batched_seconds,
        },
        "sharded": {
            "seconds": sharded_seconds,
            "elements_per_second": len(throughput_stream) / sharded_seconds,
            "speedup_vs_per_element": per_element_seconds / sharded_seconds,
            "num_shards": sharded_sketch.num_shards,
        },
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    assert RESULTS_PATH.exists()
