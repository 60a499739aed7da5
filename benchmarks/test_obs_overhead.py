"""Observability overhead guard: metrics must be (nearly) free.

Two invariants protect the hot paths from the instrumentation added in
``repro.obs``:

* **Throughput** — columnar ingest with the metrics registry *enabled* must
  stay within ``REPRO_OBS_OVERHEAD_TOL`` (default 5%) of the same ingest with
  the registry *disabled* (where ``trace`` hands back a shared no-op span and
  every convenience mutator returns after one branch).
* **Parity** — instrumentation must not change a single bit of sketch state
  or a single query result, enabled or disabled.

Timing comparisons at this scale are noise-prone, so the guard interleaves
best-of-``REPRO_OBS_BENCH_REPEATS`` measurements and retries the whole
comparison a few times before failing; state parity is asserted
unconditionally.  Results (including latency percentiles pulled from the
registry's streaming histograms) are written to ``BENCH_obs_overhead.json``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

try:  # pragma: no cover
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro.core.memory import MemoryBudget
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.service.batching import ingest_stream
from repro.service.sharding import ShardedVOS
from repro.similarity.search import top_k_similar_pairs
from repro.streams.deletions import MassiveDeletionModel
from repro.streams.generators import PowerLawBipartiteGenerator
from repro.streams.stream import build_dynamic_stream

from bench_paths import results_path

STREAM_ELEMENTS = int(os.environ.get("REPRO_OBS_BENCH_ELEMENTS", "50000"))
#: Relative throughput overhead allowed with metrics enabled (ISSUE: 5%).
OVERHEAD_TOL = float(os.environ.get("REPRO_OBS_OVERHEAD_TOL", "0.05"))
REPEATS = int(os.environ.get("REPRO_OBS_BENCH_REPEATS", "5"))
#: Full comparison retries before the guard fails: a single noisy attempt
#: (GC pause, scheduler preemption) must not flake CI.
ATTEMPTS = 4
NUM_SHARDS = 8
BATCH_SIZE = 4096
RESULTS_PATH = results_path("BENCH_obs_overhead.json")


@pytest.fixture(scope="module")
def elements():
    generator = PowerLawBipartiteGenerator(
        num_users=max(200, STREAM_ELEMENTS // 50),
        num_items=max(2000, STREAM_ELEMENTS // 5),
        num_edges=int(STREAM_ELEMENTS * 0.95),
        seed=42,
    )
    model = MassiveDeletionModel(
        period=max(1000, STREAM_ELEMENTS // 4), deletion_probability=0.3, seed=43
    )
    stream = build_dynamic_stream(generator.generate_edges(), model, name="obs-bench")
    return list(stream.prefix(STREAM_ELEMENTS))


def _make_sketch(elements) -> ShardedVOS:
    users = {element.user for element in elements}
    budget = MemoryBudget(baseline_registers=24, num_users=len(users))
    return ShardedVOS.from_budget(budget, num_shards=NUM_SHARDS, seed=1)


def _best_ingest_seconds(elements, registry: MetricsRegistry) -> float:
    best = float("inf")
    previous = get_registry()
    try:
        set_registry(registry)
        for _ in range(REPEATS):
            sketch = _make_sketch(elements)
            best = min(
                best, ingest_stream(sketch, elements, batch_size=BATCH_SIZE).seconds
            )
    finally:
        set_registry(previous)
    return best


@pytest.fixture(scope="module")
def overhead_measurements(elements):
    """Interleaved best-of-N timings, retried until the guard holds (or not)."""
    attempts = []
    for _ in range(ATTEMPTS):
        enabled_registry = MetricsRegistry(enabled=True)
        disabled = _best_ingest_seconds(elements, MetricsRegistry(enabled=False))
        enabled = _best_ingest_seconds(elements, enabled_registry)
        attempts.append(
            {
                "disabled_seconds": disabled,
                "enabled_seconds": enabled,
                "overhead": enabled / disabled - 1.0,
                "registry": enabled_registry,
            }
        )
        if enabled <= disabled * (1.0 + OVERHEAD_TOL):
            break
    return attempts


def test_enabled_metrics_within_overhead_budget(overhead_measurements):
    best = min(overhead_measurements, key=lambda attempt: attempt["overhead"])
    assert best["enabled_seconds"] <= best["disabled_seconds"] * (1.0 + OVERHEAD_TOL), (
        f"metrics overhead {best['overhead'] * 100:.1f}% exceeds "
        f"{OVERHEAD_TOL * 100:.0f}% budget over {len(overhead_measurements)} attempts "
        f"(enabled {best['enabled_seconds']:.4f}s vs "
        f"disabled {best['disabled_seconds']:.4f}s)"
    )


def test_instrumentation_parity_bit_identical(elements):
    """Enabled vs disabled metrics: same bits in, same bits out."""
    previous = get_registry()
    sketches = {}
    results = {}
    try:
        for label, enabled in (("on", True), ("off", False)):
            set_registry(MetricsRegistry(enabled=enabled))
            sketch = _make_sketch(elements)
            ingest_stream(sketch, elements, batch_size=BATCH_SIZE)
            sketches[label] = sketch
            pairs = top_k_similar_pairs(sketch, k=50)
            results[label] = [(p.user_a, p.user_b, p.jaccard) for p in pairs]
    finally:
        set_registry(previous)
    for shard_on, shard_off in zip(sketches["on"].shards, sketches["off"].shards):
        assert (
            shard_on.shared_array.to_packed_bytes()
            == shard_off.shared_array.to_packed_bytes()
        )
        assert shard_on.shared_array.ones_count == shard_off.shared_array.ones_count
        assert shard_on._cardinalities == shard_off._cardinalities
    assert results["on"] == results["off"]


def test_write_results_json(overhead_measurements, elements):
    final = overhead_measurements[-1]
    snapshot = final["registry"].snapshot()
    percentiles = {
        name: {
            key: histogram[key] for key in ("count", "p50", "p90", "p99", "max")
        }
        for name, histogram in snapshot["histograms"].items()
    }
    payload = {
        "stream_elements": len(elements),
        "num_shards": NUM_SHARDS,
        "batch_size": BATCH_SIZE,
        "repeats": REPEATS,
        "overhead_tolerance": OVERHEAD_TOL,
        "attempts": [
            {
                "disabled_seconds": attempt["disabled_seconds"],
                "enabled_seconds": attempt["enabled_seconds"],
                "overhead_fraction": attempt["overhead"],
            }
            for attempt in overhead_measurements
        ],
        "latency_percentiles": percentiles,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    assert RESULTS_PATH.exists()
