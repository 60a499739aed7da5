"""Query-throughput benchmark: per-pair loop vs the vectorized bulk query path.

This is the query-side headline number, the counterpart of
``test_throughput_batch.py``: on a ~2k-user candidate pool the vectorized
``top_k_similar_pairs`` must (a) return *exactly* the ranking the per-pair
scalar loop returns and (b) be at least 10x faster.  The measured figures are
written to ``BENCH_query.json`` under ``.bench_build/bench/``; run with
``REPRO_BENCH_DIR=.`` to refresh the tracked record at the repository root,
where the performance trajectory accumulates.

The per-pair loop over the full ~2M-pair pool would take minutes, so it is
timed on a deterministic random sample of pairs and extrapolated; exact
rank-parity is asserted against a full loop on a smaller sub-pool where the
loop is affordable, and bitwise value-parity on the sampled pairs of the full
pool.  Set ``REPRO_QUERY_BENCH_USERS`` to shrink the pool (CI smoke mode).

Since PR 8 the xor+popcount scoring primitive dispatches through
:mod:`repro.kernels`; this bench additionally times the scoring sweep and the
end-to-end warm query under *each* available tier, asserts the tiers return
bit-identical counts and rankings, and enforces the native tier's >= 1.5x
scoring-throughput floor over the NumPy tier (skipped where no compiler
exists).  Tier numbers land in the ``kernel_tiers`` section of the JSON.
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import combinations
from pathlib import Path

try:  # pragma: no cover
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from repro import kernels
from repro.core.memory import MemoryBudget
from repro.core.vos import VirtualOddSketch, pair_xor_counts
from repro.obs import MetricsRegistry, get_registry, render_json, set_registry
from repro.similarity.search import top_k_similar_pairs
from repro.streams.deletions import MassiveDeletionModel
from repro.streams.generators import PowerLawBipartiteGenerator
from repro.streams.stream import build_dynamic_stream

from bench_paths import results_path

POOL_USERS = int(os.environ.get("REPRO_QUERY_BENCH_USERS", "2000"))
#: CI smoke mode uses a much smaller pool where fixed numpy overheads weigh
#: more, so the speedup floor is relaxed there; the full-size floor is the
#: acceptance criterion.
SMOKE_MODE = POOL_USERS < 1000
SPEEDUP_FLOOR = 5.0 if SMOKE_MODE else 10.0
SUBPOOL_USERS = min(320, POOL_USERS)
LOOP_SAMPLE_PAIRS = 20_000
TOP_K = 100
#: The native tier must beat the NumPy tier by at least this factor on the
#: raw scoring sweep (the ISSUE 8 acceptance floor).  In practice hardware
#: popcount lands far above it; the floor only guards against a silently
#: broken native build.
NATIVE_SPEEDUP_FLOOR = 1.5
# Smoke runs record to a separate file so a shrunken-pool run can never
# clobber the repository's accumulated full-pool performance record.
RESULTS_PATH = results_path(
    "BENCH_query_smoke.json" if SMOKE_MODE else "BENCH_query.json"
)
#: Full metrics-registry dump captured during the timed runs (CI artifact).
METRICS_PATH = results_path(
    "BENCH_query_metrics_smoke.json" if SMOKE_MODE else "BENCH_query_metrics.json"
)


@pytest.fixture(scope="module")
def stream_elements():
    """A fully dynamic stream over the candidate pool."""
    generator = PowerLawBipartiteGenerator(
        num_users=POOL_USERS,
        num_items=POOL_USERS * 10,
        num_edges=POOL_USERS * 30,
        seed=52,
    )
    model = MassiveDeletionModel(
        period=POOL_USERS * 8, deletion_probability=0.3, seed=53
    )
    stream = build_dynamic_stream(generator.generate_edges(), model, name="query-bench")
    return list(stream)


def _make_sketch(stream_elements) -> VirtualOddSketch:
    users = {element.user for element in stream_elements}
    budget = MemoryBudget(baseline_registers=24, num_users=len(users))
    # Row cache sized for the whole pool so the warm-cache measurement really
    # measures cache hits rather than LRU churn.
    vos = VirtualOddSketch.from_budget(budget, seed=3, sketch_cache_size=2 * POOL_USERS)
    vos.process_batch(stream_elements)
    return vos


@pytest.fixture(scope="module")
def sketch(stream_elements):
    """A VOS sketch loaded with the benchmark stream (shared by parity tests)."""
    return _make_sketch(stream_elements)


@pytest.fixture(scope="module")
def candidates(sketch):
    return sorted(sketch.users())


@pytest.fixture(scope="module")
def measurements(sketch, candidates, stream_elements):
    """Time both query paths once, sharing the numbers across tests.

    A private metrics registry is active for the vectorized runs so the query
    latency histograms (``query.top_k_pairs``/``query.score_block``/…)
    accumulate alongside the wall-clock numbers; percentiles land in the
    results JSON and the full dump in ``BENCH_query_metrics*.json``.
    """
    n = len(candidates)
    index_a, index_b = np.triu_indices(n, k=1)
    total_pairs = int(index_a.shape[0])

    # Absorb one-time process costs (ufunc initialisation, allocator growth)
    # with a small bulk query before anything is timed; both paths below run
    # in the same steady-state process afterwards.
    top_k_similar_pairs(sketch, k=10, users=candidates[:200])

    # -- per-pair loop, timed on a deterministic sample and extrapolated ---------
    sample_size = min(LOOP_SAMPLE_PAIRS, total_pairs)
    chosen = np.random.default_rng(7).choice(total_pairs, size=sample_size, replace=False)
    sample_a = index_a[chosen]
    sample_b = index_b[chosen]
    start = time.perf_counter()
    loop_values = [
        sketch.estimate_jaccard(candidates[i], candidates[j])
        for i, j in zip(sample_a.tolist(), sample_b.tolist())
    ]
    loop_sample_seconds = time.perf_counter() - start
    loop_seconds_estimate = loop_sample_seconds * (total_pairs / sample_size)

    # -- vectorized path: cold (fresh sketch, empty caches) and warm (row cache
    # hot) — best of two runs each, matching the ingest benchmark's policy of
    # not letting one scheduler hiccup dominate a sub-second measurement.
    previous_registry = get_registry()
    registry = set_registry(MetricsRegistry())
    try:
        vectorized_cold_seconds = float("inf")
        cold_result = None
        for _ in range(2):
            fresh = _make_sketch(stream_elements)
            start = time.perf_counter()
            cold_result = top_k_similar_pairs(fresh, k=TOP_K)
            vectorized_cold_seconds = min(
                vectorized_cold_seconds, time.perf_counter() - start
            )
        warm_sketch = _make_sketch(stream_elements)
        top_k_similar_pairs(warm_sketch, k=TOP_K)
        warm_seconds = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            warm_result = top_k_similar_pairs(warm_sketch, k=TOP_K)
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
    finally:
        set_registry(previous_registry)
    assert [
        (p.user_a, p.user_b, p.jaccard) for p in warm_result
    ] == [(p.user_a, p.user_b, p.jaccard) for p in cold_result]

    return {
        "registry": registry,
        "total_pairs": total_pairs,
        "sample": (sample_a, sample_b, loop_values),
        "loop_sample_seconds": loop_sample_seconds,
        "loop_seconds_estimate": loop_seconds_estimate,
        "vectorized_cold_seconds": vectorized_cold_seconds,
        "vectorized_warm_seconds": warm_seconds,
        "top_pairs": cold_result,
        "warm_sketch": warm_sketch,
    }


@pytest.fixture(scope="module")
def tier_measurements(measurements, candidates):
    """Time the scoring sweep and the warm end-to-end query under each tier.

    The sweep (``pair_xor_counts`` over the full pair pool on warm rows) is
    the primitive the kernel tiers own, so its ratio is the honest measure of
    the native tier's win; the end-to-end top-k number shows how much of the
    query is scoring vs estimators/sorting.  Counts and rankings are captured
    per tier for the bit-identity gates below.
    """
    warm_sketch = measurements["warm_sketch"]
    rows = warm_sketch.packed_rows(candidates)
    n = len(candidates)
    index_a, index_b = np.triu_indices(n, k=1)
    index_a = index_a.astype(np.int64)
    index_b = index_b.astype(np.int64)
    total_pairs = int(index_a.shape[0])
    available = ["numpy"] + (
        ["native"] if kernels.kernel_info()["native"]["available"] else []
    )
    tiers: dict[str, dict] = {}
    counts_by_tier: dict[str, np.ndarray] = {}
    rankings: dict[str, list] = {}
    for tier in available:
        with kernels.use_tier(tier):
            pair_xor_counts(rows, index_a[:1024], index_b[:1024])  # warm the tier
            scoring_seconds = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                counts = pair_xor_counts(rows, index_a, index_b)
                scoring_seconds = min(scoring_seconds, time.perf_counter() - start)
            topk_seconds = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                ranking = top_k_similar_pairs(warm_sketch, k=TOP_K)
                topk_seconds = min(topk_seconds, time.perf_counter() - start)
        counts_by_tier[tier] = counts
        rankings[tier] = [(p.user_a, p.user_b, p.jaccard) for p in ranking]
        tiers[tier] = {
            "scoring_seconds": scoring_seconds,
            "scoring_pairs_per_second": total_pairs / scoring_seconds,
            "topk_seconds_warm": topk_seconds,
            "topk_pairs_per_second_warm": total_pairs / topk_seconds,
        }
    return {
        "tiers": tiers,
        "counts": counts_by_tier,
        "rankings": rankings,
        "active": kernels.active_tier(),
        "total_pairs": total_pairs,
    }


def test_kernel_tiers_bit_identical(tier_measurements):
    """Counts and rankings must match across every available tier."""
    counts = tier_measurements["counts"]
    rankings = tier_measurements["rankings"]
    baseline = counts["numpy"]
    for tier, tier_counts in counts.items():
        assert np.array_equal(tier_counts, baseline), tier
        assert rankings[tier] == rankings["numpy"], tier


def test_native_tier_meets_scoring_floor(tier_measurements):
    """ISSUE 8 acceptance: native scoring >= 1.5x the NumPy tier's pairs/s."""
    tiers = tier_measurements["tiers"]
    if "native" not in tiers:
        pytest.skip("no C compiler: native tier unavailable on this host")
    ratio = (
        tiers["native"]["scoring_pairs_per_second"]
        / tiers["numpy"]["scoring_pairs_per_second"]
    )
    assert ratio >= NATIVE_SPEEDUP_FLOOR, (
        f"native scoring only {ratio:.2f}x the numpy tier "
        f"({tiers['native']['scoring_pairs_per_second']:.0f} vs "
        f"{tiers['numpy']['scoring_pairs_per_second']:.0f} pairs/s)"
    )


def test_bulk_values_bit_identical_to_scalar_loop(sketch, candidates, measurements):
    sample_a, sample_b, loop_values = measurements["sample"]
    bulk = sketch.estimate_jaccard_indexed(candidates, sample_a, sample_b)
    assert bulk.tolist() == loop_values


def test_full_ranking_identical_on_subpool(sketch, candidates):
    """Exact rank parity where the per-pair loop is affordable end to end."""
    subpool = candidates[:SUBPOOL_USERS]
    scored = [
        (-sketch.estimate_jaccard(a, b), i, j)
        for (i, a), (j, b) in combinations(enumerate(subpool), 2)
    ]
    scored.sort()
    expected = [
        (subpool[i], subpool[j], -neg_jaccard) for neg_jaccard, i, j in scored[:TOP_K]
    ]
    vectorized = top_k_similar_pairs(sketch, k=TOP_K, users=subpool)
    assert [(p.user_a, p.user_b, p.jaccard) for p in vectorized] == expected


def test_vectorized_topk_meets_speedup_floor(measurements):
    speedup = measurements["loop_seconds_estimate"] / measurements["vectorized_cold_seconds"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized top-k only {speedup:.1f}x faster than the per-pair loop "
        f"(estimated loop {measurements['loop_seconds_estimate']:.2f}s vs "
        f"vectorized {measurements['vectorized_cold_seconds']:.2f}s)"
    )


def test_write_query_json(sketch, candidates, measurements, tier_measurements):
    total_pairs = measurements["total_pairs"]
    sample_a, _, _ = measurements["sample"]
    loop_estimate = measurements["loop_seconds_estimate"]
    cold = measurements["vectorized_cold_seconds"]
    warm = measurements["vectorized_warm_seconds"]
    payload = {
        "smoke_mode": SMOKE_MODE,
        "pool_users": len(candidates),
        "candidate_pairs": total_pairs,
        "virtual_sketch_size": sketch.virtual_sketch_size,
        "shared_array_bits": sketch.shared_array_bits,
        "top_k": TOP_K,
        "per_pair_loop": {
            "sampled_pairs": int(sample_a.shape[0]),
            "sample_seconds": measurements["loop_sample_seconds"],
            "seconds_estimated_full_pool": loop_estimate,
            "pairs_per_second": total_pairs / loop_estimate,
        },
        "vectorized": {
            "seconds_cold": cold,
            "seconds_warm_cache": warm,
            "pairs_per_second_cold": total_pairs / cold,
            "pairs_per_second_warm": total_pairs / warm,
            "speedup_vs_loop_cold": loop_estimate / cold,
            "speedup_vs_loop_warm": loop_estimate / warm,
        },
        "kernel_tiers": {
            "active": tier_measurements["active"],
            "scored_pairs": tier_measurements["total_pairs"],
            **tier_measurements["tiers"],
        },
        "kernels": kernels.kernel_info(),
        "sketch_cache": measurements["warm_sketch"].sketch_cache_info(),
        "latency_percentiles": {
            name: {key: hist[key] for key in ("count", "p50", "p90", "p99", "max")}
            for name, hist in measurements["registry"].snapshot()["histograms"].items()
            if name.startswith("query.")
        },
        "row_cache_counters": {
            name: counter["value"]
            for name, counter in measurements["registry"].snapshot()["counters"].items()
            if name.startswith("query.row_cache.")
        },
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    METRICS_PATH.write_text(render_json(measurements["registry"]) + "\n")
    assert RESULTS_PATH.exists()
    assert METRICS_PATH.exists()
