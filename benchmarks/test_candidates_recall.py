"""Candidate-generation benchmark: LSH banding vs the exhaustive all-pairs search.

The query-side headline of :mod:`repro.index`: on a duplicate-detection
workload (every user has an identical clone somewhere in the pool) the banding
index must propose a *sub-percent* fraction of the O(n²) pair pool while the
resulting ``top_k_similar_pairs`` ranking recovers at least 95% of the exact
all-pairs top 100 — and, whenever the proposals cover the whole true top-k,
the rankings must be bit-identical.  Both recall and end-to-end speedup are
recorded at growing pool sizes, so the file shows how the exhaustive search's
quadratic wall rises while the banded search stays near-linear.

The sketch is provisioned sparse (a large shared array relative to the item
load, as a service sized for growth would be): banding recall is governed by
the per-bit xor load, so the fill fraction is the knob that trades memory for
candidate quality.  Results go to ``BENCH_candidates.json`` at the repository
root.  Set ``REPRO_CANDIDATES_BENCH_USERS`` to shrink the largest pool (CI
smoke mode writes ``BENCH_candidates_smoke.json`` instead so a shrunken run
never clobbers the full-pool record).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

try:  # pragma: no cover
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from repro.core.vos import VirtualOddSketch
from repro.index import BandedSketchIndex
from repro.similarity.search import top_k_similar_pairs
from repro.streams.batch import ElementBatch

from bench_paths import results_path

POOL_USERS = int(os.environ.get("REPRO_CANDIDATES_BENCH_USERS", "20000"))
SMOKE_MODE = POOL_USERS < 8000
#: Growing pool sizes; the acceptance numbers are taken at the largest.
SIZES = tuple(
    sorted({max(500, POOL_USERS // 10), max(1000, POOL_USERS // 3), POOL_USERS})
)
ITEMS_PER_USER = 40
VIRTUAL_SKETCH_SIZE = 1024
#: Shared-array bits per user — a sparse provisioning (beta stays ~2e-3), the
#: regime a growth-sized service runs in and the one banding rewards.
ARRAY_BITS_PER_USER = 16384
TOP_K = 100
RECALL_FLOOR = 0.95
SPEEDUP_FLOOR = 1.0 if SMOKE_MODE else 5.0
CANDIDATE_FRACTION_CEILING = 0.05
#: Empirical growth exponent ceiling for candidate count vs pool size (the
#: exhaustive enumeration sits at exactly 2.0).
SUBQUADRATIC_EXPONENT_CEILING = 1.9
RESULTS_PATH = results_path(
    "BENCH_candidates_smoke.json" if SMOKE_MODE else "BENCH_candidates.json"
)


def clone_batch(num_users: int, seed: int) -> ElementBatch:
    """Insertion batch where users ``(2i, 2i+1)`` subscribe to identical items."""
    rng = np.random.default_rng(seed)
    pair_items = rng.integers(
        0, 10**12, size=(num_users // 2, ITEMS_PER_USER), dtype=np.int64
    )
    items = np.repeat(pair_items, 2, axis=0).ravel()
    users = np.repeat(np.arange(num_users, dtype=np.int64), ITEMS_PER_USER)
    return ElementBatch(users, items, np.ones(users.shape[0], dtype=np.int8))


def loaded_sketch(num_users: int) -> VirtualOddSketch:
    sketch = VirtualOddSketch(
        shared_array_bits=ARRAY_BITS_PER_USER * num_users,
        virtual_sketch_size=VIRTUAL_SKETCH_SIZE,
        seed=3,
    )
    sketch.process_batch(clone_batch(num_users, seed=11))
    return sketch


def pair_keys(pairs) -> list[tuple]:
    return [(p.user_a, p.user_b) for p in pairs]


@pytest.fixture(scope="module")
def measurements():
    """Exact vs banded search at every pool size, shared across the tests."""
    records = []
    for num_users in SIZES:
        sketch = loaded_sketch(num_users)
        start = time.perf_counter()
        exact = top_k_similar_pairs(sketch, k=TOP_K)
        exact_seconds = time.perf_counter() - start

        index = BandedSketchIndex(sketch)
        start = time.perf_counter()
        banded = top_k_similar_pairs(sketch, k=TOP_K, candidates="lsh", index=index)
        banded_seconds = time.perf_counter() - start
        start = time.perf_counter()
        banded_warm = top_k_similar_pairs(
            sketch, k=TOP_K, candidates="lsh", index=index
        )
        warm_seconds = time.perf_counter() - start
        assert pair_keys(banded_warm) == pair_keys(banded)

        stats = index.stats()
        recall = len(set(pair_keys(exact)) & set(pair_keys(banded))) / TOP_K
        records.append(
            {
                "users": num_users,
                "pool_pairs": stats["last_pool_pairs"],
                "candidate_pairs": stats["last_candidate_pairs"],
                "candidate_fraction": stats["last_candidate_fraction"],
                "candidate_pairs_per_user": stats["last_candidate_pairs"] / num_users,
                "bands": stats["bands"],
                "signature_bytes": stats["signature_bytes"],
                "beta": sketch.beta,
                "recall_at_100": recall,
                "rankings_bit_identical": [
                    (p.user_a, p.user_b, p.jaccard) for p in exact
                ]
                == [(p.user_a, p.user_b, p.jaccard) for p in banded],
                "exact_seconds": exact_seconds,
                "lsh_seconds_cold": banded_seconds,
                "lsh_seconds_warm": warm_seconds,
                "speedup_cold": exact_seconds / banded_seconds,
                "speedup_warm": exact_seconds / warm_seconds,
            }
        )
    return records


def test_recall_meets_floor_at_every_size(measurements):
    for record in measurements:
        assert record["recall_at_100"] >= RECALL_FLOOR, (
            f"recall@{TOP_K} {record['recall_at_100']:.3f} below {RECALL_FLOOR} "
            f"at {record['users']} users"
        )


def test_rankings_bit_identical_when_candidates_cover_top_k(measurements):
    """Full coverage implies identical scores, order and tie-breaks."""
    for record in measurements:
        if record["recall_at_100"] == 1.0:
            assert record["rankings_bit_identical"], record["users"]


def test_candidate_count_is_sub_quadratic(measurements):
    largest = measurements[-1]
    assert largest["candidate_fraction"] <= CANDIDATE_FRACTION_CEILING
    # Sub-quadratic growth: fit the empirical exponent between the smallest
    # and largest pool; the exhaustive enumeration sits at exactly 2.0 (its
    # candidate fraction is constant), the banding's fraction must fall.
    smallest = measurements[0]
    exponent = math.log(
        largest["candidate_pairs"] / smallest["candidate_pairs"]
    ) / math.log(largest["users"] / smallest["users"])
    assert exponent <= SUBQUADRATIC_EXPONENT_CEILING, (
        f"candidate count grew as n^{exponent:.2f} between "
        f"{smallest['users']} and {largest['users']} users"
    )
    assert largest["candidate_fraction"] < smallest["candidate_fraction"]


def test_banded_search_meets_speedup_floor(measurements):
    largest = measurements[-1]
    assert largest["speedup_cold"] >= SPEEDUP_FLOOR, (
        f"banded top-k only {largest['speedup_cold']:.1f}x faster than the "
        f"all-pairs search (exact {largest['exact_seconds']:.2f}s vs banded "
        f"{largest['lsh_seconds_cold']:.2f}s incl. index build)"
    )


def test_write_candidates_json(measurements):
    payload = {
        "smoke_mode": SMOKE_MODE,
        "workload": {
            "shape": "clone-pairs",
            "items_per_user": ITEMS_PER_USER,
            "virtual_sketch_size": VIRTUAL_SKETCH_SIZE,
            "array_bits_per_user": ARRAY_BITS_PER_USER,
            "top_k": TOP_K,
            "index_config": "default (auto bands)",
        },
        "pools": measurements,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    assert RESULTS_PATH.exists()