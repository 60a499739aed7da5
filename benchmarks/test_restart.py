"""Restart benchmark: delta checkpoints and persisted-index warm restarts.

The persistence headline of the incremental checkpoint layer, measured on a
lightly mutated clone-pair pool (20k users by default):

* **delta vs full** — after mutating ~1% of the users, a delta checkpoint
  must append a *small fraction* of the full snapshot's bytes (and take a
  correspondingly small fraction of the time), because it ships only the
  dirty 64-bit array words and changed counters;
* **replay parity** — a service restored from ``full checkpoint + journal
  replay`` must be bit-identical to the live one: array bytes, counters,
  estimates, and LSH candidate sets;
* **time to first query** — restoring a snapshot that carries the banding
  index's signature tables must reach its first ``top_k_pairs`` answer
  without any signature rebuild (``stats()["index"]["rebuilds"] == 0``),
  and faster end-to-end (load + query) than the same restart without the
  persisted index.

Results go to ``BENCH_restart.json`` under ``.bench_build/bench/``
(``REPRO_BENCH_DIR=.`` refreshes the tracked record at the repository root).  Set
``REPRO_RESTART_BENCH_USERS`` to shrink the pool (CI smoke mode writes
``BENCH_restart_smoke.json`` instead so a shrunken run never clobbers the
full-pool record).
"""

from __future__ import annotations

import json
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

from repro.service import CheckpointPolicy, ServiceConfig, SimilarityService
from repro.service.journal import default_journal_path
from repro.streams.batch import ElementBatch

from bench_paths import results_path

POOL_USERS = int(os.environ.get("REPRO_RESTART_BENCH_USERS", "20000"))
SMOKE_MODE = POOL_USERS < 8000
ITEMS_PER_USER = 20
NUM_SHARDS = 4
#: Fraction of users touched between the full checkpoint and the delta.
MUTATED_FRACTION = 0.01
#: A delta after mutating ~1% of users must cost at most this fraction of a
#: full snapshot rewrite, in bytes.
DELTA_BYTE_FRACTION_CEILING = 0.15
TOP_K = 50
RESULTS_PATH = results_path(
    "BENCH_restart_smoke.json" if SMOKE_MODE else "BENCH_restart.json"
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


def mutation_batch(num_users: int, seed: int) -> ElementBatch:
    """Light churn: ~1% of users each gain two items and lose one."""
    rng = np.random.default_rng(seed)
    touched = rng.choice(
        num_users, size=max(1, int(num_users * MUTATED_FRACTION)), replace=False
    ).astype(np.int64)
    users = np.repeat(touched, 3)
    items = rng.integers(10**12, 2 * 10**12, size=users.shape[0], dtype=np.int64)
    signs = np.ones(users.shape[0], dtype=np.int8)
    # Every third element of a user's triple inserts then deletes the same
    # item, so deletions are in the replayed mix.
    items[2::3] = items[1::3]
    signs[2::3] = -1
    return ElementBatch(users, items, signs)


def fresh_service() -> SimilarityService:
    service = SimilarityService.from_config(
        ServiceConfig(
            expected_users=POOL_USERS,
            num_shards=NUM_SHARDS,
            seed=13,
            checkpoint=CheckpointPolicy(),  # manual checkpoints: we time them
        )
    )
    service.ingest(clone_batch(POOL_USERS, seed=21))
    return service


def pair_key_list(pairs) -> list[tuple]:
    return [(p.user_a, p.user_b, p.jaccard) for p in pairs]


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    """One timed restart lifecycle, shared by every assertion below."""
    workdir = tmp_path_factory.mktemp("restart-bench")
    snapshot = workdir / "state.vos"
    service = fresh_service()

    start = time.perf_counter()
    service.save(snapshot)
    full_save_seconds = time.perf_counter() - start
    full_bytes = snapshot.stat().st_size

    service.ingest(mutation_batch(POOL_USERS, seed=5))
    start = time.perf_counter()
    delta = service.save_delta()
    delta_save_seconds = time.perf_counter() - start

    # Parity: full + journal replay vs the live sketch.  Each restored service
    # is dropped as soon as its phase ends — every 20k-user instance pins
    # hundreds of MB of position caches, and keeping several alive would turn
    # the later timings into a memory-pressure benchmark.
    restored = SimilarityService.load(snapshot)
    parity = {"arrays": True, "counters": True}
    for live, copy in zip(service.sketch.shards, restored.sketch.shards):
        parity["arrays"] &= (
            live.shared_array.to_packed_bytes() == copy.shared_array.to_packed_bytes()
        )
        parity["counters"] &= live._cardinalities == copy._cardinalities
    live_top = pair_key_list(service.top_k_pairs(k=TOP_K, candidates="lsh"))
    restored_top = pair_key_list(restored.top_k_pairs(k=TOP_K, candidates="lsh"))
    parity["lsh_top_k"] = live_top == restored_top
    del restored

    # Restart to first lsh query, without a persisted index...
    service.save(snapshot, include_index=False)
    start = time.perf_counter()
    cold = SimilarityService.load(snapshot)
    cold_load_seconds = time.perf_counter() - start
    start = time.perf_counter()
    cold.index().refresh()  # O(users): every signature table built from rows
    cold_ready_seconds = time.perf_counter() - start
    start = time.perf_counter()
    cold_top = pair_key_list(cold.top_k_pairs(k=TOP_K, candidates="lsh"))
    cold_query_seconds = time.perf_counter() - start
    cold_stats = cold.stats()["index"]
    del cold

    # ... and with the signature tables persisted inside the snapshot.
    service.save(snapshot, include_index=True)
    index_bytes = snapshot.stat().st_size - full_bytes
    del service
    start = time.perf_counter()
    warm = SimilarityService.load(snapshot)
    warm_load_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm.index().refresh()  # restored tables are fresh: nothing to build
    warm_ready_seconds = time.perf_counter() - start
    start = time.perf_counter()
    warm_top = pair_key_list(warm.top_k_pairs(k=TOP_K, candidates="lsh"))
    warm_query_seconds = time.perf_counter() - start
    warm_stats = warm.stats()["index"]

    return {
        "users": POOL_USERS,
        "shards": NUM_SHARDS,
        "items_per_user": ITEMS_PER_USER,
        "mutated_fraction": MUTATED_FRACTION,
        "full_snapshot_bytes": full_bytes,
        "full_save_seconds": full_save_seconds,
        "delta_records": delta["records"],
        "delta_bytes": delta["bytes"],
        "delta_save_seconds": delta_save_seconds,
        "delta_byte_fraction": delta["bytes"] / full_bytes,
        "journal_bytes": delta["journal_bytes"],
        "journal_path": str(default_journal_path(snapshot)),
        "parity": parity,
        "index_section_bytes": index_bytes,
        "restart_no_index": {
            "load_seconds": cold_load_seconds,
            "index_ready_seconds": cold_ready_seconds,
            "first_query_seconds": cold_query_seconds,
            "total_seconds": cold_load_seconds + cold_ready_seconds + cold_query_seconds,
            "rebuilds": cold_stats["rebuilds"],
            "restored": cold_stats["restored"],
        },
        "restart_with_index": {
            "load_seconds": warm_load_seconds,
            "index_ready_seconds": warm_ready_seconds,
            "first_query_seconds": warm_query_seconds,
            "total_seconds": warm_load_seconds + warm_ready_seconds + warm_query_seconds,
            "rebuilds": warm_stats["rebuilds"],
            "restored": warm_stats["restored"],
        },
        "queries_identical": cold_top == warm_top,
    }


def test_replay_parity_is_bit_exact(measurements):
    assert measurements["parity"]["arrays"], "replayed array bytes differ"
    assert measurements["parity"]["counters"], "replayed counters differ"
    assert measurements["parity"]["lsh_top_k"], "replayed LSH rankings differ"


def test_delta_writes_a_small_fraction_of_full_bytes(measurements):
    fraction = measurements["delta_byte_fraction"]
    assert fraction <= DELTA_BYTE_FRACTION_CEILING, (
        f"delta checkpoint wrote {measurements['delta_bytes']} bytes — "
        f"{fraction:.1%} of the {measurements['full_snapshot_bytes']}-byte "
        "full snapshot"
    )
    assert measurements["delta_records"] >= 1


def test_persisted_index_restart_needs_no_rebuild(measurements):
    warm = measurements["restart_with_index"]
    assert warm["restored"] == NUM_SHARDS
    assert warm["rebuilds"] == 0, "persisted-index restart rebuilt signatures"
    cold = measurements["restart_no_index"]
    assert cold["restored"] == 0
    assert cold["rebuilds"] >= 1, "no-index restart should have rebuilt"
    assert measurements["queries_identical"], "warm and cold rankings differ"


def test_persisted_index_is_ready_faster_than_a_rebuild(measurements):
    """Restored tables skip the O(users) signature build entirely.

    The index-ready step (refresh after load) is the part the persisted
    section eliminates, so it is the timed assertion; the end-to-end
    first-query times are recorded alongside but dominated by pair scoring,
    which both restarts share.
    """
    if SMOKE_MODE:
        pytest.skip("timing assertion is only meaningful at full pool size")
    cold = measurements["restart_no_index"]["index_ready_seconds"]
    warm = measurements["restart_with_index"]["index_ready_seconds"]
    assert warm < cold, (
        f"index ready in {warm:.4f}s with the persisted section vs "
        f"{cold:.4f}s rebuilding from rows"
    )


def test_write_restart_json(measurements):
    payload = {"smoke_mode": SMOKE_MODE, **measurements}
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    assert RESULTS_PATH.exists()
