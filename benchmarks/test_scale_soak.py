"""Million-user scale soak: ingest, checkpoint, index and query at scale.

The paper's pitch is a *shared* sketch whose memory does not grow per user;
this soak exercises that claim end to end on a synthetic workload sized by
environment variables:

* ``REPRO_SOAK_USERS``    — user population (default 10,000 = smoke mode)
* ``REPRO_SOAK_ELEMENTS`` — stream elements to ingest (default 1,000,000)
* ``REPRO_SOAK_MEMORY_MB``— peak-RSS budget the run must stay under
  (default 12,288 MB; the full 1M-user run is expected well below it)

The full run (``REPRO_SOAK_USERS=1000000 REPRO_SOAK_ELEMENTS=100000000``)
writes ``BENCH_scale.json`` (under ``.bench_build/bench/``; pass
``REPRO_BENCH_DIR=.`` to refresh the tracked record at the repository root);
anything smaller is smoke mode and writes ``BENCH_scale_smoke.json`` so CI
never clobbers the full-run record.  One module-scoped fixture performs the whole sequence —

1. columnar ingest of the synthetic stream (throughput, timed),
2. a full snapshot (``save``, bytes + seconds),
3. an LSH index build over the whole population (timed),
4. query workloads: pool ``top_k_pairs`` block scoring (p50/p99 over fixed
   pools) and single-user ``top_k`` through the LSH index,
5. a delta slice: more ingest, an index ``refresh`` (a rebuild of the
   shards the slice changed), and a delta checkpoint (``save_delta`` bytes
   vs snapshot bytes),

— and the tests assert the soak's invariants (memory budget, monotone
percentiles, delta much smaller than snapshot) before writing the JSON.

The synthetic stream is generated columnar-native (NumPy RNG straight into
:class:`~repro.streams.batch.ElementBatch`), with a mild power-law skew on
user popularity and ~5% same-batch insert-then-delete churn so the odd
sketch's deletion path is exercised at scale.  The service runs with
``cache_positions=False``: position caches cost ~8k bytes/user, which at
million-user scale would dwarf the shared sketch itself.  The sketch is
stored packed, so its resident size is the ``sketch_memory_bits`` the JSON
records divided by 8 (plus under 64 pad bits per shard).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

try:  # pragma: no cover
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from repro.kernels import kernel_info
from repro.service.service import ServiceConfig, SimilarityService
from repro.streams.batch import ElementBatch

from bench_paths import results_path

SOAK_USERS = int(os.environ.get("REPRO_SOAK_USERS", "10000"))
SOAK_ELEMENTS = int(os.environ.get("REPRO_SOAK_ELEMENTS", "1000000"))
MEMORY_BUDGET_MB = int(os.environ.get("REPRO_SOAK_MEMORY_MB", "12288"))
SMOKE_MODE = SOAK_USERS < 1_000_000
NUM_SHARDS = 8 if SMOKE_MODE else 64
BATCH_ELEMENTS = 1 << 18
#: Fraction of each batch re-emitted as same-batch deletions (odd-sketch
#: toggle-off churn).
DELETE_FRACTION = 0.05
#: Extra stream slice ingested after the full snapshot to measure delta
#: checkpointing and the index refresh after it (~1% of the stream).
DELTA_ELEMENTS = max(10_000, SOAK_ELEMENTS // 100)
POOL_USERS = 512
POOL_QUERIES = 8 if SMOKE_MODE else 16
TOPK_QUERIES = 16 if SMOKE_MODE else 32
RESULTS_PATH = results_path(
    "BENCH_scale_smoke.json" if SMOKE_MODE else "BENCH_scale.json"
)


def _batches(elements: int, seed: int):
    """Yield columnar batches totalling ``elements`` stream elements.

    User ids follow a soft power law (``U * u**1.7`` for uniform ``u``): a
    small head of hot users accumulates most elements, matching the skew the
    paper's crawl datasets show, while the tail keeps the population wide.
    Each batch replays ~5% of its own insertions as deletions, so the sketch
    sees genuine toggle-off traffic without any bookkeeping of ground truth.
    """
    rng = np.random.default_rng(seed)
    emitted = 0
    while emitted < elements:
        base = min(BATCH_ELEMENTS, elements - emitted)
        deletes = min(int(base * DELETE_FRACTION), base)
        inserts = base - deletes
        users = (SOAK_USERS * rng.random(inserts) ** 1.7).astype(np.int64)
        items = rng.integers(0, 1 << 62, size=inserts, dtype=np.int64)
        if deletes:
            victim = rng.choice(inserts, size=deletes, replace=False)
            users = np.concatenate([users, users[victim]])
            items = np.concatenate([items, items[victim]])
        signs = np.ones(len(users), dtype=np.int8)
        signs[inserts:] = -1
        emitted += len(users)
        yield ElementBatch(users, items, signs)


def _percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


@pytest.fixture(scope="module")
def soak_results(tmp_path_factory):
    """Run the full soak sequence once; every test reads from this dict."""
    config = ServiceConfig(
        expected_users=SOAK_USERS,
        baseline_registers=24,
        num_shards=NUM_SHARDS,
        seed=7,
        cache_positions=False,
        sketch_cache_size=2048,
    )
    service = SimilarityService.from_config(config)

    start = time.perf_counter()
    report = service.ingest(_batches(SOAK_ELEMENTS, seed=11))
    ingest_seconds = time.perf_counter() - start

    snapshot_path = tmp_path_factory.mktemp("soak") / "soak.vos"
    start = time.perf_counter()
    service.save(snapshot_path)
    snapshot_seconds = time.perf_counter() - start
    snapshot_bytes = snapshot_path.stat().st_size

    index = service.index()
    start = time.perf_counter()
    index.build()
    index_build_seconds = time.perf_counter() - start
    indexed_users = len(service.sketch.users())

    # Query workloads run against fixed user pools drawn from the hot head,
    # so smoke and full runs exercise comparable per-query pair counts.
    rng = np.random.default_rng(23)
    present = np.asarray(sorted(service.sketch.users())[: max(POOL_USERS * 4, 2048)])
    pool_seconds: list[float] = []
    for _ in range(POOL_QUERIES):
        pool = rng.choice(present, size=min(POOL_USERS, len(present)), replace=False)
        start = time.perf_counter()
        service.top_k_pairs(k=10, users=pool.tolist(), candidates="all")
        pool_seconds.append(time.perf_counter() - start)
    pairs_per_query = len(pool) * (len(pool) - 1) // 2

    topk_seconds: list[float] = []
    probe_users = rng.choice(present, size=min(TOPK_QUERIES, len(present)), replace=False)
    for user in probe_users.tolist():
        start = time.perf_counter()
        service.top_k(user, k=10, index="lsh")
        topk_seconds.append(time.perf_counter() - start)

    delta_start = time.perf_counter()
    delta_report = service.ingest(_batches(DELTA_ELEMENTS, seed=13))
    delta_ingest_seconds = time.perf_counter() - delta_start
    start = time.perf_counter()
    index.refresh()
    index_refresh_seconds = time.perf_counter() - start
    start = time.perf_counter()
    delta_info = service.save_delta()
    delta_save_seconds = time.perf_counter() - start

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = service.stats()
    return {
        "smoke_mode": SMOKE_MODE,
        "users": SOAK_USERS,
        "elements": SOAK_ELEMENTS,
        "num_shards": NUM_SHARDS,
        "kernel": kernel_info(),
        "memory": {
            "budget_mb": MEMORY_BUDGET_MB,
            "peak_rss_mb": round(peak_rss_mb, 1),
            "sketch_memory_bits": stats["memory_bits"],
        },
        "ingest": {
            "elements": report.elements,
            "batches": report.batches,
            "seconds": ingest_seconds,
            "elements_per_second": report.elements / ingest_seconds,
            "distinct_users": indexed_users,
        },
        "persistence": {
            "snapshot_bytes": snapshot_bytes,
            "snapshot_seconds": snapshot_seconds,
            "delta": {
                "elements": delta_report.elements,
                "ingest_seconds": delta_ingest_seconds,
                "records": delta_info["records"],
                "bytes": delta_info["bytes"],
                "save_seconds": delta_save_seconds,
                "bytes_per_element": delta_info["bytes"] / max(1, delta_report.elements),
                "delta_to_snapshot_ratio": delta_info["bytes"] / max(1, snapshot_bytes),
            },
        },
        "index": {
            "build_seconds": index_build_seconds,
            "users_per_second": indexed_users / max(index_build_seconds, 1e-9),
            "refresh_seconds_after_delta": index_refresh_seconds,
        },
        "query": {
            "pool_block_score": {
                "pool_users": POOL_USERS,
                "queries": POOL_QUERIES,
                "pairs_per_query": pairs_per_query,
                "p50_seconds": _percentile(pool_seconds, 50),
                "p99_seconds": _percentile(pool_seconds, 99),
                "pairs_per_second_p50": pairs_per_query / _percentile(pool_seconds, 50),
            },
            "top_k_lsh": {
                "queries": len(topk_seconds),
                "k": 10,
                "p50_seconds": _percentile(topk_seconds, 50),
                "p99_seconds": _percentile(topk_seconds, 99),
            },
        },
    }


def test_soak_completes_whole_stream(soak_results):
    assert soak_results["ingest"]["elements"] == SOAK_ELEMENTS
    assert soak_results["ingest"]["distinct_users"] > 0
    assert soak_results["ingest"]["distinct_users"] <= SOAK_USERS


def test_soak_stays_under_memory_budget(soak_results):
    memory = soak_results["memory"]
    assert memory["peak_rss_mb"] <= memory["budget_mb"], (
        f"peak RSS {memory['peak_rss_mb']} MB exceeds the "
        f"{memory['budget_mb']} MB soak budget"
    )


def test_soak_ingest_throughput_floor(soak_results):
    # The columnar path sustains >1M elements/s on one core; the floor is set
    # far below it so CI scheduling noise cannot flake the smoke job.
    floor = 50_000 if SMOKE_MODE else 200_000
    assert soak_results["ingest"]["elements_per_second"] > floor


def test_soak_query_percentiles_are_sane(soak_results):
    for section in ("pool_block_score", "top_k_lsh"):
        entry = soak_results["query"][section]
        assert 0 < entry["p50_seconds"] <= entry["p99_seconds"]


def test_soak_delta_checkpoint_is_incremental(soak_results):
    delta = soak_results["persistence"]["delta"]
    assert delta["records"] >= 1
    assert delta["bytes"] > 0
    # A delta covering ~1% of the stream must cost far less than re-writing
    # the full snapshot.
    assert delta["delta_to_snapshot_ratio"] < 0.5


def test_write_scale_json(soak_results):
    RESULTS_PATH.write_text(json.dumps(soak_results, indent=2, sort_keys=True) + "\n")
    assert json.loads(RESULTS_PATH.read_text())["users"] == SOAK_USERS
