"""Serving-daemon benchmark: request latency, wire parity, live epoch swaps.

The serving acceptance criteria, measured end to end over a real localhost
TCP connection:

* **Parity** — daemon answers must compare ``==`` with the in-process
  :class:`SimilarityService` answers on the same state (the wire protocol's
  JSON float round trip is ``repr``-exact, so this is bit-identity).
* **Latency** — request p50/p99 for ``top_k_pairs`` and ``estimate_many``
  land in ``BENCH_serve.json``, measured client-side (full round trip:
  encode, TCP, dispatch, score, encode, TCP, decode).
* **Live swaps** — reader threads hammer the daemon while ``ingest_batch``
  requests publish new epochs; no request may error or observe a torn epoch,
  and the epoch swap pause (the publish critical section concurrent readers
  can see) is read from the daemon's metrics registry and must stay
  microscopic relative to request latency.
* **Publish latency sweep** — a daemon absorbs small batches at several
  user-pool tiers, and its copy-on-write publishes (daemon-side
  ``publish_log``) are timed against the whole-state freeze they replace
  (``from_state_bytes(dumps_state())``), timed in-process on an identical
  writer after the same batches.  The sweep lands in the JSON by user count;
  copy-on-write publishing must be at least 5x faster at p50 than the
  whole-state freeze at the largest tier.

``REPRO_SERVE_BENCH_USERS`` shrinks the pool (CI smoke mode writes
``BENCH_serve_smoke.json`` so a shrunken run never clobbers the full-size
record).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

try:  # pragma: no cover
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from repro.core.memory import MemoryBudget, vos_parameters_for_budget
from repro.core.vos import VirtualOddSketch
from repro.server import ServingClient, ServingDaemon
from repro.service.service import SimilarityService
from repro.streams.generators import PowerLawBipartiteGenerator
from repro.streams.stream import build_dynamic_stream

from bench_paths import results_path

POOL_USERS = int(os.environ.get("REPRO_SERVE_BENCH_USERS", "2000"))
SMOKE_MODE = POOL_USERS < 2000
RESULTS_PATH = results_path(
    "BENCH_serve_smoke.json" if SMOKE_MODE else "BENCH_serve.json"
)
#: Requests timed per op for the latency percentiles.
LATENCY_REQUESTS = 60 if SMOKE_MODE else 200
#: Users scored per ``top_k_pairs`` request (a pool sample, so one request
#: costs a bounded pair count regardless of ``POOL_USERS``).
REQUEST_POOL = 192
#: Pairs estimated per ``estimate_many`` request.
REQUEST_PAIRS = 256
#: Reader threads during the live-swap phase.
SWAP_READERS = 4
SWAP_ROUNDS = 3 if SMOKE_MODE else 6
#: Publishes (and reference freezes) timed at each sweep tier.
SWEEP_PUBLISHES = 12 if SMOKE_MODE else 16


def _build_service(num_users: int) -> SimilarityService:
    generator = PowerLawBipartiteGenerator(
        num_users=num_users,
        num_items=num_users * 4,
        num_edges=num_users * 12,
        seed=1009,
    )
    stream = build_dynamic_stream(generator.generate_edges(), None, name="serve-bench")
    budget = MemoryBudget(baseline_registers=24, num_users=num_users)
    parameters = vos_parameters_for_budget(budget)
    sketch = VirtualOddSketch(
        shared_array_bits=parameters.shared_array_bits,
        virtual_sketch_size=parameters.virtual_sketch_size,
        seed=1013,
    )
    built = SimilarityService(sketch)
    built.ingest(stream)
    return built


@pytest.fixture(scope="module")
def service() -> SimilarityService:
    return _build_service(POOL_USERS)


@pytest.fixture(scope="module")
def daemon(service):
    with ServingDaemon(service, workers=4) as running:
        yield running


@pytest.fixture(scope="module")
def client(daemon):
    with ServingClient(*daemon.address) as connected:
        yield connected


@pytest.fixture(scope="module")
def measurements() -> dict:
    return {}


def _pool_sample(service: SimilarityService, count: int, seed: int) -> list:
    users = sorted(service.sketch.users())
    rng = np.random.default_rng(seed)
    return [users[i] for i in rng.choice(len(users), size=min(count, len(users)), replace=False)]


def _percentiles(seconds: list[float]) -> dict:
    values = np.asarray(seconds)
    return {
        "requests": int(values.size),
        "p50_ms": float(np.percentile(values, 50) * 1e3),
        "p90_ms": float(np.percentile(values, 90) * 1e3),
        "p99_ms": float(np.percentile(values, 99) * 1e3),
        "max_ms": float(values.max() * 1e3),
        "requests_per_second": float(values.size / values.sum()),
    }


def test_wire_parity_against_in_process(daemon, client, service):
    """Every op must answer bit-identically to the in-process service."""
    sample = _pool_sample(service, REQUEST_POOL, seed=5)
    assert client.top_k_pairs(k=20, users=sample) == service.top_k_pairs(
        k=20, users=sample
    )
    pairs = list(zip(sample[: REQUEST_PAIRS // 2], sample[1 : REQUEST_PAIRS // 2 + 1]))
    assert client.estimate_many(pairs) == service.estimate_many(pairs)
    user = sample[0]
    assert client.nearest(user, k=10, candidates=sample) == service.top_k(
        user, k=10, candidates=sample
    )


def test_request_latency_percentiles(client, service, measurements):
    """Time full client round trips for the two hot read ops."""
    rng = np.random.default_rng(23)
    users = sorted(service.sketch.users())

    topk_seconds: list[float] = []
    for index in range(LATENCY_REQUESTS):
        sample = [users[i] for i in rng.choice(len(users), REQUEST_POOL, replace=False)]
        started = time.perf_counter()
        result = client.top_k_pairs(k=10, users=sample)
        topk_seconds.append(time.perf_counter() - started)
        assert len(result) == 10

    estimate_seconds: list[float] = []
    for index in range(LATENCY_REQUESTS):
        chosen = rng.choice(len(users), (REQUEST_PAIRS, 2))
        pairs = [(users[a], users[b]) for a, b in chosen if a != b]
        started = time.perf_counter()
        result = client.estimate_many(pairs)
        estimate_seconds.append(time.perf_counter() - started)
        assert len(result) == len(pairs)

    measurements["top_k_pairs"] = _percentiles(topk_seconds)
    measurements["estimate_many"] = _percentiles(estimate_seconds)
    # sanity floor: a localhost round trip must stay interactive
    assert measurements["top_k_pairs"]["p99_ms"] < 5_000
    assert measurements["estimate_many"]["p99_ms"] < 5_000


def test_live_ingest_swaps_under_reader_traffic(daemon, client, service, measurements):
    """Publish epochs while readers hammer; nothing errors, nothing tears."""
    errors: list[Exception] = []
    reads = {"count": 0}
    stop = threading.Event()
    users = sorted(service.sketch.users())
    lock = threading.Lock()

    def reader(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            with ServingClient(*daemon.address) as mine:
                while not stop.is_set():
                    sample = [
                        users[i] for i in rng.choice(len(users), 64, replace=False)
                    ]
                    pairs = list(zip(sample[:32], sample[32:]))
                    estimates = mine.estimate_many(pairs)
                    assert len(estimates) == len(pairs)
                    with lock:
                        reads["count"] += 1
        except Exception as error:  # noqa: BLE001 - surfaced via the assert
            errors.append(error)

    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(SWAP_READERS)]
    for thread in threads:
        thread.start()
    epoch_before = client.epoch
    from repro.streams import Action, StreamElement

    for round_index in range(SWAP_ROUNDS):
        base = 10_000_000 + round_index * 100
        batch = [
            StreamElement(base + offset, base + offset + item, Action.INSERT)
            for offset in range(5)
            for item in range(12)
        ]
        report = client.ingest_batch(batch)
        assert report["published"] is True
        time.sleep(0.05)
    stop.set()
    for thread in threads:
        thread.join()

    assert errors == []
    assert client.epoch == epoch_before + SWAP_ROUNDS
    assert reads["count"] > 0

    metrics = client.metrics()
    swap = metrics["histograms"]["server.epoch.swap_pause"]
    publish = metrics["histograms"]["server.epoch.publish"]
    assert swap["count"] >= SWAP_ROUNDS
    # the swap critical section is a pointer flip — it must be far below
    # request latency (the *publish* build cost is allowed to be large; it
    # happens outside the reader-visible critical section)
    assert swap["max"] < 0.05
    measurements["epoch_swap"] = {
        "swaps": swap["count"],
        "pause_p50_ms": swap["p50"] * 1e3,
        "pause_max_ms": swap["max"] * 1e3,
        "publish_p50_ms": publish["p50"] * 1e3,
        "publish_max_ms": publish["max"] * 1e3,
        "reads_during_swaps": reads["count"],
    }


def _sweep_tiers() -> list[int]:
    return sorted({max(100, POOL_USERS // 5), POOL_USERS})


def _sweep_batch(round_index: int) -> list:
    from repro.streams import Action, StreamElement

    base = 30_000_000 + round_index * 50
    return [
        StreamElement(base + offset, base + offset + item, Action.INSERT)
        for offset in range(4)
        for item in range(10)
    ]


def _latency_record(seconds: list[float]) -> dict:
    return {
        "publishes": len(seconds),
        "publish_p50_ms": float(np.percentile(seconds, 50) * 1e3),
        "publish_p99_ms": float(np.percentile(seconds, 99) * 1e3),
        "publish_max_ms": float(max(seconds) * 1e3),
    }


def test_publish_latency_sweep(measurements):
    """Time copy-on-write publishes against the whole-state freeze at each tier.

    Per-publish build latency is read from the daemon-side ``publish_log``
    (no wire time included), so the comparison isolates exactly what the COW
    path claims to make cheap: the epoch build.  The reference freeze
    (``from_state_bytes(dumps_state())``) is timed in-process on a second
    writer after the same batches.  The 5x acceptance floor applies at the
    largest tier, where the freeze is most expensive.
    """
    sweep: dict[str, dict] = {}
    for tier in _sweep_tiers():
        with ServingDaemon(_build_service(tier), workers=2) as running:
            with ServingClient(*running.address) as mine:
                for round_index in range(SWEEP_PUBLISHES):
                    report = mine.ingest_batch(_sweep_batch(round_index))
                    assert report["publish_mode"] == "cow"
            log = list(running.publish_log)
        assert len(log) == SWEEP_PUBLISHES
        reference = _build_service(tier)
        freezes = []
        for round_index in range(SWEEP_PUBLISHES):
            reference.ingest(_sweep_batch(round_index))
            started = time.perf_counter()
            SimilarityService.from_state_bytes(
                reference.dumps_state(),
                index_config=reference.index_config,
                elements_ingested=reference.elements_ingested,
            )
            freezes.append(time.perf_counter() - started)
        cow = _latency_record([entry["seconds"] for entry in log])
        cow["delta_words_p50"] = float(
            np.percentile([entry["delta_words"] for entry in log], 50)
        )
        full = _latency_record(freezes)
        sweep[str(tier)] = {
            "cow": cow,
            "full": full,
            "cow_speedup_p50": (
                full["publish_p50_ms"] / cow["publish_p50_ms"]
                if cow["publish_p50_ms"]
                else float("inf")
            ),
        }
    measurements["publish_sweep"] = sweep
    largest = str(max(_sweep_tiers()))
    assert sweep[largest]["cow_speedup_p50"] >= 5.0, sweep[largest]


def test_write_serve_json(daemon, measurements):
    """Record the serving figures (runs last; depends on the tests above)."""
    assert "top_k_pairs" in measurements and "epoch_swap" in measurements
    assert "publish_sweep" in measurements
    payload = {
        "pool_users": POOL_USERS,
        "smoke_mode": SMOKE_MODE,
        "request_pool_users": REQUEST_POOL,
        "request_pairs": REQUEST_PAIRS,
        "workers": 4,
        "latency": {
            "top_k_pairs": measurements["top_k_pairs"],
            "estimate_many": measurements["estimate_many"],
        },
        "epoch_swap": measurements["epoch_swap"],
        "publish_sweep": measurements["publish_sweep"],
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert json.loads(RESULTS_PATH.read_text())["pool_users"] == POOL_USERS
