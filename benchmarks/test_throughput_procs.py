"""Process-pool ingest benchmark: serial vs 1/2/4 worker processes.

The multi-core headline number for the write path: per-shard worker processes
(:class:`~repro.service.procpool.ProcessShardIngestor`, what
``ingest_stream(workers > 1)`` runs) sidestep the GIL, so on a >= 4-core host
four processes must scale past serial ingest — while producing
**bit-identical** state at every worker count, which this benchmark asserts
unconditionally.

The measured figures are written to ``BENCH_ingest_procs.json`` at the
repository root so the performance trajectory accumulates across PRs.  Set
``REPRO_PROCS_BENCH_ELEMENTS`` to shrink the stream (CI smoke mode; results
then go to ``BENCH_ingest_procs_smoke.json``).  The scaling floor is only
asserted on a >= 4-core host outside smoke mode: worker processes cannot beat
serial ingest on one core, and snapshot-shipping overhead dominates tiny
streams — state parity is always asserted either way.
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

from repro.core.memory import MemoryBudget
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.service.batching import ingest_stream, iter_batches
from repro.service.procpool import ProcessShardIngestor
from repro.service.sharding import ShardedVOS
from repro.streams.deletions import MassiveDeletionModel
from repro.streams.generators import PowerLawBipartiteGenerator
from repro.streams.stream import build_dynamic_stream

from bench_paths import results_path

STREAM_ELEMENTS = int(os.environ.get("REPRO_PROCS_BENCH_ELEMENTS", "100000"))
SMOKE_MODE = STREAM_ELEMENTS < 50_000
NUM_SHARDS = 8
PROC_COUNTS = (1, 2, 4)
BATCH_SIZE = 32_768
CPU_COUNT = os.cpu_count() or 1
#: Floor on 4-process speedup over serial columnar ingest on a >= 4-core
#: host.  Set below the ideal 4x so snapshot shipping, shm transport and the
#: merge-back (all serial costs the workers cannot parallelize) plus
#: scheduler noise cannot flake CI.
SCALING_FLOOR = 1.7
RESULTS_PATH = results_path(
    "BENCH_ingest_procs_smoke.json" if SMOKE_MODE else "BENCH_ingest_procs.json"
)


@pytest.fixture(scope="module")
def bench_stream():
    """A fully dynamic synthetic stream (insertions + deletions)."""
    generator = PowerLawBipartiteGenerator(
        num_users=max(200, STREAM_ELEMENTS // 50),
        num_items=max(2000, STREAM_ELEMENTS // 5),
        num_edges=int(STREAM_ELEMENTS * 0.95),
        seed=52,
    )
    model = MassiveDeletionModel(
        period=max(1000, STREAM_ELEMENTS // 4), deletion_probability=0.3, seed=53
    )
    stream = build_dynamic_stream(generator.generate_edges(), model, name="procs-bench")
    assert len(stream) >= STREAM_ELEMENTS
    prefix = stream.prefix(STREAM_ELEMENTS)
    assert prefix.statistics().deletions > 0
    return prefix


@pytest.fixture(scope="module")
def budget(bench_stream):
    return MemoryBudget(baseline_registers=24, num_users=len(bench_stream.users()))


def _make_sketch(budget) -> ShardedVOS:
    return ShardedVOS.from_budget(budget, num_shards=NUM_SHARDS, seed=1)


def _pool_seconds(sketch: ShardedVOS, elements, procs: int) -> float:
    """One process-pool ingest, timed like :attr:`IngestReport.seconds`."""
    if procs > 1:
        report = ingest_stream(sketch, elements, batch_size=BATCH_SIZE, workers=procs)
        assert report.mode == "process"
        assert report.workers == procs
        return report.seconds
    # ingest_stream runs serially at one worker; drive the pool itself.
    with ProcessShardIngestor(sketch, procs) as ingestor:
        start = time.perf_counter()
        for batch in iter_batches(elements, BATCH_SIZE):
            ingestor.submit(batch)
        ingestor.close()
        return time.perf_counter() - start


@pytest.fixture(scope="module")
def measurements(bench_stream, budget):
    """Time serial columnar ingest and the process pool at 1/2/4 workers.

    The timings cover routing, ring transport, merge-back and join; the pool
    forks its workers and serializes shard state before the clock starts.
    Best-of-3 keeps a single scheduler hiccup from dominating any one figure.
    """
    elements = list(bench_stream)
    previous_registry = get_registry()
    registry = set_registry(MetricsRegistry())
    try:
        serial_seconds = float("inf")
        for _ in range(3):
            serial = _make_sketch(budget)
            serial_seconds = min(
                serial_seconds,
                ingest_stream(serial, elements, batch_size=BATCH_SIZE).seconds,
            )

        process_runs = {}
        for procs in PROC_COUNTS:
            best = float("inf")
            for _ in range(3):
                sketch = _make_sketch(budget)
                best = min(best, _pool_seconds(sketch, elements, procs))
            process_runs[procs] = (sketch, best)
    finally:
        set_registry(previous_registry)
    return {
        "serial": (serial, serial_seconds),
        "process": process_runs,
        "registry": registry,
    }


def _assert_same_state(a: ShardedVOS, b: ShardedVOS) -> None:
    for shard_a, shard_b in zip(a.shards, b.shards):
        assert np.array_equal(
            shard_a.shared_array._bits._bits, shard_b.shared_array._bits._bits
        )
        assert shard_a.shared_array.ones_count == shard_b.shared_array.ones_count
        assert shard_a._cardinalities == shard_b._cardinalities


@pytest.mark.parametrize("procs", PROC_COUNTS)
def test_process_state_matches_serial(measurements, procs):
    """Bit-identical state at every process count — asserted unconditionally."""
    _assert_same_state(measurements["serial"][0], measurements["process"][procs][0])


@pytest.mark.skipif(
    CPU_COUNT < 4 or SMOKE_MODE,
    reason="process scaling needs >= 4 cores and a full-size stream",
)
def test_four_processes_scale_past_serial(measurements):
    _, serial_seconds = measurements["serial"]
    _, procs_seconds = measurements["process"][4]
    speedup = serial_seconds / procs_seconds
    assert speedup >= SCALING_FLOOR, (
        f"4-process ingest only {speedup:.2f}x faster than serial on "
        f"{CPU_COUNT} cores ({procs_seconds:.3f}s vs {serial_seconds:.3f}s)"
    )


def test_transport_instrumentation_recorded(measurements):
    """The shm/queue histograms observed something during the timed runs."""
    histograms = measurements["registry"].snapshot()["histograms"]
    assert histograms["ingest.proc.queue_depth"]["count"] > 0


def test_write_results_json(measurements, bench_stream):
    _, serial_seconds = measurements["serial"]
    count = len(bench_stream)
    payload = {
        "stream_elements": count,
        "distinct_users": len(bench_stream.users()),
        "num_shards": NUM_SHARDS,
        "batch_size": BATCH_SIZE,
        "cpu_count": CPU_COUNT,
        "smoke_mode": SMOKE_MODE,
        "scaling_floor": SCALING_FLOOR,
        "scaling_asserted": CPU_COUNT >= 4 and not SMOKE_MODE,
        "columnar_serial": {
            "seconds": serial_seconds,
            "elements_per_second": count / serial_seconds,
        },
        "process_pool": {
            str(procs): {
                "seconds": seconds,
                "elements_per_second": count / seconds,
                "speedup_vs_serial": serial_seconds / seconds,
            }
            for procs, (_, seconds) in measurements["process"].items()
        },
        "transport_percentiles": {
            name: {key: hist[key] for key in ("count", "p50", "p90", "p99", "max")}
            for name, hist in measurements["registry"].snapshot()["histograms"].items()
            if name.startswith("ingest.proc.")
        },
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    assert RESULTS_PATH.exists()
