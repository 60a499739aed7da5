"""Columnar ingest benchmark: element loop vs columnar-serial.

The write-path headline number for the array-native ingest pipeline: on a
fully dynamic stream into a multi-shard :class:`ShardedVOS`, columnar ingest
(array-native batches, one vectorized route per batch) must beat the
per-element loop by a wide margin while producing **bit-identical** state.
The columnar path's own elements/s is gated too: 8-shard and single-array
``process_batch`` of the same batches, timed interleaved, must stay within
:data:`LAYOUT_RATIO_FLOOR` of each other (a fixed cost paid once per shard
shows as a low ratio; both sides share the host, so the ratio does not
carry its speed).  The same stream is also written to disk in both formats
to time binary ``.vosstream`` loading against text parsing.

The measured figures are written to ``BENCH_ingest.json`` at the repository
root so the performance trajectory accumulates across PRs.  Set
``REPRO_INGEST_BENCH_ELEMENTS`` to shrink the stream (CI smoke mode; results
then go to ``BENCH_ingest_smoke.json`` and the timing floors are relaxed —
state parity is always asserted).
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

import pytest

from repro.core.memory import MemoryBudget
from repro.core.vos import VirtualOddSketch
from repro.obs import MetricsRegistry, get_registry, render_json, set_registry
from repro.service.batching import ingest_stream
from repro.service.sharding import ShardedVOS
from repro.streams.batch import ElementBatch
from repro.streams.deletions import MassiveDeletionModel
from repro.streams.generators import PowerLawBipartiteGenerator
from repro.streams.io import iter_stream_batches, read_stream, write_stream
from repro.streams.stream import build_dynamic_stream

from bench_paths import results_path

STREAM_ELEMENTS = int(os.environ.get("REPRO_INGEST_BENCH_ELEMENTS", "100000"))
SMOKE_MODE = STREAM_ELEMENTS < 50_000
NUM_SHARDS = 8
BATCH_SIZE = 32_768
CPU_COUNT = os.cpu_count() or 1
#: Floor on columnar-vs-element-loop speedup.  The full-size run records ~30x+
#: (the acceptance number lives in BENCH_ingest.json); the assertion floor is
#: set below it so scheduler noise cannot flake CI.
SPEEDUP_FLOOR = 5.0 if SMOKE_MODE else 15.0
#: Elements per batch in the layout comparison (~1k per shard).
LAYOUT_BATCH_SIZE = 8192
#: Floor on 8-shard over single-array columnar elements/s on the same
#: batches.  It read 0.48 on a 2-core host when every shard hashed, folded
#: and xored its own slice, and ~0.72 with one pass per batch.
LAYOUT_RATIO_FLOOR = 0.6
LAYOUT_ROUNDS = 5
RESULTS_PATH = results_path(
    "BENCH_ingest_smoke.json" if SMOKE_MODE else "BENCH_ingest.json"
)
#: Full metrics-registry dump captured during the timed runs (CI artifact).
METRICS_PATH = results_path(
    "BENCH_ingest_metrics_smoke.json" if SMOKE_MODE else "BENCH_ingest_metrics.json"
)


@pytest.fixture(scope="module")
def ingest_stream_data():
    """A fully dynamic synthetic stream (insertions + deletions)."""
    generator = PowerLawBipartiteGenerator(
        num_users=max(200, STREAM_ELEMENTS // 50),
        num_items=max(2000, STREAM_ELEMENTS // 5),
        num_edges=int(STREAM_ELEMENTS * 0.95),
        seed=42,
    )
    model = MassiveDeletionModel(
        period=max(1000, STREAM_ELEMENTS // 4), deletion_probability=0.3, seed=43
    )
    stream = build_dynamic_stream(generator.generate_edges(), model, name="ingest-bench")
    assert len(stream) >= STREAM_ELEMENTS
    prefix = stream.prefix(STREAM_ELEMENTS)
    assert prefix.statistics().deletions > 0
    return prefix


@pytest.fixture(scope="module")
def budget(ingest_stream_data):
    return MemoryBudget(
        baseline_registers=24, num_users=len(ingest_stream_data.users())
    )


def _make_sketch(budget) -> ShardedVOS:
    return ShardedVOS.from_budget(budget, num_shards=NUM_SHARDS, seed=1)


@pytest.fixture(scope="module")
def measurements(ingest_stream_data, budget):
    """Time the element loop and columnar-serial ingest, sharing the sketches.

    The columnar runs go through a private metrics registry so the ingest
    phase histograms (``ingest.assemble``/``ingest.process``/…) accumulate
    alongside the wall-clock numbers; their percentiles land in the results
    JSON and the full registry dump in ``BENCH_ingest_metrics*.json``.
    """
    elements = list(ingest_stream_data)

    element_loop = _make_sketch(budget)
    start = time.perf_counter()
    for element in elements:
        element_loop.process(element)
    element_loop_seconds = time.perf_counter() - start

    previous_registry = get_registry()
    registry = set_registry(MetricsRegistry())
    try:
        # The columnar run finishes in tens of milliseconds, so a single
        # scheduler hiccup could dominate one measurement; keep the best of
        # three.
        serial_seconds = float("inf")
        for _ in range(3):
            serial = _make_sketch(budget)
            serial_seconds = min(
                serial_seconds,
                ingest_stream(serial, elements, batch_size=BATCH_SIZE).seconds,
            )
    finally:
        set_registry(previous_registry)

    return {
        "element_loop": (element_loop, element_loop_seconds),
        "serial": (serial, serial_seconds),
        "registry": registry,
    }


@pytest.fixture(scope="module")
def layout_rates(ingest_stream_data, budget):
    """Columnar elements/s of the same batches into 8 shards and into one
    array of the same total budget: rounds alternate the layouts, and each
    keeps its best round."""
    elements = list(ingest_stream_data)
    batches = [
        ElementBatch.from_elements(elements[start : start + LAYOUT_BATCH_SIZE])
        for start in range(0, len(elements), LAYOUT_BATCH_SIZE)
    ]
    layouts = {
        "sharded": lambda: _make_sketch(budget),
        "single_array": lambda: VirtualOddSketch.from_budget(budget, seed=1),
    }
    best = dict.fromkeys(layouts, float("inf"))
    for _ in range(LAYOUT_ROUNDS):
        for name, make in layouts.items():
            sketch = make()
            start = time.perf_counter()
            for batch in batches:
                sketch.process_batch(batch)
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: len(elements) / seconds for name, seconds in best.items()}


@pytest.fixture(scope="module")
def format_timings(ingest_stream_data, tmp_path_factory):
    """Write the stream in both formats and time a full load of each."""
    directory = tmp_path_factory.mktemp("ingest-bench-streams")
    text_path = directory / "stream.txt"
    binary_path = directory / "stream.vosstream"
    write_stream(ingest_stream_data, text_path)
    write_stream(ingest_stream_data, binary_path)

    timings = {}
    for label, path in (("text", text_path), ("binary", binary_path)):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            loaded = read_stream(path, validate=False)
            best = min(best, time.perf_counter() - start)
        assert len(loaded) == len(ingest_stream_data)
        timings[label] = {
            "seconds": best,
            "bytes": path.stat().st_size,
        }

    # Chunked binary read straight into batches (the scale ingest path).
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = sum(len(batch) for batch in iter_stream_batches(binary_path))
        best = min(best, time.perf_counter() - start)
    assert total == len(ingest_stream_data)
    timings["binary_chunked"] = {"seconds": best, "bytes": binary_path.stat().st_size}
    return timings


def _assert_same_state(a: ShardedVOS, b: ShardedVOS) -> None:
    for shard_a, shard_b in zip(a.shards, b.shards):
        assert (
            shard_a.shared_array.to_packed_bytes()
            == shard_b.shared_array.to_packed_bytes()
        )
        assert shard_a.shared_array.ones_count == shard_b.shared_array.ones_count
        assert shard_a.counters() == shard_b.counters()


def test_columnar_serial_state_matches_element_loop(measurements):
    _assert_same_state(measurements["element_loop"][0], measurements["serial"][0])


def test_columnar_serial_beats_element_loop(measurements):
    _, element_loop_seconds = measurements["element_loop"]
    _, serial_seconds = measurements["serial"]
    speedup = element_loop_seconds / serial_seconds
    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar-serial ingest only {speedup:.1f}x faster "
        f"({element_loop_seconds:.3f}s vs {serial_seconds:.3f}s)"
    )


def test_sharded_columnar_ingest_keeps_pace_with_one_array(layout_rates):
    ratio = layout_rates["sharded"] / layout_rates["single_array"]
    assert ratio >= LAYOUT_RATIO_FLOOR, (
        f"{NUM_SHARDS}-shard columnar ingest runs at {ratio:.2f}x the single-array "
        f"rate ({layout_rates['sharded']:.0f} vs "
        f"{layout_rates['single_array']:.0f} elements/s)"
    )


def test_binary_load_beats_text_parsing(format_timings):
    assert format_timings["binary"]["seconds"] < format_timings["text"]["seconds"], (
        "binary .vosstream load should beat per-line text parsing "
        f"({format_timings['binary']['seconds']:.3f}s vs "
        f"{format_timings['text']['seconds']:.3f}s)"
    )


def test_write_results_json(measurements, format_timings, layout_rates, ingest_stream_data):
    _, element_loop_seconds = measurements["element_loop"]
    _, serial_seconds = measurements["serial"]
    count = len(ingest_stream_data)
    payload = {
        "stream_elements": count,
        "distinct_users": len(ingest_stream_data.users()),
        "num_shards": NUM_SHARDS,
        "batch_size": BATCH_SIZE,
        "cpu_count": CPU_COUNT,
        "element_loop": {
            "seconds": element_loop_seconds,
            "elements_per_second": count / element_loop_seconds,
        },
        "columnar_serial": {
            "seconds": serial_seconds,
            "elements_per_second": count / serial_seconds,
            "speedup_vs_element_loop": element_loop_seconds / serial_seconds,
        },
        "columnar_layouts": {
            "batch_size": LAYOUT_BATCH_SIZE,
            "cpu_count": CPU_COUNT,
            "sharded_elements_per_second": layout_rates["sharded"],
            "single_array_elements_per_second": layout_rates["single_array"],
            "sharded_over_single_array": layout_rates["sharded"] / layout_rates["single_array"],
        },
        "stream_formats": format_timings,
        "latency_percentiles": {
            name: {key: hist[key] for key in ("count", "p50", "p90", "p99", "max")}
            for name, hist in measurements["registry"].snapshot()["histograms"].items()
            if name.startswith("ingest.")
        },
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    METRICS_PATH.write_text(render_json(measurements["registry"]) + "\n")
    assert RESULTS_PATH.exists()
    assert METRICS_PATH.exists()
