"""Tests for repro.service.procpool: process-pool ingest must equal serial.

The load-bearing guarantee of :class:`ProcessShardIngestor`: shipping shard
state to worker processes, routing sub-batches over shared memory, and
merging the shard deltas back leaves the coordinator's sketch **bit-identical**
to serial ingest — array bytes, cardinality counters, change tracking, rankings
and journal round trips — for 1, 2 and 4 worker processes, on streams with
deletions and exactly-cancelling batches, for both the zero-copy integer path
and the pickle fallback for object (string) id columns.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, WorkerProcessError
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.service import (
    JournalConfig,
    ProcessShardIngestor,
    ServiceConfig,
    SimilarityService,
    ingest_stream,
    iter_batches,
    shard_snapshots,
)
from repro.service.sharding import ShardedVOS
from repro.similarity.search import top_k_similar_pairs
from repro.streams.batch import ElementBatch
from repro.streams.edge import Action, StreamElement

NUM_SHARDS = 8


class Boom(RuntimeError):
    """Module-level so a worker's pickled instance unpickles in the parent."""


@pytest.fixture(scope="module")
def parity_stream(small_dynamic_stream):
    """5k deletion-heavy elements plus a user whose batch cancels exactly."""
    elements = list(small_dynamic_stream.prefix(5000))
    ghost = max(element.user for element in elements) + 7
    elements.append(StreamElement(ghost, 424242, Action.INSERT))
    elements.append(StreamElement(ghost, 424242, Action.DELETE))
    return elements


def _make_sketch(seed=3) -> ShardedVOS:
    return ShardedVOS(
        num_shards=NUM_SHARDS,
        shard_array_bits=1 << 12,
        virtual_sketch_size=64,
        seed=seed,
    )


def _assert_same_sharded_state(a: ShardedVOS, b: ShardedVOS, *, dirty=True) -> None:
    """Bit-identical arrays and counters — and, with ``dirty``, identical
    change tracking (words and users changed since the sketches were built).
    Changed-word sets depend on batch granularity (a toggle pair cancelling
    *within* one batch never writes its word), so tests that deliberately
    re-chunk batches compare them separately."""
    assert shard_snapshots(a, checkpoint_id="parity") == shard_snapshots(
        b, checkpoint_id="parity"
    )
    for shard_a, shard_b in zip(a.shards, b.shards):
        assert shard_a._cardinalities == shard_b._cardinalities
        if dirty:
            assert set(shard_a.changed_users(0)) == set(shard_b.changed_users(0))
            assert np.array_equal(
                shard_a.shared_array.dirty_words(0),
                shard_b.shared_array.dirty_words(0),
            )


class TestProcessParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_serial(self, parity_stream, workers):
        serial = _make_sketch()
        ingest_stream(serial, parity_stream, batch_size=500)
        parallel = _make_sketch()
        if workers == 1:
            # ingest_stream runs serially at one worker; drive the pool itself.
            with ProcessShardIngestor(parallel, workers) as ingestor:
                for batch in iter_batches(parity_stream, 500):
                    ingestor.submit(batch)
        else:
            report = ingest_stream(
                parallel, parity_stream, batch_size=500, workers=workers
            )
            assert report.mode == "process"
            assert report.workers == workers
            assert report.elements == len(parity_stream)
        _assert_same_sharded_state(serial, parallel)

    def test_rankings_match_serial(self, parity_stream):
        serial = _make_sketch()
        ingest_stream(serial, parity_stream, batch_size=500)
        parallel = _make_sketch()
        ingest_stream(parallel, parity_stream, batch_size=500, workers=4)
        serial_pairs = top_k_similar_pairs(serial, k=25)
        parallel_pairs = top_k_similar_pairs(parallel, k=25)
        assert serial_pairs == parallel_pairs

    def test_string_ids_fall_back_to_pickle_transport(self):
        """Object id columns can't ride shared memory; parity must still hold."""
        rng = np.random.default_rng(5)
        elements = [
            StreamElement(
                f"user-{rng.integers(0, 40)}",
                f"item-{rng.integers(0, 800)}",
                Action.INSERT if rng.random() < 0.8 else Action.DELETE,
            )
            for _ in range(2000)
        ]
        serial = _make_sketch()
        ingest_stream(serial, elements, batch_size=250)
        parallel = _make_sketch()
        ingest_stream(parallel, elements, batch_size=250, workers=2)
        _assert_same_sharded_state(serial, parallel)

    def test_sub_batches_chunk_through_small_ring_slots(self, parity_stream):
        """Sub-batches far larger than a slot chunk in order and reuse slots."""
        serial = _make_sketch()
        ingest_stream(serial, parity_stream, batch_size=1000)
        parallel = _make_sketch()
        batches = ElementBatch.from_elements(parity_stream)
        with ProcessShardIngestor(
            parallel, workers=2, slot_rows=16, ring_slots=2
        ) as ingestor:
            for start in range(0, len(batches), 1000):
                ingestor.submit(batches.slice(start, start + 1000))
        # 16-row chunks write strictly more words than 1000-row batches (a
        # cancelled toggle pair split across chunks touches its word twice),
        # so the changed-word set is a superset, never a mismatch of the bits.
        _assert_same_sharded_state(serial, parallel, dirty=False)
        for shard_a, shard_b in zip(serial.shards, parallel.shards):
            assert set(shard_a.shared_array.dirty_words(0).tolist()) <= set(
                shard_b.shared_array.dirty_words(0).tolist()
            )

    def test_spawn_start_method(self, parity_stream):
        """Workers receive everything by pickle, so spawn must work too."""
        serial = _make_sketch()
        ingest_stream(serial, parity_stream, batch_size=2500)
        parallel = _make_sketch()
        batches = ElementBatch.from_elements(parity_stream)
        with ProcessShardIngestor(
            parallel, workers=2, start_method="spawn"
        ) as ingestor:
            for start in range(0, len(batches), 2500):
                ingestor.submit(batches.slice(start, start + 2500))
        _assert_same_sharded_state(serial, parallel)


class TestLifecycle:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessShardIngestor(_make_sketch(), 0)

    def test_rejects_unsharded_sketch(self):
        from repro.core.vos import VirtualOddSketch

        vos = VirtualOddSketch(shared_array_bits=1024, virtual_sketch_size=32)
        with pytest.raises(ConfigurationError):
            ProcessShardIngestor(vos, 2)

    def test_workers_capped_at_shard_count(self):
        sketch = ShardedVOS(
            num_shards=2, shard_array_bits=1 << 10, virtual_sketch_size=32
        )
        with ProcessShardIngestor(sketch, 16) as ingestor:
            assert ingestor.workers == 2

    def test_submit_after_close_raises(self):
        ingestor = ProcessShardIngestor(_make_sketch(), 2)
        ingestor.close()
        with pytest.raises(ConfigurationError, match="closed"):
            ingestor.submit([StreamElement(1, 2, Action.INSERT)])

    def test_close_is_idempotent(self):
        ingestor = ProcessShardIngestor(_make_sketch(), 2)
        ingestor.close()
        ingestor.close()

    def test_empty_run_leaves_state_untouched(self):
        sketch = _make_sketch()
        before = shard_snapshots(sketch, checkpoint_id="parity")
        with ProcessShardIngestor(sketch, 2):
            pass
        assert shard_snapshots(sketch, checkpoint_id="parity") == before


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="failure injection forks the patched sketch class into the worker",
)
class TestFailureRelay:
    def test_worker_exception_surfaces_with_original_type(
        self, parity_stream, monkeypatch
    ):
        """The worker's exception unpickles in the coordinator and re-raises,
        chained from a WorkerProcessError carrying the remote traceback."""
        from repro.core.vos import VirtualOddSketch

        def explode(self, batch):
            raise Boom("injected worker failure")

        monkeypatch.setattr(VirtualOddSketch, "process_batch", explode)
        sketch = _make_sketch()
        before = shard_snapshots(sketch, checkpoint_id="parity")
        ingestor = ProcessShardIngestor(sketch, 2, start_method="fork")
        with pytest.raises(Boom, match="injected worker failure") as excinfo:
            try:
                ingestor.submit(ElementBatch.from_elements(parity_stream[:1000]))
            finally:
                ingestor.close()
        cause = excinfo.value.__cause__
        assert isinstance(cause, WorkerProcessError)
        assert "explode" in str(cause)  # remote traceback names the raise site
        # A poisoned run never merges partial state back.
        assert shard_snapshots(sketch, checkpoint_id="parity") == before

    def test_unpicklable_exception_falls_back_to_traceback_text(
        self, parity_stream, monkeypatch
    ):
        from repro.core.vos import VirtualOddSketch

        class LocalBoom(RuntimeError):
            """Defined in a function scope: pickling it in the worker fails."""

        def explode(self, batch):
            raise LocalBoom("unpicklable failure")

        monkeypatch.setattr(VirtualOddSketch, "process_batch", explode)
        ingestor = ProcessShardIngestor(_make_sketch(), 2, start_method="fork")
        with pytest.raises(WorkerProcessError, match="unpicklable failure"):
            try:
                ingestor.submit(ElementBatch.from_elements(parity_stream[:1000]))
            finally:
                ingestor.close()


class TestCounterAggregation:
    @pytest.fixture()
    def registry(self):
        previous = get_registry()
        fresh = set_registry(MetricsRegistry(enabled=True))
        yield fresh
        set_registry(previous)

    def test_worker_counters_merge_exactly(self, parity_stream, registry):
        sketch = _make_sketch()
        report = ingest_stream(sketch, parity_stream, batch_size=500, workers=2)
        total = report.elements
        assert registry.counter("ingest.worker_elements").value == total
        per_worker = [
            registry.counter(f"ingest.proc.worker{w}.elements").value
            for w in range(2)
        ]
        assert sum(per_worker) == total
        assert all(count > 0 for count in per_worker)  # both workers ingested
        snapshot = registry.snapshot()
        assert "ingest.proc.queue_depth" in snapshot["histograms"]

    def test_disabled_registry_stays_silent(self, parity_stream, registry):
        registry.disable()
        sketch = _make_sketch()
        ingest_stream(sketch, parity_stream, batch_size=500, workers=2)
        assert registry.snapshot()["counters"] == {}


class TestServiceIntegration:
    def test_service_process_mode_journal_round_trip(self, parity_stream, tmp_path):
        config = ServiceConfig(
            expected_users=200,
            num_shards=4,
            seed=9,
            workers=2,
            journal=JournalConfig(group_commit=True),
        )
        service = SimilarityService.from_config(config)
        report = service.ingest(parity_stream[:3000])
        assert report.mode == "process"
        assert service.stats()["workers"] == 2
        path = tmp_path / "state.vos"
        service.save(path)
        service.ingest(parity_stream[3000:])
        service.save_delta()
        restored = SimilarityService.load(path)
        serial = SimilarityService.from_config(
            ServiceConfig(expected_users=200, num_shards=4, seed=9)
        )
        serial.ingest(parity_stream[:3000])
        serial.ingest(parity_stream[3000:])
        # The restored sketch's change stamps come from the replay, not the
        # ingest; compare the bits and counters.
        _assert_same_sharded_state(serial.sketch, restored.sketch, dirty=False)

    @pytest.mark.parametrize(
        "num_shards, workers, mode, reported_workers",
        [(1, 4, "serial", 1), (4, 2, "process", 2)],
    )
    def test_mode_reports_what_ran(
        self, parity_stream, num_shards, workers, mode, reported_workers
    ):
        """Only more than one shard gives worker processes something to own."""
        sketch = ShardedVOS(
            num_shards=num_shards, shard_array_bits=1 << 12, virtual_sketch_size=64
        )
        report = ingest_stream(sketch, parity_stream[:500], workers=workers)
        assert report.mode == mode
        assert report.workers == reported_workers
