"""Tests for the single ingest path: ``ingest_stream`` over ``ShardedVOS``.

Every batch goes through ``sketch.process_batch`` on the caller's thread. The
guarantees checked here: sharded batched ingest is bit-identical to the
per-element loop (array bytes, cardinality counters, changed users) on
streams with deletions and exactly-cancelling batches, for integer and
string ids; batch granularity changes which words are written but never
the bits; an empty source changes nothing; a failing batch surfaces with its
own type; and a service's journal round trip restores the same state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.service import (
    JournalConfig,
    ServiceConfig,
    SimilarityService,
    ingest_stream,
)
from repro.service.batching import IngestReport
from repro.service.sharding import ShardedVOS
from repro.service.snapshot import dumps_snapshot
from repro.similarity.search import top_k_similar_pairs
from repro.streams.batch import ElementBatch
from repro.streams.edge import Action, StreamElement

NUM_SHARDS = 8


class Boom(RuntimeError):
    """Raised by a patched ``process_batch`` to inject an ingest failure."""


@pytest.fixture(scope="module")
def parity_stream(small_dynamic_stream):
    """5k deletion-heavy elements plus a user whose batch cancels exactly."""
    elements = list(small_dynamic_stream.prefix(5000))
    ghost = max(element.user for element in elements) + 7
    elements.append(StreamElement(ghost, 424242, Action.INSERT))
    elements.append(StreamElement(ghost, 424242, Action.DELETE))
    return elements


def _make_sketch(num_shards=NUM_SHARDS, seed=3) -> ShardedVOS:
    return ShardedVOS(
        num_shards=num_shards,
        shard_array_bits=1 << 12,
        virtual_sketch_size=64,
        seed=seed,
    )


def _shard_blobs(sketch: ShardedVOS) -> list[bytes]:
    """Per-shard snapshot bytes with a pinned checkpoint id, for ``==`` parity."""
    return [dumps_snapshot(shard, checkpoint_id="parity") for shard in sketch.shards]


def _per_element(elements, num_shards=NUM_SHARDS) -> ShardedVOS:
    sketch = _make_sketch(num_shards)
    for element in elements:
        sketch.process(element)
    return sketch


def _assert_same_state(a: ShardedVOS, b: ShardedVOS) -> None:
    """Bit-identical arrays and counters, and the same users marked changed."""
    assert _shard_blobs(a) == _shard_blobs(b)
    for shard_a, shard_b in zip(a.shards, b.shards, strict=True):
        assert shard_a.counters() == shard_b.counters()
        table_a, table_b = shard_a.user_table, shard_b.user_table
        assert set(table_a.ids(table_a.changed(0)).tolist()) == set(
            table_b.ids(table_b.changed(0)).tolist()
        )


class TestShardedParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_bit_identical_to_per_element(self, parity_stream, num_shards):
        reference = _per_element(parity_stream, num_shards)
        batched = _make_sketch(num_shards)
        report = ingest_stream(batched, parity_stream, batch_size=500)
        assert report.elements == len(parity_stream)
        _assert_same_state(reference, batched)

    def test_rankings_do_not_depend_on_batch_size(self, parity_stream):
        rankings = []
        for batch_size in (1, 500, len(parity_stream)):
            sketch = _make_sketch()
            ingest_stream(sketch, parity_stream, batch_size=batch_size)
            rankings.append(top_k_similar_pairs(sketch, k=25))
        assert len(rankings[0]) == 25
        assert rankings[0] == rankings[1] == rankings[2]

    def test_string_ids_match_per_element(self):
        rng = np.random.default_rng(5)
        elements = [
            StreamElement(
                f"user-{rng.integers(0, 40)}",
                f"item-{rng.integers(0, 800)}",
                Action.INSERT if rng.random() < 0.8 else Action.DELETE,
            )
            for _ in range(2000)
        ]
        batched = _make_sketch()
        ingest_stream(batched, elements, batch_size=250)
        _assert_same_state(_per_element(elements), batched)

    def test_cancelling_batch_leaves_no_bits(self):
        """An insert and its delete in one batch toggle the same bits twice."""
        sketch = _make_sketch()
        pair = [
            StreamElement(11, 424242, Action.INSERT),
            StreamElement(11, 424242, Action.DELETE),
        ]
        report = ingest_stream(sketch, pair, batch_size=2)
        assert report.elements == 2
        assert sketch.cardinality(11) == 0
        assert all(shard.shared_array.ones_count == 0 for shard in sketch.shards)
        assert all(len(shard.shared_array.dirty_words(0)) == 0 for shard in sketch.shards)
        # The user stays known, at zero, exactly as the per-element loop leaves it.
        _assert_same_state(_per_element(pair), sketch)


class TestBatchGranularity:
    def test_same_batches_give_the_same_written_words(self, parity_stream):
        """Element lists and pre-built column batches cut the same way agree
        on every bit and on every word written."""
        from_elements = _make_sketch()
        ingest_stream(from_elements, parity_stream, batch_size=1000)
        from_columns = _make_sketch()
        whole = ElementBatch.from_elements(parity_stream)
        ingest_stream(from_columns, whole, batch_size=1000)
        _assert_same_state(from_elements, from_columns)
        for shard_a, shard_b in zip(from_elements.shards, from_columns.shards):
            assert np.array_equal(
                shard_a.shared_array.dirty_words(0),
                shard_b.shared_array.dirty_words(0),
            )

    def test_finer_batches_write_a_superset_of_words(self, parity_stream):
        """A toggle pair that cancels within one 1000-row batch never writes
        its word; split over 16-row batches it writes it twice. The bits are
        the same either way."""
        coarse = _make_sketch()
        ingest_stream(coarse, parity_stream, batch_size=1000)
        fine = _make_sketch()
        ingest_stream(fine, parity_stream, batch_size=16)
        assert _shard_blobs(coarse) == _shard_blobs(fine)
        superset_is_strict = False
        for shard_a, shard_b in zip(coarse.shards, fine.shards):
            coarse_words = set(shard_a.shared_array.dirty_words(0).tolist())
            fine_words = set(shard_b.shared_array.dirty_words(0).tolist())
            assert coarse_words <= fine_words
            superset_is_strict |= coarse_words < fine_words
        assert superset_is_strict


class TestIngestLifecycle:
    def test_empty_source_leaves_state_untouched(self):
        sketch = _make_sketch()
        before = _shard_blobs(sketch)
        report = ingest_stream(sketch, [])
        assert (report.elements, report.batches) == (0, 0)
        assert _shard_blobs(sketch) == before

    def test_failing_batch_surfaces_its_own_type(self, parity_stream, monkeypatch):
        """Batches before the failure stay applied; nothing after it runs."""
        from repro.core.vos import VirtualOddSketch

        sketch = _make_sketch(num_shards=1)
        original = VirtualOddSketch.process_batch
        calls = []

        def explode_on_second(self, batch):
            calls.append(len(batch))
            if len(calls) == 2:
                raise Boom("injected ingest failure")
            return original(self, batch)

        monkeypatch.setattr(VirtualOddSketch, "process_batch", explode_on_second)
        with pytest.raises(Boom, match="injected ingest failure"):
            ingest_stream(sketch, parity_stream[:1500], batch_size=500)
        assert calls == [500, 500]
        monkeypatch.undo()
        reference = _make_sketch(num_shards=1)
        ingest_stream(reference, parity_stream[:500], batch_size=500)
        assert _shard_blobs(sketch) == _shard_blobs(reference)

    def test_report_fields_are_counts_and_timings_only(self):
        names = set(IngestReport.__dataclass_fields__)
        assert names == {
            "elements",
            "batches",
            "seconds",
            "assemble_seconds",
            "process_seconds",
        }


class TestCounterTotals:
    @pytest.fixture()
    def registry(self):
        previous = get_registry()
        fresh = set_registry(MetricsRegistry(enabled=True))
        yield fresh
        set_registry(previous)

    def test_counters_sum_over_runs(self, parity_stream, registry):
        sketch = _make_sketch()
        first = ingest_stream(sketch, parity_stream[:3000], batch_size=500)
        second = ingest_stream(sketch, parity_stream[3000:], batch_size=500)
        assert registry.counter("ingest.elements").value == len(parity_stream)
        assert (
            registry.counter("ingest.batches").value
            == first.batches + second.batches
        )
        assert "ingest.process" in registry.snapshot()["histograms"]

    def test_disabled_registry_stays_silent(self, parity_stream, registry):
        registry.disable()
        ingest_stream(_make_sketch(), parity_stream, batch_size=500)
        assert registry.snapshot()["counters"] == {}


class TestServiceIngest:
    def test_journal_round_trip(self, parity_stream, tmp_path):
        config = ServiceConfig(
            expected_users=200,
            num_shards=4,
            seed=9,
            journal=JournalConfig(group_commit=True),
        )
        service = SimilarityService.from_config(config)
        service.ingest(parity_stream[:3000])
        path = tmp_path / "state.vos"
        service.save(path)
        service.ingest(parity_stream[3000:])
        service.save_delta()
        restored = SimilarityService.load(path)
        # The restored sketch's change stamps come from the replay, not the
        # ingest; compare the bits and counters.
        assert _shard_blobs(restored.sketch) == _shard_blobs(service.sketch)
        for shard_a, shard_b in zip(service.sketch.shards, restored.sketch.shards):
            assert shard_a.counters() == shard_b.counters()

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_split_ingest_matches_one_call(self, parity_stream, num_shards):
        def build():
            return SimilarityService.from_config(
                ServiceConfig(expected_users=200, num_shards=num_shards, seed=9)
            )

        whole, split = build(), build()
        report = whole.ingest(parity_stream)
        assert report.elements == len(parity_stream)
        for start in range(0, len(parity_stream), 1700):
            split.ingest(parity_stream[start : start + 1700])
        assert _shard_blobs(whole.sketch) == _shard_blobs(split.sketch)
        assert whole.stats()["elements_ingested"] == len(parity_stream)
        assert split.stats()["elements_ingested"] == len(parity_stream)
