"""End-to-end instrumentation coverage across all four hot paths.

One service lifecycle — ingest, LSH query, full checkpoint, delta checkpoint,
restore with journal replay — must leave the metrics registry populated with
counters and latency histograms for every subsystem (``ingest.*``,
``query.*``, ``index.*``, ``persistence.*``), and ``stats()["metrics"]`` must
expose the same snapshot.  Also covers the packed-row LRU cache counters
surfaced through ``shard_report()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.memory import MemoryBudget
from repro.core.vos import VirtualOddSketch
from repro.index import BandedSketchIndex
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.service import ServiceConfig, SimilarityService
from repro.streams.edge import Action, StreamElement


@pytest.fixture
def registry():
    previous = get_registry()
    fresh = set_registry(MetricsRegistry())
    yield fresh
    set_registry(previous)


def correlated_stream(users=24, items_per_user=40, overlap=0.6, seed=3):
    """Users with overlapping item sets so LSH yields candidates to score."""
    rng = np.random.default_rng(seed)
    shared = [int(x) for x in rng.integers(0, 10**6, size=items_per_user)]
    elements = []
    for user in range(users):
        for item in shared:
            if rng.random() < overlap:
                elements.append(StreamElement(user, item, Action.INSERT))
        for item in rng.integers(10**6, 2 * 10**6, size=items_per_user // 2):
            elements.append(StreamElement(user, int(item), Action.INSERT))
    return elements


@pytest.fixture
def service(registry):
    service = SimilarityService.from_config(
        ServiceConfig(expected_users=64, num_shards=4, seed=9)
    )
    service.ingest(correlated_stream())
    return service


class TestFourSubsystemCoverage:
    def test_full_lifecycle_populates_every_subsystem(self, registry, service, tmp_path):
        snapshot_path = tmp_path / "state.vos"
        service.save(path=snapshot_path)
        service.ingest([StreamElement(1, 5_000_001, Action.INSERT)])
        service.save_delta()
        restored = SimilarityService.load(snapshot_path)
        restored.top_k_pairs(k=5, candidates="lsh")

        snap = registry.snapshot()
        names = (
            set(snap["counters"]) | set(snap["gauges"]) | set(snap["histograms"])
        )
        for prefix in ("ingest.", "query.", "index.", "persistence."):
            assert any(name.startswith(prefix) for name in names), (
                f"no metrics for subsystem {prefix!r}: {sorted(names)}"
            )
        # Specific load-bearing metrics from each path.
        assert snap["counters"]["ingest.elements"]["value"] > 0
        assert snap["histograms"]["query.top_k_pairs"]["count"] == 1
        assert snap["histograms"]["index.candidate_pairs"]["count"] == 1
        assert snap["histograms"]["persistence.snapshot.save"]["count"] == 1
        assert snap["histograms"]["persistence.journal.replay"]["count"] == 1
        assert snap["counters"]["persistence.replay.records"]["value"] >= 1
        # Latency histograms expose percentile fields.
        run = snap["histograms"]["ingest.run"]
        assert run["p50"] is not None and run["p99"] is not None

    def test_query_path_counters(self, registry, service):
        pairs = service.top_k_pairs(k=5, candidates="lsh")
        assert pairs  # correlated users must produce candidates
        snap = registry.snapshot()
        assert snap["counters"]["query.pairs_scored"]["value"] > 0
        assert snap["histograms"]["query.score_block"]["count"] >= 1
        assert snap["counters"]["index.queries"]["value"] == 1
        assert snap["histograms"]["index.candidate_yield"]["count"] == 1
        assert snap["histograms"]["index.bucket_size"]["count"] > 0
        # A pair search keys its pool from packed rows; a bucket lookup
        # builds every shard's table.
        assert "index.rebuilds" not in snap["counters"]
        service.top_k(pairs[0].user_a, k=5, index="lsh")
        snap = registry.snapshot()
        assert snap["counters"]["index.rebuilds"]["value"] == 4  # one per shard

    def test_cancelled_batch_rebuild_metrics(self, registry):
        from repro.index import IndexConfig

        vos = VirtualOddSketch(
            shared_array_bits=1 << 16, virtual_sketch_size=1024, seed=5
        )
        index = BandedSketchIndex(vos, IndexConfig(bands=16))
        index.refresh()
        registry.reset()
        # Insert+delete cancels inside xor_bulk: no array word changes, yet
        # two brand-new users appeared, so the table rebuilds.
        vos.process_batch(
            [
                StreamElement(7001, 1, Action.INSERT),
                StreamElement(7001, 1, Action.DELETE),
                StreamElement(7002, 2, Action.INSERT),
                StreamElement(7002, 2, Action.DELETE),
            ]
        )
        index.refresh()
        snap = registry.snapshot()
        assert snap["counters"]["index.rebuilds"]["value"] == 1
        assert snap["histograms"]["index.rebuild_seconds"]["count"] == 1
        # Both users recover identical all-zero rows: co-candidates via the
        # residual whole-row bucket.
        index_a, index_b = index.candidate_pairs([7001, 7002])
        assert (index_a.tolist(), index_b.tolist()) == ([0], [1])

    def test_stats_exposes_metrics_snapshot(self, registry, service):
        stats = service.stats()
        assert stats["metrics"]["enabled"] is True
        assert stats["metrics"]["counters"]["ingest.elements"]["value"] > 0

    def test_prefilter_selectivity_counters(self, registry):
        budget = MemoryBudget(baseline_registers=24, num_users=64)
        vos = VirtualOddSketch.from_budget(budget, seed=1)
        vos.process_batch(correlated_stream(users=12))
        from repro.similarity.search import pairs_above_threshold

        pairs_above_threshold(vos, threshold=0.01)
        snap = registry.snapshot()
        assert snap["counters"]["query.prefilter.pairs_in"]["value"] > 0
        kept = snap["counters"]["query.prefilter.pairs_kept"]["value"]
        assert 0 <= kept <= snap["counters"]["query.prefilter.pairs_in"]["value"]


class TestRowCacheCounters:
    def test_row_cache_hits_and_misses_counted(self, registry):
        budget = MemoryBudget(baseline_registers=24, num_users=64)
        vos = VirtualOddSketch.from_budget(budget, seed=1)
        vos.process_batch(correlated_stream(users=10))
        users = sorted(vos.users())
        vos.estimate_jaccard_indexed(
            users, np.array([0, 1, 2]), np.array([3, 4, 5])
        )
        first = registry.snapshot()["counters"]
        misses_after_cold = first["query.row_cache.misses"]["value"]
        assert misses_after_cold > 0
        vos.estimate_jaccard_indexed(
            users, np.array([0, 1, 2]), np.array([3, 4, 5])
        )
        second = registry.snapshot()["counters"]
        assert second["query.row_cache.hits"]["value"] > 0
        # Warm re-query touches no new rows.
        assert second["query.row_cache.misses"]["value"] == misses_after_cold

    def test_shard_report_includes_cache_columns(self, registry, service):
        service.top_k_pairs(k=5, candidates="lsh")
        report = service.sketch.shard_report()
        for row in report:
            assert "cache_entries" in row
            assert "cache_hits" in row
            assert "cache_misses" in row
        assert sum(row["cache_misses"] for row in report) > 0

    def test_shard_report_matches_registry_totals(self, registry, service):
        service.top_k_pairs(k=5, candidates="lsh")
        report = service.sketch.shard_report()
        counters = registry.snapshot()["counters"]
        assert sum(row["cache_hits"] for row in report) == (
            counters.get("query.row_cache.hits", {"value": 0})["value"]
        )
        assert sum(row["cache_misses"] for row in report) == (
            counters["query.row_cache.misses"]["value"]
        )


class TestJournalMetrics:
    def test_append_and_fsync_histograms(self, registry, service, tmp_path):
        service.save(path=tmp_path / "state.vos")
        registry.reset()
        service.ingest([StreamElement(3, 7_000_001, Action.INSERT)])
        service.save_delta()
        snap = registry.snapshot()
        assert snap["counters"]["persistence.journal.records"]["value"] == 1
        assert snap["counters"]["persistence.journal.bytes"]["value"] > 0
        assert snap["histograms"]["persistence.journal.append"]["count"] == 1
        assert snap["histograms"]["persistence.journal.fsync"]["count"] == 1
        assert snap["histograms"]["persistence.checkpoint.delta"]["count"] == 1
        ratio = snap["histograms"]["persistence.delta.bytes_ratio"]
        assert ratio["count"] == 1 and 0 < ratio["max"] < 1
