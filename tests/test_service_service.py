"""Tests for repro.service.service (the SimilarityService facade)."""

from __future__ import annotations

import pytest

from repro.core.vos import packed_row_bytes
from repro.exceptions import ConfigurationError
from repro.service import ServiceConfig, SimilarityService
from repro.service.sharding import ShardedVOS
from repro.similarity.search import nearest_neighbours
from repro.streams.edge import Action, StreamElement


@pytest.fixture(scope="module")
def fed_service(small_dynamic_stream):
    service = SimilarityService.from_config(
        ServiceConfig(expected_users=80, baseline_registers=16, num_shards=4, seed=6)
    )
    service.ingest(small_dynamic_stream.prefix(3000))
    return service


class TestConfiguration:
    def test_from_config_builds_sharded_sketch(self):
        service = SimilarityService.from_config(
            ServiceConfig(expected_users=50, num_shards=3)
        )
        assert isinstance(service.sketch, ShardedVOS)
        assert service.sketch.num_shards == 3
        assert service.sketch.memory_bits() >= ServiceConfig(expected_users=50).budget().total_bits

    def test_rejects_bad_batch_size(self):
        sketch = ShardedVOS(1, 64, 8)
        with pytest.raises(ConfigurationError):
            SimilarityService(sketch, batch_size=0)


class TestIngestAndQuery:
    def test_ingest_counts_elements(self, small_dynamic_stream):
        stream = small_dynamic_stream.prefix(1000)
        service = SimilarityService.from_config(
            ServiceConfig(expected_users=80, batch_size=128)
        )
        report = service.ingest(stream)
        assert report.elements == 1000
        assert report.batches == 8
        assert service.elements_ingested == 1000
        second = service.ingest(stream.prefix(100))
        assert second.elements == 100
        assert service.elements_ingested == 1100

    def test_estimate_matches_sketch(self, fed_service):
        users = sorted(fed_service.sketch.users())[:4]
        estimate = fed_service.estimate(users[0], users[1])
        assert estimate.jaccard == fed_service.sketch.estimate_jaccard(users[0], users[1])
        assert estimate.common_items == fed_service.sketch.estimate_common_items(
            users[0], users[1]
        )

    def test_top_k_reuses_search_module(self, fed_service):
        user = sorted(fed_service.sketch.users())[0]
        direct = nearest_neighbours(fed_service.sketch, user, k=5)
        via_service = fed_service.top_k(user, k=5)
        assert via_service == direct

    def test_top_k_pairs(self, fed_service):
        pairs = fed_service.top_k_pairs(k=3)
        assert len(pairs) == 3
        assert pairs[0].jaccard >= pairs[-1].jaccard

    def test_stats_fields(self, fed_service):
        stats = fed_service.stats()
        assert stats["users"] == len(fed_service.sketch.users())
        assert stats["num_shards"] == 4
        assert len(stats["shard_betas"]) == 4
        assert stats["memory_bits"] == fed_service.sketch.memory_bits()

    def test_memory_bytes_per_layer(self, small_dynamic_stream):
        service = SimilarityService.from_config(
            ServiceConfig(expected_users=500, num_shards=4, seed=3)
        )
        service.ingest(small_dynamic_stream)
        shards = service.sketch.row_shards()
        cold = service.stats()["memory_bytes"]
        assert set(cold) == {"array", "user_table", "row_memo", "offsets", "index", "per_user"}
        # Packed bits plus the word stamps the tracked ingest allocated.
        assert cold["array"] == sum(2 * shard.shared_array.storage.nbytes for shard in shards)
        assert cold["user_table"] > 16 * service.stats()["users"]  # two int64 columns
        assert cold["row_memo"] == cold["index"] == 0
        # Ingest derives each user's position offsets once: three int64s.
        assert cold["offsets"] == 24 * service.stats()["users"]
        service.top_k_pairs(k=3, candidates="lsh")
        assert service.stats()["memory_bytes"]["index"] == 0  # pair searches build no table
        service.top_k(next(iter(service.sketch.users())), k=3, index="lsh")
        stats = service.stats()
        warm = stats["memory_bytes"]
        row_bytes = packed_row_bytes(service.sketch.virtual_sketch_size)
        assert warm["row_memo"] == (row_bytes + 8) * stats["users"]
        assert warm["index"] == stats["index"]["signature_bytes"] > 0
        layers = ("array", "user_table", "row_memo", "offsets", "index")
        assert warm["per_user"] == sum(warm[layer] for layer in layers) / stats["users"]
        assert stats["sketch_cache"].keys() == {"entries", "hits", "misses"}


class TestPersistence:
    def test_save_load_round_trip(self, fed_service, tmp_path):
        path = tmp_path / "service.snapshot"
        fed_service.save(path)
        restored = SimilarityService.load(path)
        users = sorted(fed_service.sketch.users())[:5]
        for i, user_a in enumerate(users):
            for user_b in users[i + 1 :]:
                assert fed_service.estimate(user_a, user_b) == restored.estimate(
                    user_a, user_b
                )
        assert restored.top_k(users[0], k=3) == fed_service.top_k(users[0], k=3)

    def test_restored_service_accepts_more_traffic(self, fed_service, tmp_path):
        path = tmp_path / "service.snapshot"
        fed_service.save(path)
        restored = SimilarityService.load(path)
        report = restored.ingest(
            [StreamElement(1, 50000 + i, Action.INSERT) for i in range(10)]
        )
        assert report.elements == 10
        assert restored.sketch.cardinality(1) >= 10


def test_ingest_has_no_workers_knob(tmp_path):
    """Ingest has one path (serial ``process_batch``): nothing takes ``workers``."""
    from repro.service import ingest_stream

    service = SimilarityService.from_config(ServiceConfig(expected_users=10))
    path = tmp_path / "state.vos"
    service.save(path)
    for build in (
        lambda: ServiceConfig(expected_users=10, workers=2),
        lambda: SimilarityService(service.sketch, workers=2),
        lambda: SimilarityService.load(path, workers=2),
        lambda: ingest_stream(service.sketch, [], workers=2),
    ):
        with pytest.raises(TypeError, match="workers"):
            build()
    assert "workers" not in service.stats()


class TestCheckpointPolicy:
    """every_n_elements / max_journal_bytes wiring through ServiceConfig."""

    def _service(self, tmp_path, **policy_kwargs):
        from repro.service import CheckpointPolicy, ServiceConfig, SimilarityService

        service = SimilarityService.from_config(
            ServiceConfig(
                expected_users=100,
                num_shards=2,
                seed=3,
                checkpoint=CheckpointPolicy(**policy_kwargs),
            )
        )
        service.ingest(
            [StreamElement(u, i, Action.INSERT) for u in range(10) for i in range(10)]
        )
        service.save(tmp_path / "state.vos")
        return service

    def test_policy_validation(self):
        from repro.exceptions import ConfigurationError
        from repro.service import CheckpointPolicy

        with pytest.raises(ConfigurationError):
            CheckpointPolicy(every_n_elements=-1)
        with pytest.raises(ConfigurationError):
            CheckpointPolicy(max_journal_bytes=-1)

    def test_every_n_elements_writes_deltas(self, tmp_path):
        from repro.service.journal import default_journal_path

        service = self._service(tmp_path, every_n_elements=50)
        assert service.stats()["persistence"]["deltas_written"] == 0
        service.ingest(
            [StreamElement(1, 10_000 + i, Action.INSERT) for i in range(60)]
        )
        stats = service.stats()["persistence"]
        assert stats["deltas_written"] >= 1
        assert stats["elements_since_checkpoint"] == 0
        assert default_journal_path(tmp_path / "state.vos").exists()
        # Below the threshold nothing new is written.
        service.ingest([StreamElement(1, 99_999, Action.INSERT)])
        assert service.stats()["persistence"]["deltas_written"] == stats["deltas_written"]

    def test_max_journal_bytes_triggers_compaction(self, tmp_path):
        from repro.service.journal import default_journal_path

        service = self._service(
            tmp_path, every_n_elements=10, max_journal_bytes=2000
        )
        for round_index in range(6):
            service.ingest(
                [
                    StreamElement(u, 10_000 + 100 * round_index + i, Action.INSERT)
                    for u in range(10)
                    for i in range(5)
                ]
            )
        stats = service.stats()["persistence"]
        assert stats["compactions"] >= 1
        # Compaction resets the journal file.
        assert not default_journal_path(tmp_path / "state.vos").exists() or (
            default_journal_path(tmp_path / "state.vos").stat().st_size < 2000
        )

    def test_policy_is_inert_without_a_bound_snapshot(self):
        from repro.service import CheckpointPolicy, ServiceConfig, SimilarityService

        service = SimilarityService.from_config(
            ServiceConfig(
                expected_users=50,
                checkpoint=CheckpointPolicy(every_n_elements=1),
            )
        )
        service.ingest([StreamElement(1, i, Action.INSERT) for i in range(10)])
        assert service.stats()["persistence"]["deltas_written"] == 0
        assert service.stats()["persistence"]["snapshot_path"] is None

    def test_save_delta_requires_binding(self):
        from repro.exceptions import ConfigurationError
        from repro.service import ServiceConfig, SimilarityService

        service = SimilarityService.from_config(ServiceConfig(expected_users=10))
        with pytest.raises(ConfigurationError, match="bound"):
            service.save_delta()

    def test_stats_reports_dirty_state(self, tmp_path):
        service = self._service(tmp_path)
        dirty = service.stats()["persistence"]["dirty"]
        assert dirty == {"dirty_words": 0, "dirty_counters": 0}
        service.ingest([StreamElement(1, 123456, Action.INSERT)])
        dirty = service.stats()["persistence"]["dirty"]
        assert dirty["dirty_counters"] == 1
        assert dirty["dirty_words"] >= 0

    @pytest.mark.parametrize("version", [1, 2])
    def test_pre_v3_snapshot_is_refused_by_load(self, tmp_path, version):
        """A v1 or v2 file holds bits placed by the Carter-Wegman user family:
        loading it raises SnapshotError naming its version, never a service
        that would read those bits at double-hash positions."""
        import struct

        from repro.exceptions import SnapshotError
        from repro.service import ServiceConfig, SimilarityService
        from repro.service.snapshot import MAGIC, dumps_snapshot

        service = SimilarityService.from_config(
            ServiceConfig(expected_users=20, num_shards=2, seed=1)
        )
        service.ingest([StreamElement(1, i, Action.INSERT) for i in range(10)])
        blob = bytearray(dumps_snapshot(service.sketch))
        struct.pack_into("<I", blob, len(MAGIC), version)
        path = tmp_path / f"v{version}.vos"
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match=f"unsupported snapshot version {version}"):
            SimilarityService.load(path)

    def test_journal_bytes_reported_after_restart(self, tmp_path):
        from repro.service import SimilarityService

        service = self._service(tmp_path)
        service.ingest([StreamElement(1, 555555, Action.INSERT)])
        service.save_delta()
        journal_bytes = service.stats()["persistence"]["journal_bytes"]
        assert journal_bytes > 0
        restored = SimilarityService.load(tmp_path / "state.vos")
        assert restored.stats()["persistence"]["journal_bytes"] == journal_bytes
