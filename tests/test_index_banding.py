"""Tests for the LSH banding candidate index (:mod:`repro.index`)."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.memory import MemoryBudget
from repro.similarity.engine import build_sketch
from repro.core.vos import VirtualOddSketch, packed_row_bytes
from repro.exceptions import ConfigurationError, UnknownUserError
from repro.index import BandedSketchIndex, IndexConfig, required_bands
from repro.index.banding import _ShardSignatures, alpha_at_threshold
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.service import ServiceConfig, ShardedVOS, SimilarityService
from repro.similarity.search import (
    nearest_neighbours,
    pairs_above_threshold,
    top_k_similar_pairs,
)
from repro.streams.edge import Action, StreamElement


def clone_pool_elements(num_users=400, items_per_user=40, seed=11):
    """Every user paired with an identical clone: users (2i, 2i+1) share items."""
    rng = np.random.default_rng(seed)
    elements = []
    for pair in range(num_users // 2):
        items = rng.integers(0, 10**9, size=items_per_user)
        for user in (2 * pair, 2 * pair + 1):
            elements += [
                StreamElement(int(user), int(item), Action.INSERT) for item in items
            ]
    return elements


@pytest.fixture(scope="module")
def clone_vos():
    """A sparse single-array VOS holding 200 clone pairs."""
    vos = VirtualOddSketch(
        shared_array_bits=1 << 22, virtual_sketch_size=1024, seed=3
    )
    vos.process_batch(clone_pool_elements())
    return vos


@pytest.fixture(scope="module")
def clone_sharded():
    """The same clone workload hash-partitioned over four shards."""
    sketch = ShardedVOS(4, shard_array_bits=1 << 20, virtual_sketch_size=1024, seed=3)
    sketch.process_batch(clone_pool_elements())
    return sketch


class TestIndexConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            IndexConfig(bands=-1)
        with pytest.raises(ConfigurationError):
            IndexConfig(rows_per_band=0)
        with pytest.raises(ConfigurationError):
            IndexConfig(target_threshold=0.0)
        with pytest.raises(ConfigurationError):
            IndexConfig(confidence=1.0)
        with pytest.raises(ConfigurationError):
            IndexConfig(min_band_bits=0)

    def test_band_layout_must_fit_the_row(self, clone_vos):
        row_words = packed_row_bytes(clone_vos.virtual_sketch_size) // 8
        with pytest.raises(ConfigurationError):
            BandedSketchIndex(clone_vos, IndexConfig(rows_per_band=row_words + 1))
        with pytest.raises(ConfigurationError):
            BandedSketchIndex(clone_vos, IndexConfig(bands=row_words, rows_per_band=2))

    def test_rejects_sketches_without_packed_rows(self):
        budget = MemoryBudget(baseline_registers=8, num_users=10)
        with pytest.raises(ConfigurationError):
            BandedSketchIndex(build_sketch("MinHash", budget, seed=1))


class TestRequiredBands:
    def test_clamped_to_available(self):
        assert required_bands(0.5, 64, 16, 0.99, set_bit_fraction=0.05) == 16

    def test_monotone_in_confidence(self):
        low = required_bands(0.02, 64, 1024, 0.5, set_bit_fraction=0.05)
        high = required_bands(0.02, 64, 1024, 0.999, set_bit_fraction=0.05)
        assert 1 <= low <= high <= 1024

    def test_zero_density_uses_everything(self):
        assert required_bands(0.01, 64, 12, 0.9, set_bit_fraction=0.0) == 12

    def test_alpha_at_threshold_brackets(self):
        # Identical pair (threshold 1 would be the floor), dissimilar pair higher.
        near = alpha_at_threshold(0.99, 0.01, 0.01, 1024, 40.0)
        far = alpha_at_threshold(0.1, 0.01, 0.01, 1024, 40.0)
        assert 0.0 < near < far < 0.5


class TestCandidatePairs:
    def test_candidates_are_a_subset_of_all_pairs(self, clone_vos):
        pool = sorted(clone_vos.users())
        index = BandedSketchIndex(clone_vos)
        index_a, index_b = index.candidate_pairs(pool)
        n = len(pool)
        assert index_a.shape == index_b.shape
        assert (index_a < index_b).all()
        assert index_a.size == 0 or (0 <= index_a.min() and index_b.max() < n)
        assert index_a.size < n * (n - 1) // 2
        # No duplicates, lexicographic order.
        keys = index_a * n + index_b
        assert (np.diff(keys) > 0).all()

    def test_clone_pairs_are_proposed_and_ranked_identically(self, clone_vos):
        index = BandedSketchIndex(clone_vos)
        exact = top_k_similar_pairs(clone_vos, k=50)
        lsh = top_k_similar_pairs(clone_vos, k=50, candidates="lsh", index=index)
        assert [(p.user_a, p.user_b, p.jaccard) for p in exact] == [
            (p.user_a, p.user_b, p.jaccard) for p in lsh
        ]

    def test_candidates_deterministic_across_instances(self, clone_vos):
        pool = sorted(clone_vos.users())
        first = BandedSketchIndex(clone_vos).candidate_pairs(pool)
        second = BandedSketchIndex(clone_vos).candidate_pairs(pool)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_seed_changes_the_auto_banding(self, clone_vos):
        default_seed = BandedSketchIndex(clone_vos)
        override = BandedSketchIndex(clone_vos, IndexConfig(seed=99))
        assert default_seed.seed == clone_vos.seed
        assert override.seed == 99

    def test_pool_subset_restricts_ordinals(self, clone_vos):
        pool = sorted(clone_vos.users())[:40]
        index = BandedSketchIndex(clone_vos)
        index_a, index_b = index.candidate_pairs(pool)
        assert index_a.size == 0 or index_b.max() < len(pool)

    def test_unknown_pool_user_raises(self, clone_vos):
        index = BandedSketchIndex(clone_vos)
        with pytest.raises(UnknownUserError):
            index.candidate_pairs([0, 1, 10**9])

    def test_multi_word_bands_still_find_clones(self, clone_vos):
        index = BandedSketchIndex(clone_vos, IndexConfig(rows_per_band=2))
        pool = sorted(clone_vos.users())
        index_a, index_b = index.candidate_pairs(pool)
        proposed = set(zip(index_a.tolist(), index_b.tolist()))
        clone_hits = sum(
            1 for a in range(0, len(pool), 2) if (a, a + 1) in proposed
        )
        assert clone_hits >= 0.9 * (len(pool) // 2)

    def test_fixed_band_count_is_respected(self, clone_vos):
        index = BandedSketchIndex(clone_vos, IndexConfig(bands=4))
        index.refresh()
        assert index.bands == 4
        assert index.stats()["auto_bands"] is False


class TestBucketSizeMetric:
    def test_one_observation_per_query_with_every_band_size(self, clone_vos, monkeypatch):
        previous = get_registry()
        registry = set_registry(MetricsRegistry())
        try:
            names = []
            observe_many = registry.observe_many

            def recording(name, values, unit=""):
                names.append(name)
                observe_many(name, values, unit=unit)

            monkeypatch.setattr(registry, "observe_many", recording)
            index = BandedSketchIndex(clone_vos)
            pool = sorted(clone_vos.users())[:120]
            index.candidate_pairs(pool)
            index.candidate_pairs(pool)
            assert names.count("index.bucket_size") == 2
            # Per band with at least two entries: the sizes of its buckets.
            signatures, valid = index._gather(pool)
            sizes = np.concatenate(
                [
                    np.unique(signatures[valid[:, band], band], return_counts=True)[1]
                    for band in range(index.bands + 1)
                    if np.count_nonzero(valid[:, band]) >= 2
                ]
            )
            histogram = registry.snapshot()["histograms"]["index.bucket_size"]
            assert histogram["count"] == 2 * sizes.size
            assert histogram["sum"] == 2 * int(sizes.sum())
        finally:
            set_registry(previous)


class TestIncrementalMaintenance:
    def _loaded_index(self):
        vos = VirtualOddSketch(
            shared_array_bits=1 << 20, virtual_sketch_size=1024, seed=5
        )
        vos.process_batch(clone_pool_elements(num_users=100, seed=5))
        index = BandedSketchIndex(vos, IndexConfig(bands=16))
        index.refresh()
        return vos, index

    def test_refresh_is_a_noop_when_nothing_changed(self):
        _, index = self._loaded_index()
        before = index.stats()
        index.refresh()
        assert index.stats() == before

    def test_ingest_triggers_rebuild_on_demand(self):
        vos, index = self._loaded_index()
        before = index.stats()["rebuilds"]
        vos.process(StreamElement(1, 424242, Action.INSERT))
        index.refresh()
        assert index.stats()["rebuilds"] == before + 1

    def test_cancelling_batch_rebuilds_with_new_users(self):
        vos = VirtualOddSketch(
            shared_array_bits=1 << 16, virtual_sketch_size=1024, seed=5
        )
        index = BandedSketchIndex(vos, IndexConfig(bands=16))
        index.refresh()
        before = index.stats()
        stamp = vos.shared_array.latest_stamp
        # Insert+delete of one item cancels inside xor_bulk: no array word
        # changes, yet two brand-new users appeared, so the table rebuilds.
        vos.process_batch(
            [
                StreamElement(7001, 1, Action.INSERT),
                StreamElement(7001, 1, Action.DELETE),
                StreamElement(7002, 2, Action.INSERT),
                StreamElement(7002, 2, Action.DELETE),
            ]
        )
        assert vos.shared_array.latest_stamp == stamp
        index.refresh()
        after = index.stats()
        assert after["rebuilds"] == before["rebuilds"] + 1
        assert after["users_indexed"] == before["users_indexed"] + 2
        # The array is untouched, so both users recover identical (all-zero)
        # rows and must be co-candidates via the residual whole-row bucket.
        index_a, index_b = index.candidate_pairs([7001, 7002])
        assert (index_a.tolist(), index_b.tolist()) == ([0], [1])

    def test_stats_report_signature_memory(self):
        _, index = self._loaded_index()
        stats = index.stats()
        assert stats["signature_bytes"] > 0
        assert stats["users_indexed"] == 100
        assert stats["bands"] == 16
        (table,) = index.refresh()
        lookup = sum(
            array.nbytes
            for array in (
                table.bucket_signatures,
                table.bucket_rows,
                table.bucket_columns,
            )
        )
        assert lookup > 0
        # A table is its sorted entries: nothing else is charged.
        assert stats["signature_bytes"] == lookup
        assert table.rows == 100


class TestSharedShardTables:
    def test_indexes_of_two_layouts_sharing_shards_answer_exactly(self):
        """Two indexes whose layouts differ thrash the tables of the shards
        they share, as epochs with different band counts may; every answer
        must still be its own layout's, because a query reads the tables its
        refresh returned, never a table swapped in after."""
        sketch = ShardedVOS(2, shard_array_bits=1 << 16, virtual_sketch_size=512, seed=4)
        sketch.process_batch(clone_pool_elements(num_users=60, items_per_user=20))
        pool = set(sketch.users())
        targets = sorted(pool)[:6]
        configs = [IndexConfig(bands=2), IndexConfig(bands=4, min_band_bits=1)]
        expected = [
            [BandedSketchIndex(sketch, config).neighbour_candidates(t, pool) for t in targets]
            for config in configs
        ]
        errors: list[Exception] = []

        def reader(slot: int) -> None:
            index = BandedSketchIndex(sketch, configs[slot % 2])
            try:
                for _ in range(40):
                    got = [index.neighbour_candidates(t, pool) for t in targets]
                    assert got == expected[slot % 2]
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(6)]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestShardedIndex:
    def test_cross_shard_clone_pairs_are_proposed(self, clone_sharded):
        cross = [
            (2 * i, 2 * i + 1)
            for i in range(200)
            if clone_sharded.shard_of(2 * i) != clone_sharded.shard_of(2 * i + 1)
        ]
        assert cross, "workload should produce cross-shard clone pairs"
        pool = sorted(clone_sharded.users())
        index = BandedSketchIndex(clone_sharded)
        index_a, index_b = index.candidate_pairs(pool)
        proposed = set(zip(index_a.tolist(), index_b.tolist()))
        hits = sum(
            1 for a, b in cross if (pool.index(a), pool.index(b)) in proposed
        )
        assert hits >= 0.9 * len(cross)

    def test_sharded_search_matches_exact_ranking(self, clone_sharded):
        exact = top_k_similar_pairs(clone_sharded, k=40)
        lsh = top_k_similar_pairs(clone_sharded, k=40, candidates="lsh")
        assert [(p.user_a, p.user_b, p.jaccard) for p in exact] == [
            (p.user_a, p.user_b, p.jaccard) for p in lsh
        ]

    def test_one_signature_table_per_shard(self, clone_sharded):
        index = BandedSketchIndex(clone_sharded)
        index.refresh()
        stats = index.stats()
        assert stats["shards"] == 4
        assert stats["users_indexed"] == len(clone_sharded.users())


class TestSearchIntegration:
    def test_invalid_candidates_mode_raises(self, clone_vos):
        with pytest.raises(ConfigurationError):
            top_k_similar_pairs(clone_vos, k=5, candidates="bogus")
        # Validated eagerly: a typo fails even on a pool too small to search.
        with pytest.raises(ConfigurationError):
            top_k_similar_pairs(clone_vos, k=5, candidates="bogus", users=[])
        with pytest.raises(ConfigurationError):
            pairs_above_threshold(clone_vos, 0.5, candidates="bogus", users=[])

    def test_pairs_above_threshold_lsh_subset_of_exhaustive(self, clone_vos):
        exhaustive = pairs_above_threshold(clone_vos, 0.8)
        lsh = pairs_above_threshold(clone_vos, 0.8, candidates="lsh")
        exhaustive_keys = {(p.user_a, p.user_b) for p in exhaustive}
        lsh_keys = {(p.user_a, p.user_b) for p in lsh}
        assert lsh_keys <= exhaustive_keys
        assert len(lsh_keys) >= 0.95 * len(exhaustive_keys)

    def test_nearest_neighbours_with_index_finds_clone(self, clone_vos):
        index = BandedSketchIndex(clone_vos)
        results = nearest_neighbours(clone_vos, 0, k=3, index=index)
        assert results and results[0].user_b == 1

    def test_neighbour_candidates_subset_and_excludes_target(self, clone_vos):
        index = BandedSketchIndex(clone_vos)
        pool = sorted(clone_vos.users())
        neighbours = index.neighbour_candidates(0, pool)
        assert 0 not in neighbours
        assert set(neighbours) <= set(pool)
        assert 1 in neighbours
        assert index.stats()["last_neighbour_candidates"] == len(neighbours)

    def test_neighbour_candidates_pool_is_a_filter(self, clone_vos):
        index = BandedSketchIndex(clone_vos)
        everyone = index.neighbour_candidates(0, set(clone_vos.users()))
        assert everyone == sorted(everyone)
        # Users outside the sketch may sit in the pool; only bucket mates of
        # the target that the pool admits come back.
        assert index.neighbour_candidates(0, {1, 10**12}) == [1]
        assert index.neighbour_candidates(0, set()) == []
        with pytest.raises(UnknownUserError):
            index.neighbour_candidates(10**12, {1})

    def test_bucket_lookup_drops_hits_from_other_columns(self):
        # Rows 0 and 1 hold the same two signatures in swapped columns, so
        # they share no bucket; row 2 shares column 0 with row 0.
        table = _ShardSignatures.of(
            np.array([[5, 7], [7, 5], [5, 9]], dtype=np.uint64),
            np.ones((3, 2), dtype=bool),
        )
        mates = table.bucket_mates(
            np.array([5, 7], dtype=np.uint64), np.array([0, 1])
        )
        assert mates.tolist() == [0, 2]

    def test_lsh_nearest_scans_no_user_pool(self, monkeypatch):
        """An LSH ``nearest`` costs O(candidates), not O(users), and answers
        exactly what the exhaustive scan of its candidates answers."""
        sketch = ShardedVOS(
            4, shard_array_bits=1 << 20, virtual_sketch_size=1024, seed=3
        )
        sketch.process_batch(clone_pool_elements(num_users=2000))
        index = BandedSketchIndex(sketch)
        nearest_neighbours(sketch, 0, k=5, index=index)  # warm the tables
        targets = range(0, 40, 2)
        pool = set(range(2000))
        expected = {
            target: nearest_neighbours(
                sketch, target, k=5, candidates=index.neighbour_candidates(target, pool)
            )
            for target in targets
        }
        calls = {"cardinality": 0, "users": 0, "gather": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            ShardedVOS, "cardinality", counting("cardinality", ShardedVOS.cardinality)
        )
        monkeypatch.setattr(ShardedVOS, "users", counting("users", ShardedVOS.users))
        monkeypatch.setattr(
            VirtualOddSketch, "users", counting("users", VirtualOddSketch.users)
        )
        monkeypatch.setattr(
            BandedSketchIndex, "_gather", counting("gather", BandedSketchIndex._gather)
        )
        clones_first = 0
        for target in targets:
            calls.update(cardinality=0, users=0, gather=0)
            results = nearest_neighbours(sketch, target, k=5, index=index)
            assert results == expected[target], target
            candidates = index.stats()["last_neighbour_candidates"]
            assert candidates < 100
            assert calls["cardinality"] <= candidates + 1
            assert calls["users"] == 0
            assert calls["gather"] == 0
            clones_first += bool(results) and results[0].user_b == target + 1
        # Whether a clone shares a band bucket is chance at this sparse
        # geometry (~70% of clone pairs under either hash family), so the
        # answers are checked against the candidate scan above; some of them
        # find their clone first.
        assert clones_first > 0


class TestServiceIntegration:
    @pytest.fixture()
    def service(self):
        # Provisioned with headroom (2000 expected users, 200 ingested) so the
        # shared arrays stay sparse enough for high banding recall.
        config = ServiceConfig(
            expected_users=2000, baseline_registers=64, num_shards=2, seed=9
        )
        service = SimilarityService.from_config(config)
        service.ingest(clone_pool_elements(num_users=200, items_per_user=60, seed=9))
        return service

    def test_index_config_flows_from_service_config(self, service):
        index = service.index()
        assert index.config == IndexConfig()
        assert index.seed == 9  # inherited from ServiceConfig.seed via the sketch

    def test_stats_expose_index_counters_after_lsh_query(self, service):
        assert service.stats()["index"] is None
        service.top_k_pairs(k=5, candidates="lsh")
        index_stats = service.stats()["index"]
        assert index_stats is not None
        assert index_stats["last_candidate_pairs"] is not None
        # A pair search keys its pool from packed rows: it builds no table.
        assert index_stats["signature_bytes"] == index_stats["rebuilds"] == 0
        service.top_k(0, k=5, index="lsh")
        index_stats = service.stats()["index"]
        assert index_stats["signature_bytes"] > 0
        assert index_stats["rebuilds"] == 2  # one per shard

    def test_lsh_top_k_pairs_matches_exhaustive(self, service):
        exact = service.top_k_pairs(k=20)
        lsh = service.top_k_pairs(k=20, candidates="lsh")
        assert [(p.user_a, p.user_b) for p in lsh] == [
            (p.user_a, p.user_b) for p in exact
        ]

    def test_pairs_above_and_lsh_topk_user(self, service):
        screened = {(p.user_a, p.user_b) for p in service.pairs_above(0.9, candidates="lsh")}
        clones = {(2 * i, 2 * i + 1) for i in range(100)}
        # Banding recall is a probability, so which clone pairs share a band
        # bucket changes with the hash family.  The Carter-Wegman family this
        # sketch used before screened 85 of the 100 clone pairs here (84-94
        # over seeds 9-16; the double-hash family 90-94): no fewer may pass.
        assert len(screened & clones) >= 85
        assert screened <= {
            (p.user_a, p.user_b) for p in service.pairs_above(0.9)
        }
        neighbours = service.top_k(0, k=1, index="lsh")
        assert neighbours and neighbours[0].user_b == 1
        with pytest.raises(ConfigurationError):
            service.top_k(0, index="bogus")

    def test_index_survives_snapshot_round_trip(self, service, tmp_path):
        path = tmp_path / "state.vos"
        before = service.top_k_pairs(k=10, candidates="lsh")
        service.save(path)
        restored = SimilarityService.load(path)
        after = restored.top_k_pairs(k=10, candidates="lsh")
        assert [(p.user_a, p.user_b, p.jaccard) for p in before] == [
            (p.user_a, p.user_b, p.jaccard) for p in after
        ]


class TestIdenticalRowsGuarantee:
    def test_identical_rows_always_co_candidates(self):
        """Users whose packed rows are equal share every band, hence a bucket.

        A huge array over a 10-user population makes cross-contamination so
        unlikely that the clone pairs recover literally identical rows.
        """
        vos = VirtualOddSketch(
            shared_array_bits=1 << 24, virtual_sketch_size=1024, seed=2
        )
        vos.process_batch(clone_pool_elements(num_users=10, seed=2))
        pool = sorted(vos.users())
        rows = vos.packed_rows(pool)
        identical = [
            (i, i + 1)
            for i in range(0, len(pool), 2)
            if np.array_equal(rows[i], rows[i + 1])
        ]
        assert identical, "a near-empty array should leave clone rows identical"
        for config in (
            IndexConfig(),
            IndexConfig(bands=3, seed=123),
            IndexConfig(rows_per_band=4, seed=7),
            IndexConfig(min_band_bits=1),
            IndexConfig(bands=16, min_band_bits=5, seed=42),
        ):
            index = BandedSketchIndex(vos, config)
            index_a, index_b = index.candidate_pairs(pool)
            proposed = set(zip(index_a.tolist(), index_b.tolist()))
            for i, j in identical:
                assert (i, j) in proposed, (config, i, j)

class TestIndexPersistence:
    """export_state/restore_state and the snapshot section codec."""

    def test_state_round_trips_through_section_bytes(self, clone_vos):
        from repro.index import decode_index_state, encode_index_state
        from repro.service.snapshot import dumps_snapshot, loads_snapshot

        index = BandedSketchIndex(clone_vos)
        pool = sorted(clone_vos.users())
        live_a, live_b = index.candidate_pairs(pool)
        state = decode_index_state(encode_index_state(index.export_state()))

        restored_sketch = loads_snapshot(dumps_snapshot(clone_vos))
        restored_index = BandedSketchIndex(restored_sketch)
        assert restored_index.restore_state(state) is True
        assert restored_index.stats()["restored"] == 1
        got_a, got_b = restored_index.candidate_pairs(pool)
        assert got_a.tolist() == live_a.tolist()
        assert got_b.tolist() == live_b.tolist()
        # The restored tables answered without any signature rebuild.
        assert restored_index.stats()["rebuilds"] == 0

    def test_cold_candidate_pairs_build_no_table(self, clone_sharded):
        """A pair search keys its pool from packed rows: no shard's table is
        built, and the pairs equal those of an index whose tables are built."""
        from repro.service.snapshot import dumps_snapshot, loads_snapshot

        pool = sorted(clone_sharded.users())[:192]
        cold_sketch = loads_snapshot(dumps_snapshot(clone_sharded))
        cold = BandedSketchIndex(cold_sketch)
        got_a, got_b = cold.candidate_pairs(pool)
        assert cold.stats()["rebuilds"] == 0
        assert all(shard.index_table is None for shard in cold_sketch.row_shards())
        warm = BandedSketchIndex(loads_snapshot(dumps_snapshot(clone_sharded)))
        warm.refresh()
        live_a, live_b = warm.candidate_pairs(pool)
        assert got_a.size > 0
        assert (got_a.tolist(), got_b.tolist()) == (live_a.tolist(), live_b.tolist())

    def test_restore_rejects_mismatched_layouts(self, clone_vos):
        index = BandedSketchIndex(clone_vos, IndexConfig(bands=4))
        index.build()
        state = index.export_state()
        other = BandedSketchIndex(clone_vos, IndexConfig(bands=6))
        assert other.restore_state(state) is False
        wrong_seed = BandedSketchIndex(clone_vos, IndexConfig(bands=4, seed=999))
        assert wrong_seed.restore_state(state) is False
        wrong_width = BandedSketchIndex(
            clone_vos, IndexConfig(bands=4, rows_per_band=2)
        )
        assert wrong_width.restore_state(state) is False

    def test_shard_written_after_restore_rebuilds_on_demand(self, clone_sharded):
        from repro.service.snapshot import dumps_snapshot, loads_snapshot

        config = IndexConfig(bands=4)
        live_sketch = loads_snapshot(dumps_snapshot(clone_sharded))
        index = BandedSketchIndex(live_sketch, config)
        state = index.export_state()
        restored_sketch = loads_snapshot(dumps_snapshot(live_sketch))
        restored_index = BandedSketchIndex(restored_sketch, config)
        assert restored_index.restore_state(state) is True
        assert restored_index.stats()["restored"] == clone_sharded.num_shards
        # A write landing after the restore, as journal replay makes, moves
        # shard 1's change stamp: its restored table no longer describes it.
        pool = sorted(clone_sharded.users())
        user = next(user for user in pool if clone_sharded.shard_of(user) == 1)
        for sketch in (live_sketch, restored_sketch):
            sketch.process(StreamElement(user, 10**6, Action.INSERT))
        for target in (user, pool[0], pool[1]):
            assert restored_index.neighbour_candidates(target, set(pool)) == (
                index.neighbour_candidates(target, set(pool))
            )
        # Exactly the written shard's table was rebuilt.
        assert restored_index.stats()["rebuilds"] == 1

    def test_restored_table_missing_a_user_rebuilds(self, clone_vos):
        index = BandedSketchIndex(clone_vos)
        pool = sorted(clone_vos.users())
        live_a, live_b = index.candidate_pairs(pool)
        state = index.export_state()
        # A table persisted one user short of its shard (the last row, user
        # 399, whose clone is 398) must not be adopted as fresh.
        entry = state["shards"][0]
        missing = entry["users"][-1]
        short = {
            "users": entry["users"][:-1],
            "signatures": entry["signatures"][:-1],
            "valid": entry["valid"][:-1],
        }
        restored = BandedSketchIndex(clone_vos)
        assert restored.restore_state(dict(state, shards=[short])) is True
        assert restored.stats()["restored"] == 1
        got_a, got_b = restored.candidate_pairs(pool)
        assert got_a.tolist() == live_a.tolist()
        assert got_b.tolist() == live_b.tolist()
        assert missing in restored.neighbour_candidates(missing - 1, pool)
        assert restored.stats()["rebuilds"] == 1
        assert restored.stats()["users_indexed"] == len(pool)

    def test_section_naming_a_user_the_shard_lacks_is_not_adopted(self, tmp_path):
        from repro.index import INDEX_SNAPSHOT_SECTION
        from repro.service.snapshot import dumps_snapshot

        service = SimilarityService.from_config(
            ServiceConfig(expected_users=200, num_shards=2, seed=6)
        )
        service.ingest(clone_pool_elements(num_users=120))
        state = service.index().export_state()
        # A CRC-valid section whose column names 999999 in place of user 11.
        home = service.sketch.shard_of(11)
        users = state["shards"][home]["users"]
        users[users.index(11)] = 999999
        path = tmp_path / "state.vos"
        path.write_bytes(
            dumps_snapshot(service.sketch, extras={INDEX_SNAPSHOT_SECTION: state})
        )
        restored = SimilarityService.load(path)
        assert restored.stats()["index"]["restored"] == 1
        fresh = SimilarityService.from_state_bytes(
            service.dumps_state(include_index=False)
        )
        answers = {user: fresh.top_k(user, k=5, index="lsh") for user in range(120)}
        # Both shards' tables answer something: the corrupted one (11's) and
        # the restored one.
        assert answers[11]
        assert any(answers[user] for user in answers if service.sketch.shard_of(user) != home)
        for user, expected in answers.items():
            assert restored.top_k(user, k=5, index="lsh") == expected
        assert restored.stats()["index"]["rebuilds"] == 1

    def test_cancelled_batch_restart_rebuilds_one_shard(self, tmp_path):
        service = SimilarityService.from_config(
            ServiceConfig(expected_users=200, num_shards=4, seed=6)
        )
        service.ingest(clone_pool_elements(num_users=120))
        service.top_k_pairs(k=10, candidates="lsh")
        path = tmp_path / "state.vos"
        service.save(path)
        # A new user inserts and deletes one item in one batch: its shard's
        # counters change but no array word does.
        service.ingest(
            [
                StreamElement(9001, 5, Action.INSERT),
                StreamElement(9001, 5, Action.DELETE),
            ]
        )
        assert service.save_delta()["records"] == 1
        restored = SimilarityService.load(path)
        # Every persisted table is attached; the replayed record adds a user
        # to one shard, so that shard's table fails its key check.
        assert restored.stats()["index"]["restored"] == 4
        assert restored.top_k_pairs(k=10, candidates="lsh") == service.top_k_pairs(
            k=10, candidates="lsh"
        )
        for user in (0, 1, 57, 9001):
            assert restored.top_k(user, k=5, index="lsh") == service.top_k(
                user, k=5, index="lsh"
            )
        assert restored.stats()["index"]["rebuilds"] == 1
        assert restored.stats()["index"]["users_indexed"] == 121

    def test_service_save_load_restores_index(self, tmp_path):
        from repro.service import ServiceConfig, SimilarityService

        service = SimilarityService.from_config(
            ServiceConfig(expected_users=200, num_shards=4, seed=6)
        )
        service.ingest(clone_pool_elements(num_users=120))
        before = service.top_k_pairs(k=10, candidates="lsh")
        path = tmp_path / "state.vos"
        service.save(path)  # index is built, so it is persisted automatically
        restored = SimilarityService.load(path)
        stats = restored.stats()
        assert stats["index"] is not None
        assert stats["index"]["restored"] == 4
        after = restored.top_k_pairs(k=10, candidates="lsh")
        assert [(p.user_a, p.user_b, p.jaccard) for p in before] == [
            (p.user_a, p.user_b, p.jaccard) for p in after
        ]
        assert restored.stats()["index"]["rebuilds"] == 0
