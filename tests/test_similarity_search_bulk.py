"""Parity tests for the vectorized query path.

The contract of the bulk query API and the rewritten search functions is
*bit-identical results*: for every sketch in the registry, scoring candidate
pairs through ``estimate_jaccard_many`` / ``estimate_pairs`` and ranking them
through the vectorized search functions must return exactly what a per-pair
loop over the scalar estimators returns — same pairs, same order, same floats.
The reference implementations below are deliberately naive Python loops.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.baselines.exact import ExactSimilarityTracker
from repro.core.memory import MemoryBudget
from repro.core.vos import VirtualOddSketch
from repro.service import SimilarityService
from repro.service.sharding import ShardedVOS
from repro.similarity.engine import sketch_registry
from repro.similarity.search import (
    nearest_neighbours,
    pairs_above_threshold,
    top_k_similar_pairs,
)
from repro.streams.edge import Action, StreamElement

BUDGET = MemoryBudget(baseline_registers=16, num_users=80)


@pytest.fixture(scope="module", params=sorted(sketch_registry()))
def loaded_sketch(request, small_dynamic_stream_module):
    """Every registry sketch, loaded with the same small dynamic stream."""
    sketch = sketch_registry()[request.param](BUDGET, 11)
    sketch.process_batch(small_dynamic_stream_module)
    return sketch


@pytest.fixture(scope="module")
def small_dynamic_stream_module():
    # Module-local copy of the conftest stream recipe so this module can use
    # module-scoped sketch fixtures without touching the session fixture.
    from repro.streams.deletions import MassiveDeletionModel
    from repro.streams.generators import PowerLawBipartiteGenerator
    from repro.streams.stream import build_dynamic_stream

    generator = PowerLawBipartiteGenerator(
        num_users=80, num_items=300, num_edges=4000, seed=7
    )
    model = MassiveDeletionModel(period=1000, deletion_probability=0.5, seed=8)
    return list(
        build_dynamic_stream(generator.generate_edges(), model, name="bulk-parity")
    )


def _sort_key(user):
    return (type(user).__name__, user)


def _candidates(sketch, minimum_cardinality=1):
    return sorted(
        (u for u in sketch.users() if sketch.cardinality(u) >= minimum_cardinality),
        key=_sort_key,
    )


def _loop_top_k(sketch, *, k, minimum_cardinality=1, prefilter_threshold=0.0):
    """Reference per-pair-loop top-k with the same deterministic tie rule."""
    candidates = _candidates(sketch, minimum_cardinality)
    scored = []
    for (i, a), (j, b) in combinations(enumerate(candidates), 2):
        if prefilter_threshold > 0.0:
            size_a, size_b = sketch.cardinality(a), sketch.cardinality(b)
            if size_a == 0 or size_b == 0:
                continue
            if min(size_a, size_b) / max(size_a, size_b) < prefilter_threshold:
                continue
        scored.append((-sketch.estimate_jaccard(a, b), i, j))
    scored.sort()
    return [
        (
            candidates[i],
            candidates[j],
            -neg_jaccard,
            sketch.estimate_common_items(candidates[i], candidates[j]),
        )
        for neg_jaccard, i, j in scored[:k]
    ]


def _loop_nearest(sketch, target, *, k):
    candidates = _candidates(sketch)
    scored = [
        (-sketch.estimate_jaccard(target, other), position)
        for position, other in enumerate(candidates)
        if other != target
    ]
    scored.sort()
    return [
        (
            target,
            candidates[position],
            -neg_jaccard,
            sketch.estimate_common_items(target, candidates[position]),
        )
        for neg_jaccard, position in scored[:k]
    ]


def _loop_above_threshold(sketch, threshold, *, use_prefilter=True):
    candidates = _candidates(sketch)
    scored = []
    for (i, a), (j, b) in combinations(enumerate(candidates), 2):
        if use_prefilter and threshold > 0.0:
            size_a, size_b = sketch.cardinality(a), sketch.cardinality(b)
            if size_a == 0 or size_b == 0:
                continue
            if min(size_a, size_b) / max(size_a, size_b) < threshold:
                continue
        jaccard = sketch.estimate_jaccard(a, b)
        if jaccard >= threshold:
            scored.append((-jaccard, i, j))
    scored.sort()
    return [
        (
            candidates[i],
            candidates[j],
            -neg_jaccard,
            sketch.estimate_common_items(candidates[i], candidates[j]),
        )
        for neg_jaccard, i, j in scored
    ]


def _as_tuples(pairs):
    return [(p.user_a, p.user_b, p.jaccard, p.common_items) for p in pairs]


class TestBulkEstimateParity:
    def test_jaccard_many_matches_scalar_loop(self, loaded_sketch):
        users = _candidates(loaded_sketch)[:40]
        pairs = list(combinations(users, 2))
        bulk = loaded_sketch.estimate_jaccard_many(
            [a for a, _ in pairs], [b for _, b in pairs]
        )
        loop = np.array([loaded_sketch.estimate_jaccard(a, b) for a, b in pairs])
        assert np.array_equal(bulk, loop)

    def test_common_items_many_matches_scalar_loop(self, loaded_sketch):
        users = _candidates(loaded_sketch)[:40]
        pairs = list(combinations(users, 2))
        bulk = loaded_sketch.estimate_common_items_many(
            [a for a, _ in pairs], [b for _, b in pairs]
        )
        loop = np.array([loaded_sketch.estimate_common_items(a, b) for a, b in pairs])
        assert np.array_equal(bulk, loop)

    def test_estimate_pairs_matches_estimate_pair(self, loaded_sketch):
        users = _candidates(loaded_sketch)[:25]
        pairs = list(combinations(users, 2))
        bulk = loaded_sketch.estimate_pairs(pairs)
        for (a, b), estimate in zip(pairs, bulk):
            scalar = loaded_sketch.estimate_pair(a, b)
            assert estimate == scalar

    def test_empty_pair_list(self, loaded_sketch):
        assert loaded_sketch.estimate_pairs([]) == []
        assert loaded_sketch.estimate_jaccard_many([], []).shape == (0,)

    def test_mismatched_index_lengths_raise(self, loaded_sketch):
        from repro.exceptions import ConfigurationError

        users = _candidates(loaded_sketch)[:3]
        with pytest.raises(ConfigurationError):
            loaded_sketch.estimate_jaccard_indexed(users, [0, 1], [1, 2, 0])
        with pytest.raises(ConfigurationError):
            loaded_sketch.estimate_common_items_indexed(users, [0, 1, 2], [1])
        with pytest.raises(ConfigurationError):
            loaded_sketch.estimate_jaccard_many(users, users[:2])

    def test_popcount_table_fallback_matches_native(
        self, small_dynamic_stream_module, monkeypatch
    ):
        """The numpy<2.0 byte-table popcount must agree with np.bitwise_count."""
        import repro.kernels.numpy_tier as numpy_tier

        if not hasattr(np, "bitwise_count"):
            pytest.skip("numpy < 2.0: the table IS the active implementation")
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2**63, size=(40, 24), dtype=np.uint64)
        table = numpy_tier._popcount_table(words).sum(axis=1, dtype=np.int64)
        native = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        assert np.array_equal(table, native)

        sketch = VirtualOddSketch.from_budget(BUDGET, seed=11)
        sketch.process_batch(small_dynamic_stream_module)
        users = _candidates(sketch)[:20]
        pairs = list(combinations(users, 2))
        columns = ([a for a, _ in pairs], [b for _, b in pairs])
        native_result = sketch.estimate_jaccard_many(*columns)
        # The kernel dispatch lives in repro.kernels now; pin it to the NumPy
        # tier and swap in the byte table so the fallback actually runs.
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        monkeypatch.setattr(
            numpy_tier, "_bitwise_count", numpy_tier._popcount_table
        )
        assert np.array_equal(sketch.estimate_jaccard_many(*columns), native_result)


class TestSearchParity:
    def test_top_k_matches_loop(self, loaded_sketch):
        vectorized = _as_tuples(top_k_similar_pairs(loaded_sketch, k=15))
        assert vectorized == _loop_top_k(loaded_sketch, k=15)

    def test_top_k_matches_loop_with_prefilter(self, loaded_sketch):
        vectorized = _as_tuples(
            top_k_similar_pairs(loaded_sketch, k=15, prefilter_threshold=0.3)
        )
        assert vectorized == _loop_top_k(loaded_sketch, k=15, prefilter_threshold=0.3)

    def test_top_k_matches_loop_with_minimum_cardinality(self, loaded_sketch):
        vectorized = _as_tuples(
            top_k_similar_pairs(loaded_sketch, k=10, minimum_cardinality=5)
        )
        assert vectorized == _loop_top_k(loaded_sketch, k=10, minimum_cardinality=5)

    def test_nearest_neighbours_matches_loop(self, loaded_sketch):
        target = _candidates(loaded_sketch)[0]
        vectorized = _as_tuples(nearest_neighbours(loaded_sketch, target, k=12))
        assert vectorized == _loop_nearest(loaded_sketch, target, k=12)

    def test_pairs_above_threshold_matches_loop(self, loaded_sketch):
        for use_prefilter in (True, False):
            vectorized = _as_tuples(
                pairs_above_threshold(
                    loaded_sketch, 0.25, use_prefilter=use_prefilter
                )
            )
            assert vectorized == _loop_above_threshold(
                loaded_sketch, 0.25, use_prefilter=use_prefilter
            )


class TestBlockedEnumeration:
    """The searches stream pair blocks; tiny blocks must not change results."""

    def test_multi_block_results_identical(
        self, small_dynamic_stream_module, monkeypatch
    ):
        import repro.similarity.search as search_module

        sketch = VirtualOddSketch.from_budget(BUDGET, seed=11)
        sketch.process_batch(small_dynamic_stream_module)
        single_top = top_k_similar_pairs(sketch, k=20)
        single_above = pairs_above_threshold(sketch, 0.2)
        monkeypatch.setattr(search_module, "SEARCH_PAIR_BLOCK", 37)
        assert _as_tuples(top_k_similar_pairs(sketch, k=20)) == _as_tuples(single_top)
        assert _as_tuples(pairs_above_threshold(sketch, 0.2)) == _as_tuples(
            single_above
        )

    def test_block_iterator_covers_every_pair_once(self):
        import repro.similarity.search as search_module

        for n in (2, 3, 7, 50):
            seen = []
            for ia, ib in search_module._iter_pair_blocks(n, block_pairs=11):
                assert ia.shape == ib.shape
                assert np.all(ia < ib)
                seen.extend(zip(ia.tolist(), ib.tolist()))
            assert seen == [(i, j) for i in range(n) for j in range(i + 1, n)]


class TestMixedIdentifierTypes:
    """The heap/sort tiebreakers must never compare raw mixed-type user ids."""

    @pytest.fixture()
    def mixed_tracker(self):
        tracker = ExactSimilarityTracker()
        sets = {
            1: set(range(10)),
            "a": set(range(8)),
            2: set(range(5, 15)),
            "b": set(range(3)) | {99},
        }
        for user, items in sets.items():
            for item in items:
                tracker.process(StreamElement(user, item, Action.INSERT))
        return tracker

    def test_top_k_handles_mixed_ids(self, mixed_tracker):
        results = top_k_similar_pairs(mixed_tracker, k=10)
        assert len(results) == 6
        # Deterministic: repeat and compare.
        assert _as_tuples(results) == _as_tuples(top_k_similar_pairs(mixed_tracker, k=10))

    def test_equal_jaccard_ties_do_not_raise(self, mixed_tracker):
        # All four users share item 1000 -> several exactly-tied pairs.
        for user in (1, "a", 2, "b"):
            mixed_tracker.process(StreamElement(user, 1000, Action.INSERT))
        results = pairs_above_threshold(mixed_tracker, 0.0, use_prefilter=False)
        assert len(results) == 6

    def test_nearest_neighbours_handles_mixed_ids(self, mixed_tracker):
        results = nearest_neighbours(mixed_tracker, "a", k=3)
        assert [pair.user_a for pair in results] == ["a", "a", "a"]


class TestSketchRowCache:
    def _loaded(self, stream, **kwargs):
        sketch = VirtualOddSketch.from_budget(BUDGET, seed=11, **kwargs)
        sketch.process_batch(stream)
        return sketch

    def test_cache_hits_on_repeat_queries(self, small_dynamic_stream_module):
        sketch = self._loaded(small_dynamic_stream_module)
        users = _candidates(sketch)[:20]
        pairs = list(combinations(users, 2))
        sketch.estimate_jaccard_many([a for a, _ in pairs], [b for _, b in pairs])
        first = sketch.sketch_cache_info()
        assert first["misses"] == len(users)
        sketch.estimate_jaccard_many([a for a, _ in pairs], [b for _, b in pairs])
        second = sketch.sketch_cache_info()
        assert second["hits"] == first["hits"] + len(users)
        assert second["misses"] == first["misses"]

    def test_cache_invalidated_by_ingest(self, small_dynamic_stream_module):
        sketch = self._loaded(small_dynamic_stream_module)
        users = _candidates(sketch)[:10]
        pairs = list(combinations(users, 2))
        columns = ([a for a, _ in pairs], [b for _, b in pairs])
        sketch.estimate_jaccard_many(*columns)
        assert sketch.sketch_cache_info()["entries"] == len(users)
        # A write (even a single element) must invalidate memoised rows ...
        sketch.process(StreamElement(users[0], 987654, Action.INSERT))
        assert sketch.sketch_cache_info()["entries"] == len(users)
        misses_before = sketch.sketch_cache_info()["misses"]
        fresh = sketch.estimate_jaccard_many(*columns)
        assert sketch.sketch_cache_info()["misses"] == misses_before + len(users)
        cold = VirtualOddSketch.from_budget(BUDGET, seed=11)
        cold.process_batch(small_dynamic_stream_module)
        cold.process(StreamElement(users[0], 987654, Action.INSERT))
        # ... so the memoising sketch agrees bitwise with a cold replay.
        assert np.array_equal(fresh, cold.estimate_jaccard_many(*columns))
        assert cold.sketch_cache_info()["hits"] == 0

    def test_memoised_rows_match_cold_reads(self, small_dynamic_stream_module):
        warm = self._loaded(small_dynamic_stream_module)
        users = _candidates(warm)
        pairs = list(combinations(users[:30], 2))
        columns = ([a for a, _ in pairs], [b for _, b in pairs])
        warm.estimate_jaccard_many(*columns)
        served = warm.estimate_jaccard_many(*columns)
        assert warm.sketch_cache_info()["hits"] == 30
        cold = self._loaded(small_dynamic_stream_module)
        assert np.array_equal(served, cold.estimate_jaccard_many(*columns))
        assert cold.sketch_cache_info() == {"entries": 30, "hits": 0, "misses": 30}

    def test_index_refresh_rows_are_hits_for_the_next_query(
        self, small_dynamic_stream_module
    ):
        """Rows an LSH rebuild recovers land in the memo the queries read."""
        service = SimilarityService(ShardedVOS.from_budget(BUDGET, num_shards=2, seed=11))
        service.ingest(small_dynamic_stream_module)
        sketch = service.sketch
        service.index().refresh()
        after_refresh = sketch.sketch_cache_info()
        assert after_refresh["misses"] == len(sketch.users())
        assert after_refresh["entries"] == len(sketch.users())
        users = _candidates(sketch)[:12]
        estimates = service.estimate_many(combinations(users, 2))
        info = sketch.sketch_cache_info()
        assert info["hits"] == after_refresh["hits"] + len(users)
        assert info["misses"] == after_refresh["misses"]
        cold = ShardedVOS.from_budget(BUDGET, num_shards=2, seed=11)
        cold.process_batch(small_dynamic_stream_module)
        assert estimates == cold.estimate_pairs(combinations(users, 2))

    def test_sketch_matrix_rows_match_virtual_sketch(self, small_dynamic_stream_module):
        sketch = self._loaded(small_dynamic_stream_module)
        users = _candidates(sketch)[:15]
        matrix = sketch.sketch_matrix(users)
        assert matrix.shape == (len(users), sketch.virtual_sketch_size)
        for row, user in enumerate(users):
            assert np.array_equal(matrix[row], sketch.virtual_sketch(user))

    def test_sharded_cache_info_aggregates(self, small_dynamic_stream_module):
        sketch = ShardedVOS.from_budget(BUDGET, num_shards=4, seed=11)
        sketch.process_batch(small_dynamic_stream_module)
        users = _candidates(sketch)[:20]
        pairs = list(combinations(users, 2))
        sketch.estimate_jaccard_many([a for a, _ in pairs], [b for _, b in pairs])
        info = sketch.sketch_cache_info()
        assert info["misses"] == len(users)
        assert info["entries"] == len(users)

    def test_cache_invalidated_by_pure_deletion_batch(self, small_dynamic_stream_module):
        """The xor_bulk delete path must advance the change stamp like inserts do."""
        extra_items = (987654, 987655, 987656)
        sketch = self._loaded(small_dynamic_stream_module)
        users = _candidates(sketch)[:10]
        inserts = [StreamElement(users[0], item, Action.INSERT) for item in extra_items]
        sketch.process_batch(inserts)
        pairs = list(combinations(users, 2))
        columns = ([a for a, _ in pairs], [b for _, b in pairs])
        sketch.estimate_jaccard_many(*columns)
        assert sketch.sketch_cache_info()["entries"] == len(users)
        stamp_before = sketch.shared_array.latest_stamp
        deletions = [
            StreamElement(users[0], item, Action.DELETE) for item in extra_items
        ]
        sketch.process_batch(deletions)
        assert sketch.shared_array.latest_stamp > stamp_before
        fresh = sketch.estimate_jaccard_many(*columns)
        cold = VirtualOddSketch.from_budget(BUDGET, seed=11)
        cold.process_batch(small_dynamic_stream_module)
        cold.process_batch(inserts)
        cold.process_batch(deletions)
        assert np.array_equal(fresh, cold.estimate_jaccard_many(*columns))

    def test_cancelling_deletion_batch_keeps_cached_rows_valid(
        self, small_dynamic_stream_module
    ):
        """Insert+delete of the same item in one batch flips no bit: rows stay hot.

        ``xor_bulk`` folds the two toggles modulo 2, flips nothing and leaves
        the change stamp untouched — so the cached rows are still exactly
        what a cold recovery would return, and the second query may serve
        every row from the memo.
        """
        sketch = self._loaded(small_dynamic_stream_module)
        users = _candidates(sketch)[:10]
        pairs = list(combinations(users, 2))
        columns = ([a for a, _ in pairs], [b for _, b in pairs])
        sketch.estimate_jaccard_many(*columns)
        hits_before = sketch.sketch_cache_info()["hits"]
        stamp_before = sketch.shared_array.latest_stamp
        sketch.process_batch(
            [
                StreamElement(users[0], 31337, Action.INSERT),
                StreamElement(users[0], 31337, Action.DELETE),
            ]
        )
        assert sketch.shared_array.latest_stamp == stamp_before
        fresh = sketch.estimate_jaccard_many(*columns)
        assert sketch.sketch_cache_info()["hits"] == hits_before + len(users)
        cold = VirtualOddSketch.from_budget(BUDGET, seed=11)
        cold.process_batch(small_dynamic_stream_module)
        cold.process_batch(
            [
                StreamElement(users[0], 31337, Action.INSERT),
                StreamElement(users[0], 31337, Action.DELETE),
            ]
        )
        assert np.array_equal(fresh, cold.estimate_jaccard_many(*columns))
