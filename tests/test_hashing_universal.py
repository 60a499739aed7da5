"""Tests for repro.hashing.universal."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.hashing import universal
from repro.hashing.universal import UniversalHash, fingerprint64, stable_hash64


class TestFingerprint:
    def test_deterministic(self):
        assert fingerprint64("item-1") == fingerprint64("item-1")

    def test_distinct_keys_differ(self):
        values = {fingerprint64(i) for i in range(1000)}
        assert len(values) == 1000

    def test_int_and_string_keys_supported(self):
        assert isinstance(fingerprint64(5), int)
        assert isinstance(fingerprint64("five"), int)
        assert isinstance(fingerprint64(("a", 1)), int)

    def test_fits_in_64_bits(self):
        for key in [0, 1, 2**63, "x", ("t", 9)]:
            assert 0 <= fingerprint64(key) < 2**64

    def test_bool_matches_int(self):
        assert fingerprint64(True) == fingerprint64(1)
        assert fingerprint64(False) == fingerprint64(0)


class TestStableHash:
    def test_seed_changes_output(self):
        outputs = {stable_hash64("key", seed) for seed in range(50)}
        assert len(outputs) == 50

    def test_same_seed_same_output(self):
        assert stable_hash64("key", 3) == stable_hash64("key", 3)

    def test_different_keys_differ(self):
        assert stable_hash64("a", 1) != stable_hash64("b", 1)


class TestUniversalHash:
    def test_range_respected(self):
        h = UniversalHash(range_size=13, seed=5)
        assert all(0 <= h(i) < 13 for i in range(500))

    def test_deterministic_across_instances(self):
        assert UniversalHash(100, seed=9)("k") == UniversalHash(100, seed=9)("k")

    def test_seeds_give_different_functions(self):
        h1 = UniversalHash(1000, seed=1)
        h2 = UniversalHash(1000, seed=2)
        disagreements = sum(1 for i in range(200) if h1(i) != h2(i))
        assert disagreements > 150

    def test_invalid_range_raises(self):
        with pytest.raises(ConfigurationError):
            UniversalHash(range_size=0)
        with pytest.raises(ConfigurationError):
            UniversalHash(range_size=-5)

    def test_roughly_uniform_distribution(self):
        h = UniversalHash(range_size=10, seed=3)
        counts = [0] * 10
        samples = 5000
        for i in range(samples):
            counts[h(i)] += 1
        expected = samples / 10
        assert all(0.6 * expected < c < 1.4 * expected for c in counts)

    def test_value64_wide_range(self):
        h = UniversalHash(range_size=4, seed=1)
        wide = {h.value64(i) for i in range(100)}
        assert len(wide) == 100
        assert all(v >= 0 for v in wide)

    def test_unit_interval_bounds(self):
        h = UniversalHash(range_size=4, seed=1)
        values = [h.unit_interval(i) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7

    def test_is_frozen_dataclass(self):
        h = UniversalHash(range_size=4, seed=1)
        with pytest.raises(Exception):
            h.range_size = 8  # type: ignore[misc]


class TestCoefficientsDerivedOnce:
    """``(a, b)`` come from two BLAKE2b digests; hashing must not re-derive them."""

    def test_hashing_calls_stable_hash64_zero_times(self, monkeypatch):
        h = UniversalHash(range_size=13, seed=5)
        calls = []

        def counting(*args):
            calls.append(args)
            return stable_hash64(*args)

        monkeypatch.setattr(universal, "stable_hash64", counting)
        keys = np.arange(-50, 50, dtype=np.int64)
        for key in keys.tolist():
            h(key)
            h.value64(key)
        h("string-key")
        h.unit_interval(3)
        h.hash_array(keys)
        h.value64_array(keys)
        assert calls == []
        # Construction is where the coefficients come from.
        UniversalHash(range_size=13, seed=6)
        assert len(calls) == 2

    def test_pickle_round_trip_keeps_the_function(self):
        h = UniversalHash(range_size=4096, seed=424242)
        clone = pickle.loads(pickle.dumps(h))
        assert clone == h
        assert clone._coefficients == h._coefficients
        keys = np.array([0, 1, -1, 2**63 - 1, -(2**63), 987654321], dtype=np.int64)
        assert [clone(key) for key in keys.tolist()] == [h(key) for key in keys.tolist()]
        assert np.array_equal(clone.hash_array(keys), h.hash_array(keys))


class TestVectorizedHashing:
    """The numpy fast path must agree bit-for-bit with the scalar path."""

    KEYS = [0, 1, -1, 2, 17, -12345, 2**31, 2**63 - 1, -(2**63), 987654321012345]

    def test_fingerprint64_array_matches_scalar(self):
        import numpy as np

        from repro.hashing.universal import fingerprint64, fingerprint64_array

        values = fingerprint64_array(np.array(self.KEYS, dtype=np.int64))
        for index, key in enumerate(self.KEYS):
            assert int(values[index]) == fingerprint64(key)

    @pytest.mark.parametrize("seed", [0, 1, 424242, -9])
    @pytest.mark.parametrize("range_size", [1, 2, 13, 4096, 10**9 + 7])
    def test_hash_array_matches_scalar(self, seed, range_size):
        import numpy as np

        h = UniversalHash(range_size=range_size, seed=seed)
        values = h.hash_array(np.array(self.KEYS, dtype=np.int64))
        for index, key in enumerate(self.KEYS):
            assert int(values[index]) == h(key)

    def test_hash_array_large_random_sample(self):
        import random

        import numpy as np

        rng = random.Random(7)
        keys = [rng.randrange(-(2**63), 2**63) for _ in range(3000)]
        h = UniversalHash(range_size=100003, seed=5)
        values = h.hash_array(np.array(keys, dtype=np.int64))
        assert all(int(values[i]) == h(k) for i, k in enumerate(keys))

    def test_value64_array_matches_scalar(self):
        import numpy as np

        h = UniversalHash(range_size=7, seed=3)
        wide = h.value64_array(np.array(self.KEYS, dtype=np.int64))
        for index, key in enumerate(self.KEYS):
            assert int(wide[index]) == h.value64(key)

    def test_rejects_non_integer_arrays(self):
        import numpy as np

        from repro.exceptions import ConfigurationError
        from repro.hashing.universal import fingerprint64_array

        with pytest.raises(ConfigurationError):
            fingerprint64_array(np.array([1.5, 2.5]))
