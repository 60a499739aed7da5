"""Parity matrix for the kernel tiers (NumPy vs native C).

Every fast path in this repo ships with a bit-identity gate against its
reference implementation; the kernel tiers get the same treatment.  The
matrix covers sketch sizes {63, 64, 1024, 1536}, empty pair lists, odd
(non-word-aligned) row widths against a scalar popcount loop, string-id
pools, row recovery against ``apply_many_array`` + gather + pack (edge
fingerprints, ragged widths, array lengths, boundary checks), end-to-end
rankings, LSH candidate generation, and the strict
``REPRO_KERNEL=native`` failure mode.  Native cases skip (never silently
pass) when no compiler is available — CI runs this file under both
``REPRO_KERNEL=numpy`` and ``REPRO_KERNEL=native`` so a host with a compiler
can never quietly lose the fast tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.memory import MemoryBudget
from repro.core.vos import VirtualOddSketch, packed_row_bytes, pair_xor_counts
from repro.exceptions import ConfigurationError
from repro.hashing.families import HashFamily
from repro.hashing.bitpack import PackedBitArray
from repro.hashing.universal import _MERSENNE_P, UniversalHash, fingerprint64, stable_hash64
from repro.index import BandedSketchIndex, IndexConfig
from repro.kernels import numpy_tier
from repro.service.sharding import ShardedVOS
from repro.similarity.search import top_k_similar_pairs
from repro.streams.edge import Action, StreamElement

SKETCH_SIZES = (63, 64, 1024, 1536)

#: Ranges around the native vector body's bound (it needs range > 768) and
#: at shard scale, for the exact-integer position checks.
_EDGE_RANGES = [768, 769, 1009, 4_099, 7_680_000, 2**27 - 1]


def _edge_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """19 ``(a, b)`` pairs at the edges of ``[0, p)``: every pairing of four
    edge ``a``s with four edge ``b``s, then three more for a ragged tail."""
    edges_a = [1, 2, _MERSENNE_P - 2, _MERSENNE_P - 1]
    edges_b = [0, 11, _MERSENNE_P - 2, _MERSENNE_P - 1]
    pairs = [(a, b) for a in edges_a for b in edges_b]
    pairs += [(_MERSENNE_P - 1, 0), (2**32 + 1, 2**32 - 1), (2**61 - 2**32, 2**29)]
    return (
        np.array([a for a, _ in pairs], dtype=np.uint64),
        np.array([b for _, b in pairs], dtype=np.uint64),
    )


_NATIVE_AVAILABLE = None


def native_available() -> bool:
    global _NATIVE_AVAILABLE
    if _NATIVE_AVAILABLE is None:
        with kernels.use_tier("auto"):
            _NATIVE_AVAILABLE = kernels.active_tier() == "native"
    return _NATIVE_AVAILABLE


def tiers() -> list[str]:
    return ["numpy"] + (["native"] if native_available() else [])


def _random_rows(rng, n_users: int, sketch_size: int) -> np.ndarray:
    rows = rng.integers(
        0, 256, size=(n_users, packed_row_bytes(sketch_size)), dtype=np.uint8
    )
    # Zero the padding bits past ``sketch_size`` like real packed rows have.
    if sketch_size % 8:
        rows[:, sketch_size // 8] &= (1 << (sketch_size % 8)) - 1
    rows[:, (sketch_size + 7) // 8 :] = 0
    return rows


def _scalar_counts(rows: np.ndarray, index_a, index_b) -> np.ndarray:
    """Pure-Python popcount reference, one pair at a time."""
    out = np.empty(len(index_a), dtype=np.int64)
    for t, (a, b) in enumerate(zip(index_a, index_b)):
        xored = np.bitwise_xor(rows[a], rows[b]).tobytes()
        out[t] = int.from_bytes(xored, "little").bit_count()
    return out


class TestPairCountParity:
    @pytest.mark.parametrize("sketch_size", SKETCH_SIZES)
    def test_tiers_match_scalar_reference(self, sketch_size):
        rng = np.random.default_rng(sketch_size)
        rows = _random_rows(rng, 120, sketch_size)
        index_a = rng.integers(0, 120, size=3000).astype(np.int64)
        index_b = rng.integers(0, 120, size=3000).astype(np.int64)
        reference = _scalar_counts(rows, index_a[:200], index_b[:200])
        results = {}
        for tier in tiers():
            with kernels.use_tier(tier):
                results[tier] = kernels.pair_counts(rows, index_a, index_b)
            assert np.array_equal(results[tier][:200], reference), tier
        if "native" in results:
            assert np.array_equal(results["numpy"], results["native"])

    @pytest.mark.parametrize("sketch_size", SKETCH_SIZES)
    def test_empty_pair_list(self, sketch_size):
        rng = np.random.default_rng(1)
        rows = _random_rows(rng, 10, sketch_size)
        empty = np.empty(0, dtype=np.int64)
        for tier in tiers():
            with kernels.use_tier(tier):
                counts = kernels.pair_counts(rows, empty, empty)
            assert counts.shape == (0,) and counts.dtype == np.int64

    def test_non_word_aligned_rows_match_scalar_loop(self):
        """The byte-lane fallback for rows not padded to whole uint64 words.

        ``packed_row_bytes`` always pads real sketch rows to word multiples,
        but ``pair_xor_counts`` accepts arbitrary byte matrices; odd widths
        must agree with a scalar popcount loop under every tier (the native
        tier reads uint64 lanes, so dispatch must route these to NumPy).
        """
        rng = np.random.default_rng(9)
        for row_bytes in (1, 5, 12, 191):
            rows = rng.integers(0, 256, size=(40, row_bytes), dtype=np.uint8)
            index_a = rng.integers(0, 40, size=400).astype(np.int64)
            index_b = rng.integers(0, 40, size=400).astype(np.int64)
            reference = _scalar_counts(rows, index_a, index_b)
            for tier in tiers():
                with kernels.use_tier(tier):
                    counts = kernels.pair_counts(rows, index_a, index_b)
                assert np.array_equal(counts, reference), (tier, row_bytes)

    def test_block_boundaries_are_invisible(self, monkeypatch):
        """Counts must not depend on how the sweep is blocked."""
        rng = np.random.default_rng(3)
        rows = _random_rows(rng, 50, 256)
        index_a = rng.integers(0, 50, size=1000).astype(np.int64)
        index_b = rng.integers(0, 50, size=1000).astype(np.int64)
        with kernels.use_tier("numpy"):
            baseline = kernels.pair_counts(rows, index_a, index_b)
            monkeypatch.setenv("REPRO_PAIR_BLOCK_PAIRS", "7")
            assert np.array_equal(kernels.pair_counts(rows, index_a, index_b), baseline)

    def test_popcount_table_tier_matches(self, monkeypatch):
        """numpy<2.0 byte-table path stays bit-identical inside the new tier."""
        rng = np.random.default_rng(4)
        rows = _random_rows(rng, 30, 1024)
        index_a = rng.integers(0, 30, size=500).astype(np.int64)
        index_b = rng.integers(0, 30, size=500).astype(np.int64)
        with kernels.use_tier("numpy"):
            baseline = kernels.pair_counts(rows, index_a, index_b)
            monkeypatch.setattr(
                numpy_tier, "_bitwise_count", numpy_tier._popcount_table
            )
            assert np.array_equal(kernels.pair_counts(rows, index_a, index_b), baseline)


class TestBandSignatureParity:
    @pytest.mark.parametrize("sketch_size", SKETCH_SIZES)
    def test_tiers_match(self, sketch_size):
        rng = np.random.default_rng(sketch_size + 1)
        rows = _random_rows(rng, 80, sketch_size)
        words = rows.view(np.uint64)
        row_words = words.shape[1]
        bands = max(1, min(6, row_words))
        rows_per_band = row_words // bands
        hashes = [
            UniversalHash(
                range_size=_MERSENNE_P, seed=stable_hash64(("index-band", 0, band))
            )
            for band in range(bands)
        ] + [
            UniversalHash(
                range_size=_MERSENNE_P, seed=stable_hash64(("index-residual", 0))
            )
        ]
        coeff_a = np.array([h._coefficients[0] for h in hashes], dtype=np.uint64)
        coeff_b = np.array([h._coefficients[1] for h in hashes], dtype=np.uint64)
        results = {}
        for tier in tiers():
            with kernels.use_tier(tier):
                results[tier] = kernels.band_signatures(
                    words, bands, rows_per_band, coeff_a, coeff_b
                )
        signatures, set_bits = results["numpy"]
        # Column hashes must agree with the scalar UniversalHash definition.
        assert signatures.shape == (80, bands + 1)
        assert (signatures < np.uint64(_MERSENNE_P)).all()
        expected_bits = numpy_tier._popcount_table(
            words[:, : bands * rows_per_band].reshape(80, bands, rows_per_band)
        ).sum(axis=2, dtype=np.int64)
        assert np.array_equal(set_bits, expected_bits)
        if "native" in results:
            assert np.array_equal(signatures, results["native"][0])
            assert np.array_equal(set_bits, results["native"][1])

    def test_empty_user_list(self):
        words = np.empty((0, 4), dtype=np.uint64)
        coeff = np.ones(3, dtype=np.uint64)
        for tier in tiers():
            with kernels.use_tier(tier):
                signatures, set_bits = kernels.band_signatures(words, 2, 2, coeff, coeff)
            assert signatures.shape == (0, 3) and set_bits.shape == (0, 2)

    def test_geometry_validation(self):
        words = np.zeros((2, 4), dtype=np.uint64)
        with pytest.raises(ConfigurationError):
            kernels.band_signatures(words, 5, 1, np.ones(6, np.uint64), np.ones(6, np.uint64))
        with pytest.raises(ConfigurationError):
            kernels.band_signatures(words, 2, 2, np.ones(2, np.uint64), np.ones(2, np.uint64))


class TestHashKeyParity:
    KEYS = np.array(
        [0, 1, -1, 2, 17, -12345, 2**31, 2**63 - 1, -(2**63), 987654321012345],
        dtype=np.int64,
    )

    @pytest.mark.parametrize("range_size", [1, 13, 4096, 10**9 + 7, _MERSENNE_P])
    def test_tiers_match_scalar_hashes(self, range_size):
        rng = np.random.default_rng(range_size % 1000)
        keys = np.concatenate(
            (self.KEYS, rng.integers(-(2**63), 2**63 - 1, size=5000, dtype=np.int64))
        )
        family = HashFamily(size=16, range_size=range_size, seed=5)
        members = rng.integers(0, 16, size=keys.shape[0])
        single = UniversalHash(range_size=range_size, seed=9)
        for tier in tiers():
            with kernels.use_tier(tier):
                pairs = family.hash_pairs(keys, members)
                hashed = single.hash_array(keys)
            assert pairs.dtype == np.int64 and hashed.dtype == np.int64
            assert pairs.tolist() == [
                family[m](k) for k, m in zip(keys.tolist(), members.tolist())
            ]
            assert hashed.tolist() == [single(k) for k in keys.tolist()]

    def test_unsigned_and_empty_keys(self):
        keys = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
        single = UniversalHash(range_size=1000, seed=2)
        for tier in tiers():
            with kernels.use_tier(tier):
                assert single.hash_array(keys).tolist() == [
                    single(k) for k in keys.tolist()
                ]
                assert single.hash_array(np.empty(0, dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("range_size", [*_EDGE_RANGES, _MERSENNE_P, 2**63 + 5, 2**64 - 1])
    def test_edge_fingerprints_and_coefficients_exact(self, range_size):
        """Every edge fingerprint under every edge coefficient pair, against
        exact integers: ranges above 768 take the native vector body, and
        the 171 keys leave a 3-key tail."""
        coeff_a, coeff_b = _edge_coefficients()
        fingerprints = TestRecoverRowParity.EDGE_FINGERPRINTS
        keys = np.array(
            [_key_with_fingerprint(fp) for fp in fingerprints for _ in coeff_a],
            dtype=np.int64,
        )
        members = np.tile(np.arange(len(coeff_a)), len(fingerprints))
        expected = [
            ((int(coeff_a[m]) * fp + int(coeff_b[m])) % _MERSENNE_P) % range_size
            for fp in fingerprints
            for m in range(len(coeff_a))
        ]
        for tier in tiers():
            with kernels.use_tier(tier):
                hashed = kernels.hash_keys(keys, coeff_a, coeff_b, members, range_size)
                single = kernels.hash_keys(keys, coeff_a[3:4], coeff_b[3:4], None, range_size)
            assert hashed.tolist() == expected, (tier, range_size)
            assert single.tolist() == [
                ((int(coeff_a[3]) * fp + int(coeff_b[3])) % _MERSENNE_P) % range_size
                for fp in fingerprints
                for _ in coeff_a
            ], (tier, range_size)

    def test_member_indices_are_bounds_checked(self):
        coeff = np.ones(4, dtype=np.uint64)
        keys = np.arange(3)
        for tier in tiers():
            with kernels.use_tier(tier):
                with pytest.raises(IndexError):
                    kernels.hash_keys(keys, coeff, coeff, np.array([0, 4, 1]), 10)
                with pytest.raises(IndexError):
                    kernels.hash_keys(keys, coeff, coeff, np.array([0, -1, 1]), 10)
                with pytest.raises(ConfigurationError):
                    kernels.hash_keys(keys, coeff, coeff, np.array([0, 1]), 10)
                with pytest.raises(ConfigurationError):
                    kernels.hash_keys(np.array([1.5]), coeff, coeff, None, 10)


_MASK64 = (1 << 64) - 1


def _unshift_xor(value: int, shift: int) -> int:
    """Invert ``x ^ (x >> shift)`` on 64-bit words."""
    result = value
    for _ in range(64 // shift + 1):
        result = value ^ (result >> shift)
    return result & _MASK64


def _key_with_fingerprint(fingerprint: int) -> int:
    """An ``int64`` key whose :func:`fingerprint64` is ``fingerprint`` (mix64 inverted)."""
    from repro.hashing.universal import _GOLDEN, _MIX_C1, _MIX_C2

    x = _unshift_xor(fingerprint, 31)
    x = (x * pow(_MIX_C2, -1, 1 << 64)) & _MASK64
    x = _unshift_xor(x, 27)
    x = (x * pow(_MIX_C1, -1, 1 << 64)) & _MASK64
    x = _unshift_xor(x, 30) ^ _GOLDEN
    return x - (1 << 64) if x >= 1 << 63 else x


def _random_array(rng, num_bits: int) -> PackedBitArray:
    array = PackedBitArray(num_bits)
    data = rng.integers(0, 256, size=(num_bits + 7) // 8, dtype=np.uint8)
    if num_bits % 8:
        data[-1] &= 0xFF ^ (0xFF >> (num_bits % 8))
    array.load_packed_bytes(data.tobytes())
    return array


def _reference_rows(family: HashFamily, keys, array: PackedBitArray, k: int) -> np.ndarray:
    """``apply_many_array`` + gather + pack: the unfused definition of a row."""
    bits = array.gather(family.apply_many_array(keys)[:, :k])
    rows = np.zeros((len(keys), packed_row_bytes(k)), dtype=np.uint8)
    rows[:, : (k + 7) // 8] = np.packbits(bits, axis=1)
    return rows


class TestRecoverRowParity:
    EDGE_FINGERPRINTS = [
        0, 1, _MERSENNE_P - 1, _MERSENNE_P, _MERSENNE_P + 1, 2 * _MERSENNE_P,
        2**63, 2**64 - 2, 2**64 - 1,
    ]

    def _check(self, family, keys, array, k, fingerprints=None):
        if fingerprints is None:
            fingerprints = np.array([fingerprint64(key) for key in keys], dtype=np.uint64)
        expected = _reference_rows(family, keys, array, k)
        for tier in tiers():
            with kernels.use_tier(tier):
                rows = kernels.recover_rows(
                    fingerprints, family._coeff_a, family._coeff_b,
                    array.storage, len(array), k,
                )
            assert rows.dtype == np.uint8
            assert np.array_equal(rows, expected), (tier, k, len(array))

    def test_fingerprints_at_and_above_the_prime(self):
        keys = [_key_with_fingerprint(fp) for fp in self.EDGE_FINGERPRINTS]
        assert [fingerprint64(key) for key in keys] == self.EDGE_FINGERPRINTS
        family = HashFamily(size=192, range_size=10_007, seed=3)
        array = _random_array(np.random.default_rng(1), 10_007)
        self._check(
            family, keys, array, 192,
            fingerprints=np.array(self.EDGE_FINGERPRINTS, dtype=np.uint64),
        )

    @pytest.mark.parametrize("num_bits", _EDGE_RANGES)
    def test_coefficients_at_the_prime_boundary(self, num_bits):
        """Extreme ``a``/``b`` against edge fingerprints, checked with exact integers.

        Ranges above 768 take the native AVX-512 body (where the host has
        it) and 768 the scalar one; 19 coefficients leave a 3-position tail.
        """
        # a = p - 1, b = 11 and fingerprint 2^64 - 1 give a * x + b with both
        # 61-bit halves summing past 2p unless x is fully reduced first.
        coeff_a, coeff_b = _edge_coefficients()
        k = len(coeff_a)
        array = _random_array(np.random.default_rng(3), num_bits)
        storage = array.storage
        expected = np.zeros((len(self.EDGE_FINGERPRINTS), packed_row_bytes(k)), np.uint8)
        for row, fp in enumerate(self.EDGE_FINGERPRINTS):
            positions = [
                ((int(a) * fp + int(b)) % _MERSENNE_P) % num_bits
                for a, b in zip(coeff_a, coeff_b)
            ]
            bits = [(int(storage[p >> 3]) >> (7 - (p & 7))) & 1 for p in positions]
            expected[row, : (k + 7) // 8] = np.packbits(bits)
        for tier in tiers():
            with kernels.use_tier(tier):
                rows = kernels.recover_rows(
                    np.array(self.EDGE_FINGERPRINTS, dtype=np.uint64),
                    coeff_a, coeff_b, storage, num_bits, k,
                )
            assert np.array_equal(rows, expected), (tier, num_bits)

    def test_storage_must_span_whole_words(self):
        """The native tier gathers whole 64-bit words, so a buffer one byte
        short of ``8 * ceil(num_bits / 64)`` is refused on every tier."""
        fps = np.arange(4, dtype=np.uint64)
        coeff = np.arange(1, 9, dtype=np.uint64)
        for num_bits in (100, 4_099):
            words = 8 * ((num_bits + 63) // 64)
            bits = np.zeros(words, dtype=np.uint8)
            for tier in tiers():
                with kernels.use_tier(tier):
                    assert kernels.recover_rows(fps, coeff, coeff, bits, num_bits, 8).shape == (4, 8)
                    with pytest.raises(IndexError):
                        kernels.recover_rows(fps, coeff, coeff, bits[:-1], num_bits, 8)

    def test_string_and_mixed_ids(self):
        keys = ["alice", "bob", ("tuple", 1), 2**70, -5, True, 7]
        family = HashFamily(size=100, range_size=4096, seed=8)
        self._check(family, keys, _random_array(np.random.default_rng(2), 4096), 100)

    @pytest.mark.parametrize("k", [1, 7, 9, 63, 65, 100, 1536])
    def test_ragged_widths_keep_pad_bits_zero(self, k):
        rng = np.random.default_rng(k)
        keys = rng.integers(-(2**63), 2**63 - 1, size=40, dtype=np.int64).tolist()
        family = HashFamily(size=1536, range_size=50_000, seed=4)
        array = _random_array(rng, 50_000)
        self._check(family, keys, array, k)
        array.load_packed_bytes(b"\xff" * (50_000 // 8))
        self._check(family, keys, array, k)

    @pytest.mark.parametrize("num_bits", [1, 3, 7_680_000])
    def test_array_lengths(self, num_bits):
        rng = np.random.default_rng(num_bits)
        keys = list(range(-20, 20)) + [2**63 - 1, -(2**63)]
        family = HashFamily(size=77, range_size=num_bits, seed=6)
        self._check(family, keys, _random_array(rng, num_bits), 77)

    def test_vos_rows_match_reference_for_every_tier(self):
        sketch = _string_pool_sketch()
        for shard in sketch.shards:
            users = sorted(shard.users())
            expected = _reference_rows(
                shard._user_hashes, users, shard.shared_array, shard.virtual_sketch_size
            )
            for tier in tiers():
                with kernels.use_tier(tier):
                    fresh = VirtualOddSketch.cow_view(shard)
                    assert np.array_equal(fresh.packed_rows(users), expected), tier

    def test_empty_user_list(self):
        coeff = np.ones(8, dtype=np.uint64)
        bits = np.zeros(8, dtype=np.uint8)
        for tier in tiers():
            with kernels.use_tier(tier):
                rows = kernels.recover_rows(np.empty(0, np.uint64), coeff, coeff, bits, 64, 8)
            assert rows.shape == (0, 8)

    def test_bad_inputs_raise_before_native_code(self):
        fps = np.arange(4, dtype=np.uint64)
        coeff = np.arange(1, 9, dtype=np.uint64)
        bits = np.zeros(8, dtype=np.uint8)
        configuration_errors = [
            (fps.astype(np.int64), coeff, coeff, bits, 64, 8),
            (fps, coeff.astype(np.int64), coeff, bits, 64, 8),
            (fps, coeff, coeff.astype(np.float64), bits, 64, 8),
            (fps, coeff, coeff, bits.astype(np.uint64), 64, 8),
            (fps.reshape(2, 2), coeff, coeff, bits, 64, 8),
            (fps, coeff.reshape(2, 4), coeff.reshape(2, 4), bits, 64, 8),
            (fps, coeff, coeff[:4], bits, 64, 4),
            (fps, coeff, coeff, bits, 64, 9),
            (fps, coeff, coeff, bits, 64, 0),
            (fps, coeff, coeff, bits, 0, 8),
            (fps, coeff, coeff, bits, -8, 8),
            (fps, coeff, coeff, bits, 64.0, 8),
            (np.arange(8, dtype=np.uint64)[::2], coeff, coeff, bits, 64, 8),
            (fps, np.arange(16, dtype=np.uint64)[::2], coeff, bits, 64, 8),
            (fps, coeff, coeff, np.zeros(16, dtype=np.uint8)[::2], 64, 8),
            (fps, np.full(8, _MERSENNE_P, dtype=np.uint64), coeff, bits, 64, 8),
            (fps, coeff, np.full(8, 2**64 - 1, dtype=np.uint64), bits, 64, 8),
            (fps.tolist(), coeff, coeff, bits, 64, 8),
        ]
        for tier in tiers():
            with kernels.use_tier(tier):
                for arguments in configuration_errors:
                    with pytest.raises(ConfigurationError):
                        kernels.recover_rows(*arguments)
                with pytest.raises(IndexError):
                    kernels.recover_rows(fps, coeff, coeff, bits, 65, 8)
                with pytest.raises(IndexError):
                    kernels.recover_rows(fps, coeff, coeff, bits[:0], 1, 8)

    def test_other_kernels_check_inputs_before_native_code(self):
        """The native tier takes raw pointers, so pair_counts, hash_keys and
        band_signatures refuse a wrong dtype, shape or stride (and an
        out-of-range ordinal) on every tier before calling in."""
        rows = np.zeros((4, 16), dtype=np.uint8)
        index = np.arange(4, dtype=np.int64)
        words = np.zeros((4, 2), dtype=np.uint64)
        coeff = np.arange(1, 4, dtype=np.uint64)
        keys = np.arange(6, dtype=np.int64)
        configuration_errors = [
            (kernels.pair_counts, (rows.astype(np.int64), index, index)),
            (kernels.pair_counts, (rows[:, ::2], index, index)),
            (kernels.pair_counts, (rows.ravel(), index, index)),
            (kernels.pair_counts, (rows.tolist(), index, index)),
            (kernels.pair_counts, (rows, index.astype(np.float64), index)),
            (kernels.pair_counts, (rows, index, index[:3])),
            (kernels.pair_counts, (rows, index.reshape(2, 2), index.reshape(2, 2))),
            (kernels.band_signatures, (words.astype(np.int64), 2, 1, coeff, coeff)),
            (kernels.band_signatures, (np.zeros((4, 4), np.uint64)[:, ::2], 2, 1, coeff, coeff)),
            (kernels.band_signatures, (words, 2, 1, coeff.astype(np.int64), coeff)),
            (kernels.band_signatures, (words, 2, 1, coeff, np.arange(6, dtype=np.uint64)[::2])),
            (kernels.band_signatures, (words, 0, 1, coeff[:1], coeff[:1])),
            (kernels.hash_keys, (keys, coeff.astype(np.int64), coeff, None, 10)),
            (kernels.hash_keys, (keys, coeff, np.arange(6, dtype=np.uint64)[::2], None, 10)),
            (kernels.hash_keys, (keys, coeff.reshape(3, 1), coeff.reshape(3, 1), None, 10)),
            (kernels.hash_keys, (keys, coeff, coeff, keys.astype(np.float64) % 3, 10)),
            (kernels.hash_keys, (keys, coeff, coeff, None, 0)),
            (kernels.hash_keys, (keys, coeff, coeff, None, 2**64)),
            (kernels.hash_keys, (keys, coeff, coeff, None, 10.0)),
        ]
        index_errors = [
            (kernels.pair_counts, (rows, np.array([0, 4]), np.array([0, 1]))),
            (kernels.pair_counts, (rows, np.array([0, 1]), np.array([-1, 1]))),
            (kernels.hash_keys, (keys, coeff, coeff, keys % 4, 10)),
        ]
        for tier in tiers():
            with kernels.use_tier(tier):
                for kernel, arguments in configuration_errors:
                    with pytest.raises(ConfigurationError):
                        kernel(*arguments)
                for kernel, arguments in index_errors:
                    with pytest.raises(IndexError):
                        kernel(*arguments)


def _string_pool_sketch():
    sketch = ShardedVOS.from_budget(
        MemoryBudget(baseline_registers=24, num_users=400),
        num_shards=3,
        seed=13,
    )
    rng = np.random.default_rng(13)
    elements = []
    for user in range(60):
        items = rng.choice(500, size=30, replace=False)
        for item in items:
            elements.append(StreamElement(f"user-{user:03d}", int(item), Action.INSERT))
    sketch.process_batch(elements)
    return sketch


class TestEndToEndParity:
    def test_rankings_bit_identical_across_tiers_string_ids(self):
        """Full ranking parity on a string-id pool: same pairs, same scores."""
        sketch = _string_pool_sketch()
        rankings = {}
        for tier in tiers():
            with kernels.use_tier(tier):
                rankings[tier] = [
                    (pair.user_a, pair.user_b, pair.jaccard, pair.common_items)
                    for pair in top_k_similar_pairs(sketch, k=25)
                ]
        if "native" in rankings:
            assert rankings["numpy"] == rankings["native"]
        assert len(rankings["numpy"]) == 25

    def test_pair_xor_counts_entrypoint_dispatches(self):
        """The vos-level wrapper and the dispatch layer agree under each tier."""
        rng = np.random.default_rng(8)
        rows = _random_rows(rng, 64, 1536)
        index_a = rng.integers(0, 64, size=800).astype(np.int64)
        index_b = rng.integers(0, 64, size=800).astype(np.int64)
        results = {}
        for tier in tiers():
            with kernels.use_tier(tier):
                results[tier] = pair_xor_counts(rows, index_a, index_b)
        if "native" in results:
            assert np.array_equal(results["numpy"], results["native"])

    def test_lsh_candidates_identical_across_tiers(self):
        """Band signatures drive bucketing: candidate sets must match exactly."""
        sketch = _string_pool_sketch()
        pool = sorted(sketch.users())
        candidates = {}
        for tier in tiers():
            with kernels.use_tier(tier):
                index = BandedSketchIndex(sketch, IndexConfig())
                index.build()
                index_a, index_b = index.candidate_pairs(pool)
                candidates[tier] = (index_a.tolist(), index_b.tolist())
        if "native" in candidates:
            assert candidates["numpy"] == candidates["native"]


class TestDispatchControls:
    def test_auto_sized_blocks(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAIR_BLOCK_PAIRS", raising=False)
        narrow = kernels.pair_block_pairs(8)
        wide = kernels.pair_block_pairs(192)
        assert narrow > wide
        assert narrow <= numpy_tier.MAX_BLOCK_PAIRS
        assert wide >= numpy_tier.MIN_BLOCK_PAIRS
        # Power-of-two blocks whose gather buffer stays near the target.
        assert wide * 192 <= numpy_tier.TARGET_BLOCK_BYTES
        monkeypatch.setenv("REPRO_PAIR_BLOCK_PAIRS", "12345")
        assert kernels.pair_block_pairs(192) == 12345

    def test_invalid_tier_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "cuda")
        with pytest.raises(ConfigurationError):
            kernels.requested_tier()

    def test_strict_native_raises_without_compiler(self, monkeypatch):
        """REPRO_KERNEL=native must fail loudly when the build is impossible."""
        from repro.kernels import native as native_module

        kernels.reset_kernels()
        monkeypatch.setattr(native_module, "_find_compiler", lambda: None)
        try:
            with kernels.use_tier("native"):
                with pytest.raises(ConfigurationError):
                    kernels.active_tier()
                info = kernels.kernel_info()
                assert info["active"] is None
                assert "native" in info["error"]
        finally:
            kernels.reset_kernels()

    def test_kernel_info_shape(self):
        info = kernels.kernel_info()
        assert info["requested"] in ("auto", "numpy", "native")
        assert info["active"] in ("numpy", "native")
        assert isinstance(info["native"]["available"], bool)
        assert info["numpy_popcount"] in ("bitwise_count", "byte_table")

    def test_stats_expose_kernel_tier(self):
        from repro.service import ServiceConfig, SimilarityService

        service = SimilarityService.from_config(ServiceConfig(expected_users=50))
        service.ingest(
            [StreamElement(u, i, Action.INSERT) for u in (1, 2) for i in range(20)]
        )
        stats = service.stats()
        assert stats["kernels"]["active"] in ("numpy", "native")

    def test_obs_counters_per_tier(self):
        from repro.obs import get_registry

        registry = get_registry()
        rng = np.random.default_rng(2)
        rows = _random_rows(rng, 16, 64)
        index = rng.integers(0, 16, size=64).astype(np.int64)
        for tier in tiers():
            counter = registry.counter(f"kernels.{tier}.pairs_scored", unit="pairs")
            before = counter.value
            with kernels.use_tier(tier):
                kernels.pair_counts(rows, index, index)
            assert counter.value == before + 64


def test_native_tier_active_when_forced():
    """Under REPRO_KERNEL=native the active tier must actually be native.

    CI runs the suite with REPRO_KERNEL=native on compiler-equipped hosts;
    strict mode raising on a broken toolchain (covered above) plus this check
    guarantees the fast tier can never silently fall back there.
    """
    if not native_available():
        pytest.skip("no C compiler: native tier unavailable on this host")
    with kernels.use_tier("native"):
        assert kernels.active_tier() == "native"
        info = kernels.kernel_info()
        assert info["native"]["available"] is True
        assert info["native"]["library"]
