"""Parity matrix for the kernel tiers (NumPy vs native C).

Every fast path in this repo ships with a bit-identity gate against its
reference implementation; the kernel tiers get the same treatment.  The
matrix covers sketch sizes {63, 64, 1024, 1536}, empty pair lists, odd
(non-word-aligned) row widths against a scalar popcount loop, string-id
pools, the position family's offsets, row recovery (against
``apply_many_array`` + gather + pack), flip scan (against brute force) and
ingest positions over array lengths 1, 2, k, a power of two, primes and
7,680,000 (edge fingerprints, ragged widths, boundary checks), end-to-end
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
from repro.hashing.families import HashFamily, PositionFamily
from repro.hashing.bitpack import PackedBitArray, next_stamp
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
            monkeypatch.setattr(numpy_tier, "pair_block_pairs", lambda row_bytes: 7)
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
        fingerprints = TestPositionFamilyParity.EDGE_FINGERPRINTS
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


def _reference_rows(family: PositionFamily, keys, array: PackedBitArray, k: int) -> np.ndarray:
    """``apply_many_array`` + gather + pack: the unfused definition of a row."""
    bits = array.gather(family.apply_many_array(keys)[:, :k])
    rows = np.zeros((len(keys), packed_row_bytes(k)), dtype=np.uint8)
    rows[:, : (k + 7) // 8] = np.packbits(bits, axis=1)
    return rows


class TestXorPositionParity:
    """The ingest xor (``kernels.xor_positions`` behind ``xor_bulk``): the
    native tier toggles in order with no sort; it must leave the bytes,
    popcount, flipped count and stamped words of the NumPy tier's sorted
    odd-count fold, which must equal one :meth:`flip` per position."""

    def _xor(self, tier, array: PackedBitArray, positions):
        """``(copy, flipped, cursor, stamp)``: ``positions`` xored into a copy
        of ``array`` under ``tier``, with the cursor and stamp from before."""
        copy = PackedBitArray(len(array))
        copy.load_packed_bytes(array.to_packed_bytes())
        cursor = next_stamp()
        stamp = copy.latest_stamp
        with kernels.use_tier(tier):
            flipped = copy.xor_bulk(positions)
        return copy, flipped, cursor, stamp

    @pytest.mark.parametrize("num_bits", [1, 8, 63, 64, 65, 130, 4_099, 7_680_000])
    def test_tiers_match_sequential_flips(self, num_bits):
        rng = np.random.default_rng(num_bits % 997)
        array = _random_array(rng, num_bits)
        positions = rng.integers(0, num_bits, size=min(3 * num_bits, 5_000))
        # Repeats, some cancelling, in shuffled order.
        positions = np.concatenate((positions, positions[: len(positions) // 3]))
        rng.shuffle(positions)
        expected = PackedBitArray(num_bits)
        expected.load_packed_bytes(array.to_packed_bytes())
        for position in positions.tolist():
            expected.flip(position)
        before = np.frombuffer(array.to_packed_bytes(), dtype=np.uint8)
        after = np.frombuffer(expected.to_packed_bytes(), dtype=np.uint8)
        changed = np.flatnonzero(before != after) // 8
        _, counts = np.unique(positions, return_counts=True)
        for tier in tiers():
            result, flipped, cursor, _ = self._xor(tier, array, positions)
            assert result.to_packed_bytes() == expected.to_packed_bytes(), tier
            assert result.ones_count == expected.ones_count, tier
            assert flipped == int(np.count_nonzero(counts & 1)), tier
            assert result.dirty_words(cursor).tolist() == np.unique(changed).tolist(), tier

    def test_kernel_results_match_across_tiers(self):
        rng = np.random.default_rng(5)
        num_bits = 1_000
        storage = _random_array(rng, num_bits).storage
        positions = np.concatenate((rng.integers(0, num_bits, 700), [3, 3, 999, 999, 999]))
        results = {}
        for tier in tiers():
            packed = storage.copy()
            with kernels.use_tier(tier):
                flipped, ones_change, words = kernels.xor_positions(packed, positions, num_bits)
            results[tier] = (packed.tobytes(), flipped, ones_change, tuple(np.unique(words)))
            if tier == "native":
                assert len(set(words.tolist())) == len(words)  # each word once
        assert len(set(results.values())) == 1

    def test_cancelling_positions_stamp_nothing(self):
        """Even counts change no bit: no word is stamped and ``latest_stamp``
        stays, so the row memo and LSH tables keyed on it stay valid."""
        rng = np.random.default_rng(8)
        array = _random_array(rng, 300)
        once = rng.integers(0, 300, 50)
        positions = np.concatenate((once, once[::-1], [7, 7, 7, 7]))
        for tier in tiers():
            result, flipped, cursor, stamp = self._xor(tier, array, positions)
            assert flipped == 0, tier
            assert result.to_packed_bytes() == array.to_packed_bytes(), tier
            assert result.ones_count == array.ones_count, tier
            assert result.dirty_words(cursor).tolist() == [], tier
            assert result.latest_stamp == stamp, tier

    def test_last_padded_word(self):
        """Positions in the last, partly padded word flip only real bits."""
        array = PackedBitArray(130)  # the third word holds bits 128 and 129
        for tier in tiers():
            result, flipped, cursor, _ = self._xor(tier, array, [129, 128, 129, 129, 0])
            assert flipped == 3, tier
            assert result.to_list() == [1] + [0] * 127 + [1, 1], tier
            assert result.storage[16:].tolist() == [0xC0] + [0] * 7, tier
            assert result.dirty_words(cursor).tolist() == [0, 2], tier

    def test_empty_positions(self):
        array = PackedBitArray(100)
        for tier in tiers():
            with kernels.use_tier(tier):
                flipped, ones_change, words = kernels.xor_positions(
                    array.storage, np.empty(0, dtype=np.int64), 100
                )
                assert (flipped, ones_change, words.tolist()) == (0, 0, [])
                stamp = array.latest_stamp
                assert array.xor_bulk([]) == 0
                assert array.latest_stamp == stamp

    def test_out_of_range_positions_raise_before_any_change(self):
        """Checked in the dispatch layer, before a pointer reaches native code."""
        array = _random_array(np.random.default_rng(2), 100)
        before = array.to_packed_bytes()
        for tier in tiers():
            with kernels.use_tier(tier):
                for positions in ([0, 100], [5, -1], [2**62]):
                    with pytest.raises(IndexError):
                        array.xor_bulk(positions)
                    with pytest.raises(IndexError):
                        kernels.xor_positions(array.storage, np.array(positions), 100)
                with pytest.raises(ConfigurationError):
                    kernels.xor_positions(array.storage, np.array([1.5]), 100)
                with pytest.raises(ConfigurationError):
                    kernels.xor_positions(array.storage.astype(np.int64), np.array([1]), 100)
                read_only = array.storage.copy()
                read_only.flags.writeable = False
                with pytest.raises(ConfigurationError):
                    kernels.xor_positions(read_only, np.array([1]), 100)
                with pytest.raises(IndexError):
                    kernels.xor_positions(array.storage[:8], np.array([1]), 100)
            assert array.to_packed_bytes() == before


#: Array lengths the position-family parity covers: 1, 2, the family size
#: (k = m), a power of two, primes (one below the fast-modulo bound, one
#: above it) and the perfbench shard size.
_FAMILY_RANGES = [1, 2, 77, 4_096, 6_143, 10_007, 7_680_000]


def _python_offsets(family: PositionFamily, fingerprint: int) -> tuple[int, int, int]:
    """``(h1, h2, h2^-1)`` in Python integers: the family's scalar definition."""
    return family.scalar_offsets(fingerprint)


class TestPositionFamilyParity:
    """The double-hash position family's kernels: per-user offsets, row
    recovery, the flip scan and the ingest position hash, bit-identical on
    every tier to the Python-integer definition."""

    EDGE_FINGERPRINTS = [
        0, 1, _MERSENNE_P - 1, _MERSENNE_P, _MERSENNE_P + 1, 2 * _MERSENNE_P,
        2**63, 2**64 - 2, 2**64 - 1,
    ]

    def _family(self, num_bits: int, k: int = 77, seed: int = 6) -> PositionFamily:
        return PositionFamily(size=min(k, num_bits), range_size=num_bits, seed=seed)

    @pytest.mark.parametrize("num_bits", _FAMILY_RANGES + [2**32 + 15, 2**40 + 3])
    def test_offsets_match_python_integers(self, num_bits):
        family = self._family(num_bits)
        rng = np.random.default_rng(num_bits % 991)
        fps = np.concatenate(
            (np.array(self.EDGE_FINGERPRINTS, dtype=np.uint64),
             rng.integers(0, 2**63, size=200, dtype=np.int64).astype(np.uint64))
        )
        expected = np.array([_python_offsets(family, int(fp)) for fp in fps]).T
        for tier in tiers():
            with kernels.use_tier(tier):
                got = np.stack(family.offsets(fps))
            assert got.dtype == np.int64
            assert np.array_equal(got, expected), (tier, num_bits)
        # Units: every step is coprime to m, so a user's positions are distinct.
        assert all(np.gcd(int(h2), num_bits) == 1 for h2 in expected[1])

    @pytest.mark.parametrize("num_bits", _FAMILY_RANGES)
    def test_rows_match_gather_and_pack(self, num_bits):
        rng = np.random.default_rng(num_bits)
        keys = list(range(-20, 20)) + [2**63 - 1, -(2**63)]
        family = self._family(num_bits)
        array = _random_array(rng, num_bits)
        self._check_rows(family, keys, array)
        for row in family.apply_many_array(keys).tolist():
            assert len(set(row)) == family.size

    def _check_rows(self, family, keys, array):
        expected = _reference_rows(family, keys, array, family.size)
        fps = np.array([fingerprint64(key) for key in keys], dtype=np.uint64)
        for tier in tiers():
            with kernels.use_tier(tier):
                h1, h2, _ = family.offsets(fps)
                rows = family.recover_rows(h1, h2, array.storage)
            assert rows.dtype == np.uint8
            assert np.array_equal(rows, expected), (tier, family.size, len(array))

    def test_string_and_mixed_ids(self):
        keys = ["alice", "bob", ("tuple", 1), 2**70, -5, True, 7]
        family = PositionFamily(size=100, range_size=4096, seed=8)
        self._check_rows(family, keys, _random_array(np.random.default_rng(2), 4096))

    @pytest.mark.parametrize("k", [1, 7, 9, 63, 65, 100, 1536])
    def test_ragged_widths_keep_pad_bits_zero(self, k):
        rng = np.random.default_rng(k)
        keys = rng.integers(-(2**63), 2**63 - 1, size=40, dtype=np.int64).tolist()
        family = PositionFamily(size=k, range_size=50_000, seed=4)
        array = _random_array(rng, 50_000)
        self._check_rows(family, keys, array)
        array.load_packed_bytes(b"\xff" * (50_000 // 8))
        self._check_rows(family, keys, array)

    @pytest.mark.parametrize("num_bits", _FAMILY_RANGES)
    def test_scan_finds_exactly_the_users_bits_a_flip_holds(self, num_bits):
        """Brute force: flip ``p`` is user ``u``'s bit ``j`` iff ``u``'s
        position ``j`` is ``p``; hits come user-major, flips in order."""
        rng = np.random.default_rng(num_bits + 1)
        family = self._family(num_bits, k=min(77, num_bits))
        keys = list(range(60))
        positions = family.apply_many_array(keys)
        # Every user's first and last positions, plus random ones.
        flips = np.unique(
            np.concatenate(
                (positions[:, 0], positions[:, -1], rng.integers(0, num_bits, size=50))
            )
        )
        expected = [
            (user, row.index(flip))
            for user, row in enumerate(positions.tolist())
            for flip in flips.tolist()
            if flip in row
        ]
        fps = np.array([fingerprint64(key) for key in keys], dtype=np.uint64)
        for tier in tiers():
            with kernels.use_tier(tier):
                h1, _, inverse = family.offsets(fps)
                users, columns = family.scan_flips(h1, inverse, flips)
            assert list(zip(users.tolist(), columns.tolist())) == expected, (tier, num_bits)

    def test_scan_grows_past_its_first_capacity(self):
        """A dense flip set (every position) overflows the native tier's first
        guess of the hit count; the retry returns every hit."""
        family = PositionFamily(size=64, range_size=4_096, seed=2)
        fps = np.arange(300, dtype=np.uint64)
        flips = np.arange(4_096)
        results = []
        for tier in tiers():
            with kernels.use_tier(tier):
                h1, _, inverse = family.offsets(fps)
                users, columns = family.scan_flips(h1, inverse, flips)
            assert len(users) == 300 * 64
            results.append((users.tolist(), columns.tolist()))
        assert all(result == results[0] for result in results)

    @pytest.mark.parametrize("num_bits", _FAMILY_RANGES + [2**32 + 15])
    def test_ingest_positions_match_scalar_updates(self, num_bits):
        family = self._family(num_bits)
        rng = np.random.default_rng(7)
        keys = rng.integers(-(2**62), 2**62, size=300)
        members = rng.integers(0, family.size, size=300)
        expected = [family.hash_pair(int(key), int(j)) for key, j in zip(keys, members)]
        for tier in tiers():
            with kernels.use_tier(tier):
                assert family.hash_pairs(keys, members).tolist() == expected, tier

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

    def test_storage_must_span_whole_words(self):
        offsets = np.arange(4, dtype=np.int64)
        for num_bits in (100, 4_099):
            words = 8 * ((num_bits + 63) // 64)
            bits = np.zeros(words, dtype=np.uint8)
            for tier in tiers():
                with kernels.use_tier(tier):
                    rows = kernels.recover_rows(offsets, offsets + 1, bits, num_bits, 8)
                    assert rows.shape == (4, 8)
                    with pytest.raises(IndexError):
                        kernels.recover_rows(offsets, offsets + 1, bits[:-1], num_bits, 8)

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        bits = np.zeros(8, dtype=np.uint8)
        family = PositionFamily(size=8, range_size=64, seed=1)
        for tier in tiers():
            with kernels.use_tier(tier):
                assert kernels.recover_rows(empty, empty, bits, 64, 8).shape == (0, 8)
                users, columns = kernels.scan_flips(empty, empty, [3, 5], 64, 8)
                assert users.size == columns.size == 0
                h1, _, inverse = family.offsets(np.arange(3, dtype=np.uint64))
                users, columns = kernels.scan_flips(h1, inverse, empty, 64, 8)
                assert users.size == columns.size == 0
                assert all(part.size == 0 for part in family.offsets(np.empty(0, np.uint64)))

    def test_bad_inputs_raise_before_native_code(self):
        offsets = np.arange(4, dtype=np.int64)
        bits = np.zeros(8, dtype=np.uint8)
        family = PositionFamily(size=8, range_size=64, seed=1)
        coeff_a, coeff_b, _, qinv, qlimit = family._kernel_arguments()
        configuration_errors = [
            lambda: kernels.recover_rows(offsets.astype(np.uint64), offsets, bits, 64, 8),
            lambda: kernels.recover_rows(offsets, offsets[:3], bits, 64, 8),
            lambda: kernels.recover_rows(offsets, offsets, bits.astype(np.uint64), 64, 8),
            lambda: kernels.recover_rows(offsets, offsets, bits, 64, 0),
            lambda: kernels.recover_rows(offsets, offsets, bits, 64, 65),
            lambda: kernels.recover_rows(offsets, offsets, bits, 0, 8),
            lambda: kernels.recover_rows(offsets, offsets, bits, 64.0, 8),
            lambda: kernels.recover_rows(offsets[::2], offsets[::2], bits, 64, 8),
            lambda: kernels.recover_rows(offsets.tolist(), offsets, bits, 64, 8),
            lambda: kernels.scan_flips(offsets, offsets, [1.5], 64, 8),
            lambda: kernels.scan_flips(offsets, offsets, [1], 64, 0),
            lambda: kernels.offsets(offsets, coeff_a, coeff_b, 64, qinv, qlimit),
            lambda: kernels.offsets(
                offsets.astype(np.uint64), coeff_a[:1], coeff_b[:1], 64, qinv, qlimit
            ),
            lambda: kernels.offsets(
                offsets.astype(np.uint64), np.full(2, _MERSENNE_P, np.uint64), coeff_b,
                64, qinv, qlimit,
            ),
            lambda: kernels.offsets(
                offsets.astype(np.uint64), coeff_a, coeff_b, 64, qinv, qlimit[:0]
            ),
            lambda: kernels.step_positions(offsets, offsets, offsets[:3], 64),
        ]
        index_errors = [
            lambda: kernels.recover_rows(offsets, offsets, bits, 65, 8),
            lambda: kernels.recover_rows(offsets, offsets, bits[:0], 1, 8),
            lambda: kernels.recover_rows(offsets + 62, offsets, bits, 64, 8),
            lambda: kernels.scan_flips(offsets, offsets, [64], 64, 8),
            lambda: kernels.scan_flips(offsets, offsets - 1, [3], 64, 8),
            lambda: kernels.step_positions(offsets, offsets, offsets + 61, 64),
        ]
        for tier in tiers():
            with kernels.use_tier(tier):
                for call in configuration_errors:
                    with pytest.raises(ConfigurationError):
                        call()
                for call in index_errors:
                    with pytest.raises(IndexError):
                        call()

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
    def test_auto_sized_blocks(self):
        narrow = kernels.pair_block_pairs(8)
        wide = kernels.pair_block_pairs(192)
        assert narrow > wide
        assert narrow <= numpy_tier.MAX_BLOCK_PAIRS
        assert wide >= numpy_tier.MIN_BLOCK_PAIRS
        # Power-of-two blocks whose gather buffer stays near the target.
        assert wide * 192 <= numpy_tier.TARGET_BLOCK_BYTES

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
