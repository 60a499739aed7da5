"""NumPy kernel tier: the always-available, bit-identical fallback.

This module owns the pure-NumPy implementations of the hot primitives
behind the read and ingest paths (see :mod:`repro.kernels` for the dispatch layer):

* :func:`pair_counts` — popcount of ``rows[a] ^ rows[b]`` per candidate pair,
  processed in cache-sized blocks with preallocated gather/xor scratch
  buffers so the hot loop never allocates a fresh block-sized temporary.
* :func:`hash_keys` — seeded Carter-Wegman hashing of an integer-key column
  (the ingest path's item and position hashes).
* :func:`recover_rows` — packed virtual-sketch rows: a block of users'
  positions (:func:`affine_positions`) gathered from the packed array.
* :func:`xor_positions` — the ingest write: xor 1 into listed bit positions
  of the packed array, repeats folded modulo 2 by one sort.
* :func:`band_signatures` — the LSH banding fold: per-band SplitMix64 chains,
  per-band set-bit counts, a whole-row residual fold, and the Carter-Wegman
  affine signature hash, all bit-identical to the scalar definitions in
  :mod:`repro.hashing.universal`.

Block sizing is derived from the packed row width instead of a fixed pair
count: small sketches (8 bytes/row) get 64k-pair blocks while wide ones
(192 bytes/row at k=1536) drop to 2k pairs, keeping each gather buffer near
:data:`TARGET_BLOCK_BYTES` regardless of geometry.
"""

from __future__ import annotations

import numpy as np

# The popcount lives in the leaf bit-array module; tests patch this module's name.
from repro.hashing.bitpack import _bitwise_count, _popcount_table  # noqa: F401
from repro.hashing.bitpack import gather_bits
from repro.hashing.universal import (
    _GOLDEN,
    _affine_mod_mersenne,
    _mix64_array,
    fingerprint64_array,
)

__all__ = [
    "MAX_BLOCK_PAIRS",
    "MIN_BLOCK_PAIRS",
    "TARGET_BLOCK_BYTES",
    "affine_positions",
    "band_signatures",
    "hash_keys",
    "pair_block_pairs",
    "pair_counts",
    "recover_rows",
    "xor_positions",
]


#: Target bytes per gather buffer in the blocked pair sweep.  Two gather
#: buffers of this size plus the xor result (reusing one of them) fit in a
#: typical L2 slice; measured sweeps show L2-resident blocks beat larger
#: LLC-sized ones by ~20% on wide rows.
TARGET_BLOCK_BYTES = 1 << 19

#: Floor on the block size so narrow rows never degenerate into tiny blocks
#: dominated by Python loop overhead.
MIN_BLOCK_PAIRS = 1 << 11

#: Ceiling so index arrays for one block stay small even for 8-byte rows.
MAX_BLOCK_PAIRS = 1 << 20


def pair_block_pairs(row_bytes: int) -> int:
    """Pairs per scoring block, auto-sized from the packed row width.

    Picks the largest power of two whose gather buffer stays at or under
    :data:`TARGET_BLOCK_BYTES`, clamped into
    ``[MIN_BLOCK_PAIRS, MAX_BLOCK_PAIRS]``.
    """
    budget = TARGET_BLOCK_BYTES // max(1, int(row_bytes))
    if budget <= MIN_BLOCK_PAIRS:
        return MIN_BLOCK_PAIRS
    return min(MAX_BLOCK_PAIRS, 1 << (budget.bit_length() - 1))


def pair_counts(rows: np.ndarray, index_a: np.ndarray, index_b: np.ndarray) -> np.ndarray:
    """Popcount of ``rows[index_a[t]] ^ rows[index_b[t]]`` for every pair ``t``.

    ``rows`` is a matrix of bit-packed sketches (one user per row).  Rows
    padded to whole 64-bit words (see
    :func:`repro.kernels.packed_row_bytes`) are processed as ``uint64``
    lanes; byte widths that are not a multiple of 8 fall back to per-byte
    lanes, bit-identically.  Gather and xor reuse two preallocated scratch
    buffers across blocks, so the sweep's only per-block allocation is the
    popcount output (measurably cheaper than popcounting in place).
    """
    words = rows.view(np.uint64) if rows.shape[1] % 8 == 0 else rows
    n_pairs = int(index_a.shape[0])
    counts = np.empty(n_pairs, dtype=np.int64)
    if n_pairs == 0:
        return counts
    # One up-front bounds check keeps the old fancy-indexing error semantics
    # while the per-block gathers run with ``mode="clip"`` — ``np.take``'s
    # default per-element bounds checking costs ~3x on the gather.
    n_rows = words.shape[0]
    for index in (index_a, index_b):
        if index.size and (int(index.min()) < 0 or int(index.max()) >= n_rows):
            raise IndexError(
                f"pair index out of bounds for {n_rows} rows "
                f"(range [{int(index.min())}, {int(index.max())}])"
            )
    block = min(pair_block_pairs(rows.shape[1]), n_pairs)
    scratch_a = np.empty((block, words.shape[1]), dtype=words.dtype)
    scratch_b = np.empty((block, words.shape[1]), dtype=words.dtype)
    for start in range(0, n_pairs, block):
        stop = min(start + block, n_pairs)
        size = stop - start
        gathered_a = scratch_a[:size]
        gathered_b = scratch_b[:size]
        np.take(words, index_a[start:stop], axis=0, out=gathered_a, mode="clip")
        np.take(words, index_b[start:stop], axis=0, out=gathered_b, mode="clip")
        np.bitwise_xor(gathered_a, gathered_b, out=gathered_a)
        np.sum(_bitwise_count(gathered_a), axis=1, dtype=np.int64, out=counts[start:stop])
    return counts


def band_signatures(
    words: np.ndarray,
    bands: int,
    rows_per_band: int,
    coeff_a: np.ndarray,
    coeff_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Band signature table and per-band set-bit counts for packed rows.

    ``words`` is the ``(n_users, row_words)`` ``uint64`` view of the packed
    rows.  Each of the ``bands`` bands folds its ``rows_per_band`` words
    through the SplitMix64 chain ``folded = mix64(folded ^ word)``; the
    residual column folds the *whole* row.  Folded values are fingerprinted
    (``mix64(v ^ GOLDEN)``) and mapped through the Carter-Wegman affine hash
    ``(a * x + b) mod (2^61 - 1)`` with per-column coefficients ``coeff_a`` /
    ``coeff_b`` (``bands + 1`` entries; the last pair is the residual hash).

    Returns ``(signatures, set_bits)``: signatures is ``(n_users, bands + 1)``
    ``uint64``; set_bits is ``(n_users, bands)`` ``int64`` counts of set bits
    per band (validity floors are applied by the caller).
    """
    n_users, row_words = words.shape
    columns = bands + 1
    signatures = np.empty((n_users, columns), dtype=np.uint64)
    set_bits = np.empty((n_users, bands), dtype=np.int64)
    if n_users == 0:
        return signatures, set_bits
    golden = np.uint64(_GOLDEN)
    banded = words[:, : bands * rows_per_band].reshape(n_users, bands, rows_per_band)
    folded = banded[:, :, 0]
    for word in range(1, rows_per_band):
        folded = _mix64_array(folded ^ banded[:, :, word])
    np.sum(_bitwise_count(banded), axis=2, dtype=np.int64, out=set_bits)
    for band in range(bands):
        keys = _mix64_array(np.ascontiguousarray(folded[:, band]) ^ golden)
        signatures[:, band] = _affine_mod_mersenne(keys, coeff_a[band], coeff_b[band])
    residual = words[:, 0]
    for word in range(1, row_words):
        residual = _mix64_array(residual ^ words[:, word])
    keys = _mix64_array(np.ascontiguousarray(residual) ^ golden)
    signatures[:, bands] = _affine_mod_mersenne(keys, coeff_a[bands], coeff_b[bands])
    return signatures, set_bits


def hash_keys(
    keys: np.ndarray,
    coeff_a: np.ndarray,
    coeff_b: np.ndarray,
    members: np.ndarray | None,
    range_size: int,
) -> np.ndarray:
    """``((a[m] * fingerprint64(k) + b[m]) mod p) mod range_size`` per key.

    ``m`` is ``members[i]``, or ``0`` when ``members`` is ``None``; the result
    is ``int64``.  Bit-exact with the scalar
    :class:`~repro.hashing.universal.UniversalHash` members.
    """
    if members is not None:
        coeff_a, coeff_b = coeff_a[members], coeff_b[members]
    else:
        coeff_a, coeff_b = coeff_a[0], coeff_b[0]
    return affine_positions(fingerprint64_array(keys), coeff_a, coeff_b, range_size)


def affine_positions(
    fingerprints: np.ndarray, coeff_a: np.ndarray, coeff_b: np.ndarray, range_size: int
) -> np.ndarray:
    """``((a * fingerprint + b) mod p) mod range_size``, broadcast, as ``int64``.

    Fingerprints shaped ``(n, 1)`` against ``k`` coefficients give the
    ``(n, k)`` position matrix of a hash family.
    """
    wide = _affine_mod_mersenne(fingerprints, coeff_a, coeff_b)
    return (wide % np.uint64(range_size)).astype(np.int64)


def recover_rows(
    fingerprints: np.ndarray,
    coeff_a: np.ndarray,
    coeff_b: np.ndarray,
    packed_bits: np.ndarray,
    num_bits: int,
    k: int,
    row_bytes: int,
) -> np.ndarray:
    """Packed rows of the bits at :func:`affine_positions` over ``k`` coefficients.

    Users go a block at a time, so the affine step's ~20 elementwise passes
    each stay within a :data:`TARGET_BLOCK_BYTES` buffer.
    """
    n = fingerprints.shape[0]
    rows = np.zeros((n, row_bytes), dtype=np.uint8)
    coeff_a, coeff_b = coeff_a[:k], coeff_b[:k]
    block = max(1, TARGET_BLOCK_BYTES // (8 * k))
    for start in range(0, n, block):
        positions = affine_positions(
            fingerprints[start : start + block, None], coeff_a, coeff_b, num_bits
        )
        rows[start : start + block, : (k + 7) // 8] = np.packbits(
            gather_bits(packed_bits, positions), axis=1
        )
    return rows


def xor_positions(packed_bits: np.ndarray, positions: np.ndarray) -> tuple[int, int, np.ndarray]:
    """Xor 1 into bit ``positions[i]`` of ``packed_bits`` for every ``i``.

    ``positions`` is an ``int64`` column checked to lie in range; a position
    listed an even number of times ends unchanged.  Returns ``(flipped,
    ones_change, words)``: the bits that changed, the popcount change and the
    indices of the 64-bit words holding them (a word repeats once per changed
    bit in it).  The parity reference for the native tier.
    """
    # Sort-based fold: for the typical batch the position count is far
    # below the array length, so np.unique beats an array-length bincount.
    unique_positions, counts = np.unique(positions, return_counts=True)
    odd = unique_positions[(counts & 1).astype(bool)]
    if odd.size == 0:
        return 0, 0, odd
    byte_index = odd >> 3
    masks = np.right_shift(np.uint8(0x80), odd.astype(np.uint8) & 7)
    previously_set = int(np.count_nonzero(packed_bits[byte_index] & masks))
    # Distinct positions may share a byte: ``.at`` applies every mask.
    np.bitwise_xor.at(packed_bits, byte_index, masks)
    return int(odd.size), int(odd.size) - 2 * previously_set, odd >> 6
