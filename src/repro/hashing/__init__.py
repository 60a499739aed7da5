"""Hashing substrate used by every sketch in the library.

The sketches in this package (MinHash, OPH, odd sketches, VOS) are all built
on top of three primitives:

* :class:`~repro.hashing.universal.UniversalHash` — a seeded 2-universal
  integer hash mapping arbitrary hashable keys into ``{0, ..., range - 1}``.
* :class:`~repro.hashing.families.HashFamily` — an indexed family of
  independent :class:`UniversalHash` instances, used where a sketch needs
  ``k`` independent hash functions (MinHash registers); and
  :class:`~repro.hashing.families.PositionFamily`, the double-hash family of
  the VOS user positions ``f_0 ... f_{k-1}``.
* :class:`~repro.hashing.permutation.RandomPermutation` — a keyed bijection on
  ``{0, ..., n - 1}`` (Feistel network for power-of-two-ish domains, affine
  permutation for prime-friendly domains) used to model the random
  permutations that MinHash and OPH assume.

Everything is deterministic given a seed so experiments are reproducible.
"""

from repro.hashing.bitpack import PackedBitArray, PackedRegisters
from repro.hashing.families import HashFamily, IndexedHash, PositionFamily
from repro.hashing.permutation import AffinePermutation, FeistelPermutation, RandomPermutation
from repro.hashing.universal import UniversalHash, fingerprint64, stable_hash64

__all__ = [
    "UniversalHash",
    "HashFamily",
    "IndexedHash",
    "PositionFamily",
    "RandomPermutation",
    "FeistelPermutation",
    "AffinePermutation",
    "PackedBitArray",
    "PackedRegisters",
    "stable_hash64",
    "fingerprint64",
]
