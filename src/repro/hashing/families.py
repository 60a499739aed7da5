"""Indexed families of independent hash functions.

Several sketches need a whole family of hash functions:

* MinHash uses ``k`` independent functions ``h_1 ... h_k`` over items;
* VOS uses ``k`` independent functions ``f_1 ... f_k`` mapping *users* into
  positions of the shared bit array ``A``.

:class:`HashFamily` provides exactly that: ``family[j]`` is a
:class:`~repro.hashing.universal.UniversalHash` whose seed is derived from the
family seed and the index ``j``, so the whole family is reproducible from a
single integer seed.

A family is fixed by ``(size, range_size, seed)`` and immutable, so sketches
whose hashes are the same share one family object (every shard of a
:class:`~repro.service.sharding.ShardedVOS` and every epoch view of it)
instead of deriving it again.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.exceptions import ConfigurationError
from repro.hashing.universal import (
    _MERSENNE_P,
    UniversalHash,
    coefficient_arrays,
    fingerprint64,
    stable_hash64,
)
from repro.kernels import numpy_tier


@dataclass(frozen=True)
class IndexedHash:
    """A single member ``h_j`` of a :class:`HashFamily`.

    It behaves exactly like the underlying :class:`UniversalHash` but also
    remembers its index within the family, which is convenient when a sketch
    wants to report which register a key landed in.
    """

    index: int
    hash_function: UniversalHash

    def __call__(self, key: object) -> int:
        return self.hash_function(key)

    def value64(self, key: object) -> int:
        return self.hash_function.value64(key)

    def unit_interval(self, key: object) -> float:
        return self.hash_function.unit_interval(key)

    @property
    def range_size(self) -> int:
        return self.hash_function.range_size


@dataclass(frozen=True)
class HashFamily:
    """A reproducible family of ``size`` independent hash functions.

    Member ``j`` is ``UniversalHash(range_size, stable_hash64(("hash-family",
    seed, j)))``.  Construction derives only the members' Carter-Wegman
    coefficients, into two read-only ``uint64`` arrays (three BLAKE2b digests
    per member, :func:`~repro.hashing.universal.coefficient_arrays`).  The
    vectorized paths (:meth:`hash_pairs`, :meth:`recover_rows`,
    :meth:`apply_many_array`) and the one-member :meth:`hash_pair` read
    nothing else.  The :class:`IndexedHash` member objects are built on
    first use (``family[j]``, iteration, :meth:`apply_all`,
    :meth:`min_index`).  The family is immutable, so sketches with the same
    hashes share one object.

    Parameters
    ----------
    size:
        Number of functions in the family (``k`` in the paper's notation).
    range_size:
        Output range of each member function.
    seed:
        Master seed.  Families with different master seeds are independent.

    Examples
    --------
    >>> family = HashFamily(size=4, range_size=100, seed=3)
    >>> len(family)
    4
    >>> values = [h("user-1") for h in family]
    >>> all(0 <= v < 100 for v in values)
    True
    """

    size: int
    range_size: int
    seed: int = 0
    _member_seeds: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _coeff_a: np.ndarray = field(init=False, repr=False, compare=False)
    _coeff_b: np.ndarray = field(init=False, repr=False, compare=False)
    #: Built on first scalar use; two racing threads build equal tuples.
    _members: tuple[IndexedHash, ...] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(f"family size must be positive, got {self.size}")
        if self.range_size <= 0:
            raise ConfigurationError(
                f"range_size must be positive, got {self.range_size}"
            )
        seeds = tuple(stable_hash64(("hash-family", self.seed, j)) for j in range(self.size))
        coeff_a, coeff_b = coefficient_arrays(seeds)
        object.__setattr__(self, "_member_seeds", seeds)
        object.__setattr__(self, "_coeff_a", coeff_a)
        object.__setattr__(self, "_coeff_b", coeff_b)

    def _member_tuple(self) -> tuple[IndexedHash, ...]:
        members = self._members
        if members is None:
            members = tuple(
                IndexedHash(index=j, hash_function=UniversalHash(self.range_size, seed))
                for j, seed in enumerate(self._member_seeds)
            )
            object.__setattr__(self, "_members", members)
        return members

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: int) -> IndexedHash:
        return self._member_tuple()[index]

    def __iter__(self) -> Iterator[IndexedHash]:
        return iter(self._member_tuple())

    def apply_all(self, key: object) -> list[int]:
        """Hash ``key`` with every member function and return the values in order."""
        return [member(key) for member in self._member_tuple()]

    def apply_many_array(self, keys) -> np.ndarray:
        """Vectorized :meth:`apply_all` for many keys: an ``(n, size)`` ``int64`` matrix.

        Row ``i`` is bit-exact with ``apply_all(keys[i])`` for any hashable
        keys: the unfused parity reference for :meth:`recover_rows`.
        """
        fingerprints = np.fromiter(map(fingerprint64, keys), dtype=np.uint64)
        return numpy_tier.affine_positions(
            fingerprints[:, None], self._coeff_a, self._coeff_b, self.range_size
        )

    def recover_rows(self, fingerprints: np.ndarray, packed_bits: np.ndarray) -> np.ndarray:
        """Packed rows of ``packed_bits`` at every member's position, one per fingerprint.

        Row ``i`` packs ``bits[self[j](key)]`` for ``fingerprint64(key) ==
        fingerprints[i]`` (:func:`repro.kernels.recover_rows`).
        """
        return kernels.recover_rows(
            fingerprints, self._coeff_a, self._coeff_b, packed_bits, self.range_size, self.size
        )

    def hash_pair(self, key: object, member_index: int) -> int:
        """``self[member_index](key)``, read straight from the coefficient arrays.

        The scalar form of :meth:`hash_pairs` for any hashable key: the VOS
        per-element update, which flips one bit, builds no member objects.
        """
        a = int(self._coeff_a[member_index])
        b = int(self._coeff_b[member_index])
        return ((a * fingerprint64(key) + b) % _MERSENNE_P) % self.range_size

    def hash_pairs(self, keys, member_indices) -> np.ndarray:
        """Evaluate ``self[member_indices[i]](keys[i])`` for a whole batch at once.

        ``keys`` is an integer-key array and ``member_indices`` selects which
        family member hashes each key.  This is the shape of the VOS batch
        update — position ``f_{psi(item)}(user)`` for every element — and runs
        as one vectorized affine step over the selected coefficient pairs,
        bit-exact with the scalar members.  Returns ``int64`` values.
        """
        return kernels.hash_keys(
            keys, self._coeff_a, self._coeff_b, member_indices, self.range_size
        )

    def min_index(self, key: object) -> int:
        """Return the index of the member giving ``key`` its smallest wide hash.

        This is occasionally useful for diagnostics (e.g. inspecting how a key
        distributes across the family) and for tie-breaking strategies.
        """
        members = self._member_tuple()
        return min(range(self.size), key=lambda j: members[j].value64(key))
