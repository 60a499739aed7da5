"""Families of hash functions indexed by a member number.

Two sketches need a whole family of hash functions:

* MinHash uses ``k`` independent functions ``h_1 ... h_k`` over items:
  :class:`HashFamily`, where ``family[j]`` is a
  :class:`~repro.hashing.universal.UniversalHash` whose seed is derived from
  the family seed and the index ``j``;
* VOS maps each *user* to ``k`` positions ``f_0(u) ... f_{k-1}(u)`` of the
  shared bit array ``A``: :class:`PositionFamily`, one double-hash
  (Kirsch & Mitzenmacher, "Less Hashing, Same Performance", ESA 2006)
  ``f_j(u) = (h1(u) + j * h2(u)) mod m`` whose step ``h2`` is a unit of
  ``Z_m``.  Two hashes per user instead of ``k``, and the family inverts: a
  changed bit of ``A`` names the users and virtual bits it belongs to.

Both are fixed by ``(size, range_size, seed)`` and immutable, so sketches
whose hashes are the same share one family object (every shard of a
:class:`~repro.service.sharding.ShardedVOS` and every epoch view of it)
instead of deriving it again.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.exceptions import ConfigurationError
from repro.hashing.universal import (
    _GOLDEN,
    _MERSENNE_P,
    UniversalHash,
    _mix64,
    coefficient_arrays,
    fingerprint64,
    fingerprint64_array,
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
    vectorized paths (:meth:`hash_pairs`, :meth:`apply_many_array`) and the
    one-member :meth:`hash_pair` read
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
        keys.
        """
        fingerprints = np.fromiter(map(fingerprint64, keys), dtype=np.uint64)
        return numpy_tier.affine_positions(
            fingerprints[:, None], self._coeff_a, self._coeff_b, self.range_size
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
        family member hashes each key.  Runs as one vectorized affine step
        over the selected coefficient pairs, bit-exact with the scalar
        members.  Returns ``int64`` values.
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


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the bases that are exact for every ``n < 3.3 * 10^24``."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for base in bases:
        if n % base == 0:
            return n == base
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in bases:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_factor(n: int) -> int:
    """A non-trivial factor of the odd composite ``n`` (Pollard's rho, Brent's cycle)."""
    for c in range(1, n):
        x = y = 2
        factor = 1
        while factor == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            factor = math.gcd(abs(x - y), n)
        if factor != n:
            return factor
    raise ArithmeticError(f"no factor found for {n}")


@functools.lru_cache(maxsize=64)
def distinct_primes(n: int) -> tuple[int, ...]:
    """The distinct prime factors of ``n >= 1``, ascending."""
    primes: set[int] = set()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % p == 0:
            primes.add(p)
            while n % p == 0:
                n //= p
    pending = [n] if n > 1 else []
    while pending:
        value = pending.pop()
        if _is_probable_prime(value):
            primes.add(value)
            continue
        factor = _pollard_factor(value)
        pending.extend((factor, value // factor))
    return tuple(sorted(primes))


def unit_tests(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``(qinv, qlimit)``: per distinct prime ``q`` of ``m``, ``c`` is a
    multiple of ``q`` exactly when ``c * qinv mod 2^64 <= qlimit``.

    For odd ``q``, ``qinv`` is ``q``'s inverse modulo ``2^64`` and ``qlimit``
    is ``floor((2^64 - 1) / q)``; for ``q = 2`` they are ``2^63`` and
    ``2^63 - 1`` (the product is 0 for even ``c`` and ``2^63`` for odd).
    """
    qinv, qlimit = [], []
    for q in distinct_primes(m):
        if q == 2:
            qinv.append(1 << 63)
            qlimit.append((1 << 63) - 1)
        else:
            qinv.append(pow(q, -1, 1 << 64))
            qlimit.append(((1 << 64) - 1) // q)
    arrays = (np.array(qinv, dtype=np.uint64), np.array(qlimit, dtype=np.uint64))
    for array in arrays:
        array.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class PositionFamily:
    """VOS's user-to-position family: ``f_j(u) = (h1(u) + j * h2(u)) mod m``.

    ``h1`` is a Carter-Wegman hash of the user's fingerprint into
    ``[0, m)``.  ``h2`` is drawn from the units of ``Z_m`` (``gcd(h2, m) =
    1``) by rejection: the first unit among ``w_t mod m`` for a seeded
    Carter-Wegman ``w_0`` and ``w_{t+1} = mix64(w_t ^ GOLDEN) mod (2^61 -
    1)``, or 1 should 256 candidates all share a prime with ``m`` (at
    ``m = 7,680,000`` a candidate is a unit with probability 0.27, so that
    happens with probability ``10^-35``).  Because ``h2`` is a unit:

    * a user's ``size <= m`` positions are distinct, for any ``m``, so every
      array keeps its exact size and ``memory_bits()``;
    * position ``p`` is user ``u``'s virtual bit ``j = (p - h1) * h2^-1 mod
      m`` when that ``j < size``, and no other user bit: a changed bit of the
      array names the rows it changed (:func:`repro.kernels.scan_flips`).

    Construction derives two coefficient pairs (six BLAKE2b digests) and the
    divisibility tests of ``m``'s distinct primes; nothing depends on
    ``size``.  :meth:`offsets` gives the per-user ``(h1, h2, h2^-1)`` that
    batch ingest (:meth:`positions`), row recovery and the flip scan read;
    each sketch keeps them per user, so the rejection runs once per user,
    and its per-element update reads them too.  :meth:`hash_pair` is the
    scalar form for any hashable key.

    >>> family = PositionFamily(size=4, range_size=12, seed=3)
    >>> row = family.apply_many_array([7])[0].tolist()
    >>> len(set(row)) == 4 and all(0 <= p < 12 for p in row)
    True
    """

    size: int
    range_size: int
    seed: int = 0
    _coeff_a: np.ndarray = field(init=False, repr=False, compare=False)
    _coeff_b: np.ndarray = field(init=False, repr=False, compare=False)
    _qinv: np.ndarray = field(init=False, repr=False, compare=False)
    _qlimit: np.ndarray = field(init=False, repr=False, compare=False)
    _scalar_coefficients: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(f"family size must be positive, got {self.size}")
        if not 0 < self.range_size < _MERSENNE_P:
            raise ConfigurationError(
                f"range_size must be in [1, 2^61 - 1), got {self.range_size}"
            )
        if self.size > self.range_size:
            raise ConfigurationError(
                f"{self.size} distinct positions do not fit in {self.range_size}"
            )
        seeds = [stable_hash64(("position-family", self.seed, part)) for part in (0, 1)]
        coeff_a, coeff_b = coefficient_arrays(seeds)
        qinv, qlimit = unit_tests(self.range_size)
        object.__setattr__(self, "_coeff_a", coeff_a)
        object.__setattr__(self, "_coeff_b", coeff_b)
        object.__setattr__(self, "_qinv", qinv)
        object.__setattr__(self, "_qlimit", qlimit)
        object.__setattr__(self, "_scalar_coefficients", (coeff_a.tolist(), coeff_b.tolist()))

    def __len__(self) -> int:
        return self.size

    def _kernel_arguments(self) -> tuple:
        return self._coeff_a, self._coeff_b, self.range_size, self._qinv, self._qlimit

    def offsets(self, fingerprints: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(h1, h2, h2^-1 mod m)`` per ``uint64`` fingerprint, as ``int64``
        (:func:`repro.kernels.offsets`)."""
        return kernels.offsets(fingerprints, *self._kernel_arguments())

    def scalar_offsets(self, fingerprint: int) -> tuple[int, int, int]:
        """:meth:`offsets` of one fingerprint, in Python integers.

        A sketch derives a lone new user's offsets here (the per-element
        update): a kernel call's fixed cost is ~10x this derivation for one
        user.  Bit-exact with both kernel tiers (the parity suite).
        """
        m = self.range_size
        (a0, a1), (b0, b1) = self._scalar_coefficients
        x = fingerprint % _MERSENNE_P
        h1 = (a0 * x + b0) % _MERSENNE_P % m
        w = (a1 * x + b1) % _MERSENNE_P
        step = 1 % m
        for _ in range(numpy_tier.UNIT_ATTEMPTS):
            if math.gcd(w % m, m) == 1:
                step = w % m
                break
            w = _mix64(w ^ _GOLDEN) % _MERSENNE_P
        return h1, step, pow(step, -1, m) if m > 1 else 0

    def hash_pair(self, key: object, member_index: int) -> int:
        """Position ``member_index`` of any hashable ``key``: the scalar form
        of :meth:`hash_pairs`."""
        h1, h2, _ = self.scalar_offsets(fingerprint64(key))
        return (h1 + member_index * h2) % self.range_size

    def positions(self, h1: np.ndarray, h2: np.ndarray, member_indices) -> np.ndarray:
        """Position ``member_indices[i]`` of the user with offsets ``(h1[i],
        h2[i])``, as ``int64``: the VOS batch update's ``f_{psi(item)}(user)``
        for every element, from offsets each shard keeps per user."""
        return kernels.step_positions(h1, h2, member_indices, self.range_size)

    def hash_pairs(self, keys, member_indices) -> np.ndarray:
        """Position ``member_indices[i]`` of integer key ``keys[i]``, as
        ``int64``: :meth:`offsets` of the keys' fingerprints, then
        :meth:`positions`."""
        h1, h2, _ = self.offsets(fingerprint64_array(keys))
        return self.positions(h1, h2, member_indices)

    def apply_many_array(self, keys) -> np.ndarray:
        """All ``size`` positions of many hashable keys: an ``(n, size)``
        ``int64`` matrix, the unfused reference for row recovery."""
        fingerprints = np.fromiter(map(fingerprint64, keys), dtype=np.uint64)
        h1, h2, _ = self.offsets(fingerprints)
        steps = np.arange(self.size, dtype=object)
        return np.array(
            [(int(a) + steps * int(b)) % self.range_size for a, b in zip(h1, h2)],
            dtype=np.int64,
        ).reshape(len(h1), self.size)

    def recover_rows(self, h1: np.ndarray, h2: np.ndarray, packed_bits: np.ndarray) -> np.ndarray:
        """Packed rows of ``packed_bits`` at every position of the users with
        offsets ``h1``/``h2`` (:func:`repro.kernels.recover_rows`)."""
        return kernels.recover_rows(h1, h2, packed_bits, self.range_size, self.size)

    def scan_flips(self, h1: np.ndarray, inverse: np.ndarray, flips) -> tuple[np.ndarray, np.ndarray]:
        """``(users, columns)`` hit by the flipped positions ``flips``
        (:func:`repro.kernels.scan_flips`)."""
        return kernels.scan_flips(h1, inverse, flips, self.range_size, self.size)
