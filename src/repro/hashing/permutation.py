"""Keyed pseudo-random permutations over bounded integer domains.

MinHash and OPH are defined in terms of *random permutations* of the item
universe ``I = {0, ..., p - 1}``.  In practice libraries approximate the
permutation with a hash function, but having a true bijection available is
useful in two places:

* the OPH construction in the paper partitions the permuted universe into
  ``k`` equal bins, which is easiest to state (and test) with a genuine
  permutation;
* unit and property tests can verify bijectivity, which catches seeding bugs
  that a plain hash would hide.

Two constructions are provided:

* :class:`FeistelPermutation` — a 4-round Feistel network over ``{0, ..., 2^(2w) - 1}``
  restricted to an arbitrary domain size via cycle-walking.  Works for any
  domain size and is the default.
* :class:`AffinePermutation` — the map ``x -> (a * x + b) mod n`` with
  ``gcd(a, n) = 1``.  Cheaper but less "random looking"; kept for tests and
  as a baseline.

``RandomPermutation`` is an alias for the recommended default
(:class:`FeistelPermutation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.hashing.universal import stable_hash64

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class FeistelPermutation:
    """A keyed bijection on ``{0, ..., domain_size - 1}``.

    The permutation is a balanced 4-round Feistel network over ``2w`` bits
    where ``w = ceil(log2(domain_size) / 2)``; outputs that fall outside the
    domain are cycle-walked (the permutation is re-applied until the value
    lands inside the domain), which preserves bijectivity on the restricted
    domain.

    Examples
    --------
    >>> perm = FeistelPermutation(domain_size=10, seed=1)
    >>> sorted(perm(x) for x in range(10)) == list(range(10))
    True
    """

    domain_size: int
    seed: int = 0
    rounds: int = 4
    _half_bits: int = field(init=False, repr=False, compare=False)
    _half_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.domain_size <= 0:
            raise ConfigurationError(
                f"domain_size must be positive, got {self.domain_size}"
            )
        if self.rounds < 2:
            raise ConfigurationError(f"rounds must be >= 2, got {self.rounds}")
        bits = max(2, self.domain_size - 1).bit_length()
        half_bits = (bits + 1) // 2
        object.__setattr__(self, "_half_bits", half_bits)
        object.__setattr__(self, "_half_mask", (1 << half_bits) - 1)

    @property
    def _block_size(self) -> int:
        return 1 << (2 * self._half_bits)

    def _round_function(self, round_index: int, value: int) -> int:
        return stable_hash64(("feistel", self.seed, round_index, value)) & self._half_mask

    def _encrypt_block(self, value: int) -> int:
        left = (value >> self._half_bits) & self._half_mask
        right = value & self._half_mask
        for round_index in range(self.rounds):
            left, right = right, left ^ self._round_function(round_index, right)
        return (left << self._half_bits) | right

    def __call__(self, value: int) -> int:
        """Permute ``value``; raises :class:`ConfigurationError` if out of domain."""
        if not 0 <= value < self.domain_size:
            raise ConfigurationError(
                f"value {value} outside permutation domain [0, {self.domain_size})"
            )
        out = self._encrypt_block(value)
        # Cycle-walk: the Feistel block covers [0, 2^(2w)); re-apply until we
        # land back inside [0, domain_size).  Expected number of steps is
        # block_size / domain_size <= 4.
        while out >= self.domain_size:
            out = self._encrypt_block(out)
        return out

    def inverse(self, value: int) -> int:
        """Return the preimage of ``value`` under the permutation."""
        if not 0 <= value < self.domain_size:
            raise ConfigurationError(
                f"value {value} outside permutation domain [0, {self.domain_size})"
            )
        out = self._decrypt_block(value)
        while out >= self.domain_size:
            out = self._decrypt_block(out)
        return out

    def _decrypt_block(self, value: int) -> int:
        left = (value >> self._half_bits) & self._half_mask
        right = value & self._half_mask
        for round_index in reversed(range(self.rounds)):
            left, right = right ^ self._round_function(round_index, left), left
        return (left << self._half_bits) | right


@dataclass(frozen=True)
class AffinePermutation:
    """The bijection ``x -> (a * x + b) mod domain_size`` with ``gcd(a, n) = 1``.

    The multiplier and offset are derived from the seed; the multiplier is
    nudged upward until it is coprime with the domain size so the map is a
    permutation for every domain size.
    """

    domain_size: int
    seed: int = 0
    #: ``(a, b)``, derived from ``seed`` once at construction.
    _coefficients: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.domain_size <= 0:
            raise ConfigurationError(
                f"domain_size must be positive, got {self.domain_size}"
            )
        n = self.domain_size
        a = stable_hash64(("affine-a", self.seed)) % n
        a = max(a, 1)
        while math.gcd(a, n) != 1:
            a = (a + 1) % n or 1
        b = stable_hash64(("affine-b", self.seed)) % n
        object.__setattr__(self, "_coefficients", (a, b))

    def __call__(self, value: int) -> int:
        if not 0 <= value < self.domain_size:
            raise ConfigurationError(
                f"value {value} outside permutation domain [0, {self.domain_size})"
            )
        a, b = self._coefficients
        return (a * value + b) % self.domain_size

    def inverse(self, value: int) -> int:
        if not 0 <= value < self.domain_size:
            raise ConfigurationError(
                f"value {value} outside permutation domain [0, {self.domain_size})"
            )
        a, b = self._coefficients
        a_inv = pow(a, -1, self.domain_size)
        return (a_inv * (value - b)) % self.domain_size


# Default permutation used across the library.
RandomPermutation = FeistelPermutation
