"""Seeded, 2-universal hashing of arbitrary keys into bounded integer ranges.

The paper's constructions need hash functions with two properties:

1. they must behave like independent random functions across different seeds
   (MinHash needs ``k`` independent functions; VOS needs ``psi`` for items and
   ``f_1 ... f_k`` for users), and
2. they must be *stable* across processes so experiments are reproducible
   (Python's builtin :func:`hash` is salted per process and cannot be used).

``stable_hash64`` provides a deterministic 64-bit fingerprint of any hashable
key.  :class:`UniversalHash` composes that fingerprint with a seeded
multiply-shift / modular affine step which is 2-universal over the 64-bit
fingerprint domain, and finally reduces into the requested range.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError

_MASK64 = (1 << 64) - 1
# Mersenne prime 2^61 - 1: the classic modulus for Carter-Wegman hashing.
_MERSENNE_P = (1 << 61) - 1

# Fixed 64-bit odd constants for the SplitMix64-style integer mixer.
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finaliser: a fast, well-distributed 64-bit mixer."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX_C1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_C2) & _MASK64
    x ^= x >> 31
    return x


def fingerprint64(key: object) -> int:
    """Return a process-stable 64-bit fingerprint of ``key``.

    Integers are mixed directly (fast path for the hot loops where keys are
    item/user identifiers); every other hashable key goes through BLAKE2b of
    its ``repr``.  Two distinct integers never collide through the fast path
    because :func:`_mix64` is a bijection on 64-bit integers for keys that
    already fit into 64 bits.
    """
    if isinstance(key, bool):
        # bool is an int subclass, but "True" and 1 should still agree with
        # the integer fast path for predictability.
        key = int(key)
    if isinstance(key, int):
        return _mix64(key ^ _GOLDEN)
    data = repr(key).encode("utf-8", "surrogatepass")
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stable_hash64(key: object, seed: int = 0) -> int:
    """Return a seeded, process-stable 64-bit hash of ``key``.

    Different seeds give (empirically and by construction) independent-looking
    outputs for the same key, which is what the sketch constructions rely on.
    """
    return _mix64(fingerprint64(key) ^ _mix64(seed ^ _GOLDEN))


# -- vectorized integer hashing -------------------------------------------------------
#
# The batch-ingest fast path (``repro.service``) hashes whole numpy arrays of
# integer keys at once.  The functions below reproduce ``fingerprint64`` and
# the Carter-Wegman affine step *bit-exactly* on ``uint64`` arrays: the 128-bit
# product ``a * x`` is computed with four 32-bit limb products and reduced with
# the Mersenne identity ``2^61 ≡ 1 (mod p)``, so no intermediate ever overflows
# a 64-bit lane.

_MASK32 = (1 << 32) - 1
_MASK29 = (1 << 29) - 1
_P64 = np.uint64(_MERSENNE_P)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_mix64` over a ``uint64`` array."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(_MIX_C1)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(_MIX_C2)
    x = x ^ (x >> np.uint64(31))
    return x


def _subtract_p_where_needed(r: np.ndarray) -> np.ndarray:
    """One conditional subtraction of the Mersenne prime.

    ``r - p`` wraps past zero exactly when ``r < p`` and then exceeds ``r``
    (``p < 2^64``), so the minimum is ``r - p`` iff ``r >= p``.  The ufunc
    form wraps silently for 0-d inputs too, where scalar ``-`` would warn.
    """
    return np.minimum(r, np.subtract(r, _P64))


def _reduce_mod_mersenne(x: np.ndarray) -> np.ndarray:
    """Reduce a ``uint64`` array modulo ``2^61 - 1`` (result < p)."""
    return _subtract_p_where_needed((x >> np.uint64(61)) + (x & _P64))


def _affine_mod_mersenne(x: np.ndarray, a, b) -> np.ndarray:
    """Compute ``(a * x + b) mod (2^61 - 1)`` elementwise without overflow.

    ``x`` is a ``uint64`` array of arbitrary 64-bit values; ``a`` and ``b`` are
    coefficients below the Mersenne prime (scalars or broadcastable arrays).
    """
    x = _reduce_mod_mersenne(np.asarray(x, dtype=np.uint64))
    a = np.asarray(a, dtype=np.uint64)
    x_hi, x_lo = x >> np.uint64(32), x & np.uint64(_MASK32)
    a_hi, a_lo = a >> np.uint64(32), a & np.uint64(_MASK32)
    # a * x = hh * 2^64 + mid * 2^32 + ll, with every limb product < 2^64.
    hh = a_hi * x_hi                     # < 2^58
    mid = a_hi * x_lo + a_lo * x_hi      # < 2^62 < 2p
    ll = a_lo * x_lo                     # < 2^64
    term_hh = _subtract_p_where_needed(hh * np.uint64(8))  # 2^64 ≡ 8 (mod p); < 2^61
    mid = _subtract_p_where_needed(mid)
    # mid * 2^32 = (mid >> 29) * 2^61 + (mid & mask29) * 2^32 ≡ sum of the two.
    term_mid = _subtract_p_where_needed(
        (mid >> np.uint64(29)) + ((mid & np.uint64(_MASK29)) << np.uint64(32))
    )
    total = term_hh + term_mid + _reduce_mod_mersenne(ll)  # < 3p < 2^63
    total = _subtract_p_where_needed(_subtract_p_where_needed(total))
    return _subtract_p_where_needed(total + np.asarray(b, dtype=np.uint64))


def fingerprint64_array(keys) -> np.ndarray:
    """Vectorized :func:`fingerprint64` for arrays of integer keys.

    Accepts any integer-dtype array (or nested sequence convertible to one);
    signed values wrap through two's complement exactly like the scalar path's
    64-bit masking, so ``fingerprint64_array([k])[0] == fingerprint64(k)`` for
    every integer representable in 64 bits.
    """
    arr = np.asarray(keys)
    if arr.dtype.kind not in "iu":
        raise ConfigurationError(
            f"fingerprint64_array needs an integer array, got dtype {arr.dtype}"
        )
    return _mix64_array(arr.astype(np.uint64) ^ np.uint64(_GOLDEN))


def universal_coefficients(seed: int) -> tuple[int, int]:
    """The Carter-Wegman ``(a, b)`` of the :class:`UniversalHash` with ``seed``.

    ``a`` lies in ``[1, p)`` and ``b`` in ``[0, p)`` for the Mersenne prime
    ``p``; deriving them costs two BLAKE2b digests.
    """
    a = stable_hash64(("uh-a", seed)) % (_MERSENNE_P - 1) + 1
    b = stable_hash64(("uh-b", seed)) % _MERSENNE_P
    return a, b


def coefficient_arrays(seeds) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``uint64`` arrays of the :func:`universal_coefficients` of ``seeds``.

    Entry ``j`` of the two arrays is the ``(a, b)`` of
    ``UniversalHash(range_size, seeds[j])`` for any ``range_size``: the form
    the kernels' multi-hash entry points (:func:`repro.kernels.hash_keys`,
    ``recover_rows``, ``band_signatures``) take.  No ``UniversalHash`` object
    is built.  The arrays are read-only because hash families share them.
    """
    pairs = [universal_coefficients(seed) for seed in seeds]
    coeff_a = np.array([a for a, _ in pairs], dtype=np.uint64)
    coeff_b = np.array([b for _, b in pairs], dtype=np.uint64)
    coeff_a.setflags(write=False)
    coeff_b.setflags(write=False)
    return coeff_a, coeff_b


@dataclass(frozen=True)
class UniversalHash:
    """A seeded hash function mapping hashable keys into ``{0, ..., range_size - 1}``.

    The function is a Carter-Wegman affine map ``(a * x + b) mod p`` over the
    64-bit fingerprint of the key, with ``p`` the Mersenne prime ``2^61 - 1``,
    followed by reduction modulo ``range_size``.  The coefficients ``a`` and
    ``b`` are derived deterministically from ``seed`` so that a
    ``UniversalHash`` can be reconstructed from ``(seed, range_size)`` alone.

    Parameters
    ----------
    range_size:
        Size of the output range; outputs lie in ``[0, range_size)``.
    seed:
        Any integer.  Hash functions with different seeds behave
        independently.

    Examples
    --------
    >>> h = UniversalHash(range_size=16, seed=7)
    >>> 0 <= h("item-42") < 16
    True
    >>> h("item-42") == UniversalHash(range_size=16, seed=7)("item-42")
    True
    """

    range_size: int
    seed: int = 0
    #: ``(a, b)``, derived from ``seed`` once at construction: every scalar
    #: hash reads them, and deriving them costs two BLAKE2b digests.
    _coefficients: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.range_size <= 0:
            raise ConfigurationError(
                f"range_size must be positive, got {self.range_size}"
            )
        object.__setattr__(self, "_coefficients", universal_coefficients(self.seed))

    def __call__(self, key: object) -> int:
        """Hash ``key`` into ``[0, range_size)``."""
        a, b = self._coefficients
        x = fingerprint64(key)
        return ((a * x + b) % _MERSENNE_P) % self.range_size

    def value64(self, key: object) -> int:
        """Hash ``key`` into the full 61-bit range (before range reduction).

        MinHash compares hash values for minima; using the wide value avoids
        the extra collisions that range reduction would introduce.
        """
        a, b = self._coefficients
        x = fingerprint64(key)
        return (a * x + b) % _MERSENNE_P

    def unit_interval(self, key: object) -> float:
        """Hash ``key`` to a float uniform in ``[0, 1)``.

        Useful for consistent-weighted-sampling style constructions that need
        uniform variates that are a deterministic function of the key.
        """
        return self.value64(key) / _MERSENNE_P

    def value64_array(self, keys) -> np.ndarray:
        """Vectorized :meth:`value64` over an integer-key array (``uint64`` result)."""
        a, b = self._coefficients
        return _affine_mod_mersenne(fingerprint64_array(keys), a, b)

    def hash_array(self, keys) -> np.ndarray:
        """Vectorized :meth:`__call__`: hash an integer-key array into the range.

        Bit-exact with the scalar path — ``hash_array(ks)[i] == self(ks[i])``
        for every 64-bit integer key — but orders of magnitude faster for
        large batches.  Returns an ``int64`` array (convenient for indexing).
        """
        # Imported here: the kernel package's NumPy tier imports this module.
        from repro import kernels

        a, b = self._coefficients
        return kernels.hash_keys(
            keys, np.array([a], np.uint64), np.array([b], np.uint64), None, self.range_size
        )
