"""The shared bit array ``A`` and its on-line fill-fraction tracker ``beta``.

VOS does not store each user's odd sketch separately; every user's ``k``
virtual bits live at hashed positions of one shared array of ``m`` bits.  The
estimator needs to know the probability that a virtual bit read back from the
array is *contaminated* (differs from the user's true odd-sketch bit), and the
paper models that probability with the global fraction of set bits ``beta``.
Maintaining ``beta`` incrementally is what keeps the per-edge update O(1).
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.hashing import PackedBitArray


class SharedBitArray:
    """The shared array ``A`` with an O(1)-maintained fraction of set bits.

    This is a thin wrapper around :class:`~repro.hashing.bitpack.PackedBitArray`
    whose job is to expose exactly the operations VOS performs — xor a bit,
    read a bit, read ``beta`` — and to account its memory as ``m`` bits.

    Parameters
    ----------
    num_bits:
        The array length ``m``.  The paper assumes ``m >> 1000`` so that the
        fill fraction is essentially unchanged by a single update; the class
        works for any positive size but the estimator's accuracy degrades for
        tiny arrays.

    Examples
    --------
    >>> array = SharedBitArray(num_bits=8)
    >>> array.xor_bit(3, 1)
    1
    >>> array.beta
    0.125
    """

    def __init__(self, num_bits: int) -> None:
        if num_bits <= 0:
            raise ConfigurationError(f"num_bits must be positive, got {num_bits}")
        self.num_bits = num_bits
        self._bits = PackedBitArray(num_bits)

    @classmethod
    def from_packed_bits(cls, bits: PackedBitArray) -> "SharedBitArray":
        """Wrap an existing :class:`PackedBitArray` without copying.

        The copy-on-write epoch path builds its overlay bits directly (a
        private mapping of the shared arena patched with the publish delta)
        and injects them here so the frozen sketch view reads them through
        the normal ``A`` interface.
        """
        array = cls.__new__(cls)
        array.num_bits = len(bits)
        array._bits = bits
        return array

    def __len__(self) -> int:
        return self.num_bits

    def xor_bit(self, position: int, value: int = 1) -> int:
        """Xor ``value`` (0 or 1) into ``A[position]`` and return the new bit.

        This is the only write operation VOS performs; flipping a bit keeps
        the running ones-count (and hence ``beta``) exact at O(1) cost, which
        realises the paper's ``beta`` update rule.
        """
        return self._bits.xor_value(position, value)

    def read_bit(self, position: int) -> int:
        """Read ``A[position]``."""
        return self._bits[position]

    def read_bits(self, positions) -> "np.ndarray":
        """Read many positions at once; an index array of any shape keeps its shape.

        This is the bulk-gather primitive of the vectorized query path: one
        call with an ``(n_users, k)`` position matrix recovers ``n_users``
        virtual sketches as a bit matrix.
        """
        return self._bits.gather(positions)

    @property
    def latest_stamp(self) -> int:
        """Stamp of the newest write (:attr:`~repro.hashing.bitpack.PackedBitArray.latest_stamp`).

        Query-side caches of recovered virtual sketches and the LSH signature
        tables key on it to notice that ingest changed the array under them.
        """
        return self._bits.latest_stamp

    def xor_bulk(self, positions) -> int:
        """Xor 1 into every listed position at once (repeats fold modulo 2).

        This is the write primitive of the batched ingest path: a whole batch
        of stream elements collapses into one call, with ``beta`` kept exact.
        Returns the number of bits actually flipped.
        """
        return self._bits.xor_bulk(positions)

    # -- change tracking --------------------------------------------------------------
    #
    # Shard deltas (journal checkpoints, epoch publishes)
    # ship only the 64-bit words changed after a consumer's cursor instead of
    # all ``m`` bits.  The per-word stamps live in the backing PackedBitArray
    # and ride the same mutation paths that advance :attr:`latest_stamp`.

    @property
    def num_words(self) -> int:
        """Number of 64-bit words covering the array (``ceil(m / 64)``)."""
        return self._bits.num_words

    def dirty_words(self, since: int) -> "np.ndarray":
        """Sorted indices of the words changed after cursor ``since``."""
        return self._bits.dirty_words(since)

    #: Kept only because ``perfbench/tracer.py`` wraps this name; it goes
    #: when that tracer entry does.
    epoch_dirty_words = dirty_words

    def packed_words(self, word_indices) -> bytes:
        """Packed bytes (8 per word) of the listed 64-bit words."""
        return self._bits.packed_words(word_indices)

    def apply_packed_words(self, word_indices, data: bytes) -> None:
        """Overwrite the listed words from :meth:`packed_words` bytes (delta replay)."""
        self._bits.apply_packed_words(word_indices, data)

    def bits_buffer(self) -> "np.ndarray":
        """Raw byte-per-bit backing store (no copy; arena materialization)."""
        return self._bits.bits_buffer()

    def to_packed_bytes(self) -> bytes:
        """Serialize the array 8 bits per byte (used by snapshots)."""
        return self._bits.to_packed_bytes()

    def load_packed_bytes(self, data: bytes) -> None:
        """Restore the array from :meth:`to_packed_bytes` output (bit-exact)."""
        self._bits.load_packed_bytes(data)

    @property
    def ones_count(self) -> int:
        """Number of set bits in ``A``."""
        return self._bits.ones_count

    @property
    def beta(self) -> float:
        """The current fraction of set bits (the paper's ``beta^(t)``)."""
        return self._bits.fraction_of_ones

    def clear(self) -> None:
        """Reset the array (used between experiment repetitions)."""
        self._bits.clear()

    def memory_bits(self) -> int:
        """Memory accounted under the paper's model: exactly ``m`` bits."""
        return self.num_bits
