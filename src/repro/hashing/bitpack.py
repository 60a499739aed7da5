"""Compact bit arrays and fixed-width register arrays.

Two storage primitives shared by the sketches:

* :class:`PackedBitArray` — a dense array of single bits, stored 8 per
  byte, with O(1) get/flip and an O(1) running count of set bits.  This
  backs both per-user odd sketches and the VOS shared array ``A`` (where the
  running popcount is exactly the paper's ``beta`` tracker, up to division
  by ``m``).
* :class:`PackedRegisters` — an array of fixed-width unsigned registers
  (e.g. 32-bit MinHash registers, b-bit fingerprints) stored in a numpy
  vector, with explicit accounting of the memory they represent.  The
  evaluation harness uses this accounting to put all methods under the same
  memory budget ``m = 32 * k * |U|`` bits, mirroring Section V of the paper.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

import numpy as np

from repro.exceptions import ConfigurationError

#: The process-wide change clock.  Every mutation of a tracked array or
#: counter takes a fresh stamp, and a consumer that wants "everything changed
#: after now" takes one as its cursor.  ``itertools.count`` advances
#: atomically under the GIL, so stamps are unique and monotone across threads
#: and comparable across every array and sketch in the process.
next_stamp = itertools.count(1).__next__

_POPCOUNT8 = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)


def _popcount_table(values: np.ndarray) -> np.ndarray:
    """Per-element popcount via a byte table (fallback for numpy < 2.0).

    Wide lanes (e.g. the ``uint64`` words the pair kernels operate on) are
    reinterpreted as bytes first, so each element's count is spread over its
    bytes — summing the last axis therefore gives the same totals as
    ``np.bitwise_count``.
    """
    return _POPCOUNT8[np.ascontiguousarray(values).view(np.uint8)]


# numpy >= 2.0 has a native popcount ufunc; the byte table is the fallback.
_bitwise_count = getattr(np, "bitwise_count", _popcount_table)


def gather_bits(packed: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The bits of ``np.packbits``-order bytes at unchecked ``int64`` positions, as 0/1."""
    bits = np.take(packed, positions >> 3)
    shift = positions.astype(np.uint8)
    shift &= 7
    # uint8 shifts drop the bits above the wanted one, then bring it down.
    bits <<= shift
    bits >>= 7
    return bits


class PackedBitArray:
    """A mutable array of bits with an O(1) running population count.

    Bits are stored 8 per byte in ``np.packbits`` (big-endian) order — bit
    ``i`` is mask ``0x80 >> (i & 7)`` of byte ``i >> 3`` — in a
    ``numpy.uint8`` vector zero-padded to whole 64-bit words.  Those are the
    bytes snapshots, journal deltas and epoch copies ship, so each of those
    boundaries is a byte slice, and the array occupies the one bit per
    position that :meth:`memory_bits` accounts for (plus under 64 pad bits,
    which are always zero).

    Examples
    --------
    >>> bits = PackedBitArray(8)
    >>> bits.flip(3)
    1
    >>> bits[3], bits.ones_count
    (1, 1)
    >>> bits.fraction_of_ones
    0.125
    """

    __slots__ = ("_size", "_bytes", "_ones", "_stamps", "_floor", "_latest")

    #: Bits per change-tracking word: one changed word is exactly 8 bytes of
    #: storage, the unit a shard delta ships.
    WORD_BITS = 64

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigurationError(f"bit array size must be positive, got {size}")
        self._size = size
        self._bytes = np.zeros(8 * self.num_words, dtype=np.uint8)
        self._ones = 0
        self._reset_stamps(0)

    def copy(self) -> "PackedBitArray":
        """An untracked copy of the same class: equal bits, no stamp memory.

        The copy keeps the source's :attr:`latest_stamp`, which is truthful
        because the bits are equal, so views derived from the source's bits
        stay valid for the copy until it is written.  The copy-on-publish
        epoch path copies a shard's array and patches the copy with
        ``apply_packed_words(..., track=False)``.
        """
        clone = object.__new__(type(self))
        clone._size = self._size
        clone._bytes = self._bytes.copy()
        clone._ones = self._ones
        clone._reset_stamps(0)
        clone._latest = self._latest
        return clone

    # -- change tracking ---------------------------------------------------------
    #
    # One generation stamp per 64-bit word records when the word last changed
    # (stamps come from :func:`next_stamp`).  Each consumer of changes — the
    # journal and the epoch publisher — keeps its own cursor and
    # asks for the words stamped after it, so no consumer ever clears state
    # another one still needs.  ``_floor`` is the stamp of the last wholesale
    # change (0 for a fresh array, the reset stamp after :meth:`clear` /
    # :meth:`load_packed_bytes`); a word whose entry is 0 last changed then.
    # The per-word array is allocated zeroed on the first partial mutation,
    # so read-only and frozen arrays carry no stamp memory and untouched
    # pages stay unmapped.  ``_latest`` is the stamp of the newest mutation,
    # tracked or not: it answers "nothing changed since the cursor" without a
    # scan, and caches of derived views key on it (:attr:`latest_stamp`).

    def _reset_stamps(self, stamp: int) -> None:
        self._stamps = None
        self._floor = stamp
        self._latest = stamp

    def _stamp_words(self, words) -> None:
        if self._stamps is None:
            self._stamps = np.zeros(self.num_words, dtype=np.int64)
        stamp = next_stamp()
        self._stamps[words] = stamp
        self._latest = stamp

    def _locate(self, index: int) -> tuple[int, int]:
        """Byte offset and bit mask of position ``index``.

        Checked explicitly: the pad bytes past the last position are valid
        numpy indices, and a negative index must not wrap around.
        """
        if not 0 <= index < self._size:
            raise IndexError(f"bit index {index} out of range [0, {self._size})")
        return index >> 3, 0x80 >> (index & 7)

    def _check_positions(self, positions: np.ndarray, caller: str) -> None:
        # One reduction: viewed as uint64, a negative position is huge.
        if positions.size and int(positions.view(np.uint64).max()) >= self._size:
            raise IndexError(
                f"bit position out of range [0, {self._size}) in {caller}"
            )

    def _check_words(self, words: np.ndarray, caller: str) -> None:
        if int(words.min()) < 0 or int(words.max()) >= self.num_words:
            raise ConfigurationError(
                f"word index out of range [0, {self.num_words}) in {caller}"
            )

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> int:
        byte, mask = self._locate(index)
        return 1 if self._bytes[byte] & mask else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

    @property
    def ones_count(self) -> int:
        """Number of bits currently set to 1."""
        return self._ones

    @property
    def fraction_of_ones(self) -> float:
        """Fraction of set bits — the quantity the paper calls ``beta``."""
        return self._ones / self._size

    @property
    def latest_stamp(self) -> int:
        """The stamp of the newest mutation anywhere in the array.

        Every mutating method advances it, so readers that cache derived
        views of the bits (the VOS row memo, the LSH signature
        tables) key them on it: two equal stamps guarantee the bits are
        unchanged; unequal stamps say nothing about how much changed.
        """
        return self._latest

    @property
    def nbytes(self) -> int:
        """Bytes held: the packed storage plus the word stamps, once allocated."""
        return self._bytes.nbytes + (0 if self._stamps is None else self._stamps.nbytes)

    @property
    def storage(self) -> np.ndarray:
        """The live ``uint8`` storage (read-only by contract: row recovery reads it)."""
        return self._bytes

    @property
    def num_words(self) -> int:
        """Number of 64-bit words covering the array (``ceil(size / 64)``)."""
        return (self._size + self.WORD_BITS - 1) // self.WORD_BITS

    def dirty_words(self, since: int) -> np.ndarray:
        """Sorted indices of the words changed after cursor ``since``.

        Together with :meth:`packed_words` this is the write set a shard
        delta ships instead of the whole array.  A word is listed when any
        mutation touched it, even one that restored its old bits (a superset
        of the words whose bits differ), never less — except words patched
        with ``apply_packed_words(track=False)``, which are never listed.
        """
        if since < self._floor:
            return np.arange(self.num_words, dtype=np.int64)
        if self._latest <= since or self._stamps is None:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self._stamps > since)

    def packed_words(self, word_indices) -> bytes:
        """The stored bytes of the listed 64-bit words (8 bytes per word).

        Word ``w`` covers bit positions ``[64w, 64w + 64)`` and is bytes
        ``[8w, 8w + 8)`` of the storage, which :meth:`to_packed_bytes`
        prefixes; positions past the end of the array are zero pad bits.
        """
        words = np.asarray(word_indices, dtype=np.int64).ravel()
        if words.size == 0:
            return b""
        self._check_words(words, "packed_words")
        return self._bytes.reshape(-1, 8)[words].tobytes()

    def apply_packed_words(self, word_indices, data: bytes, *, track: bool = True) -> None:
        """Overwrite the listed words from :meth:`packed_words` bytes.

        This is the delta-replay primitive: the popcount is re-derived from
        the before/after bytes of the touched words, so ``beta`` stays exact,
        and the words are stamped as changed.  ``track=False`` skips the
        per-word stamps: frozen copy-on-publish epochs are patched once and
        never read for changes, so they must not allocate stamp memory.
        :attr:`latest_stamp` advances either way, so caches keyed on it see
        the write.
        """
        words = np.asarray(word_indices, dtype=np.int64).ravel()
        if len(data) != words.size * 8:
            raise ConfigurationError(
                f"packed word payload holds {len(data)} bytes, "
                f"expected {words.size * 8} for {words.size} words"
            )
        if words.size == 0:
            return
        self._check_words(words, "apply_packed_words")
        if np.unique(words).size != words.size:
            raise ConfigurationError("apply_packed_words requires distinct word indices")
        fresh = np.frombuffer(data, dtype=np.uint8).reshape(words.size, 8)
        valid = self._size - (self.num_words - 1) * self.WORD_BITS
        pad = np.packbits(np.arange(self.WORD_BITS) >= valid)
        if np.any(fresh[words == self.num_words - 1] & pad):
            raise ConfigurationError(
                "packed word payload sets pad bits past the end of the array"
            )
        rows = self._bytes.reshape(-1, 8)
        before = int(_bitwise_count(rows[words]).sum(dtype=np.int64))
        rows[words] = fresh
        self._ones += int(_bitwise_count(fresh).sum(dtype=np.int64)) - before
        if track:
            self._stamp_words(words)
        else:
            self._latest = next_stamp()

    def set(self, index: int, value: int) -> None:
        """Set bit ``index`` to ``value`` (0 or 1), updating the popcount."""
        byte, mask = self._locate(index)
        if bool(self._bytes[byte] & mask) != bool(value):
            self._bytes[byte] ^= mask
            self._ones += 1 if value else -1
            self._stamp_words(index // self.WORD_BITS)

    def flip(self, index: int) -> int:
        """Xor bit ``index`` with 1 and return its new value."""
        byte, mask = self._locate(index)
        current = int(self._bytes[byte]) ^ mask
        self._bytes[byte] = current
        new = 1 if current & mask else 0
        self._ones += 1 if new else -1
        self._stamp_words(index // self.WORD_BITS)
        return new

    def xor_value(self, index: int, value: int) -> int:
        """Xor bit ``index`` with ``value`` (0 or 1) and return the new bit."""
        if value & 1:
            return self.flip(index)
        return self[index]

    def gather(self, indices: Iterable[int]) -> np.ndarray:
        """Return the bits at ``indices`` as a ``numpy.uint8`` array of 0/1.

        Accepts any iterable of positions; an index *array* of any shape takes
        a zero-copy fast path and the result preserves its shape.
        """
        if isinstance(indices, np.ndarray):
            positions = indices.astype(np.int64, copy=False)
        else:
            positions = np.fromiter(indices, dtype=np.int64)
        self._check_positions(positions, "gather")
        return gather_bits(self._bytes, positions)

    def xor_bulk(self, positions) -> int:
        """Xor 1 into every listed position at once, keeping the popcount exact.

        ``positions`` may contain repeats: toggling the same bit twice cancels.
        One :func:`repro.kernels.xor_positions` call applies them all and
        reports the words whose value changed, which are stamped; when every
        toggle cancels nothing is stamped and :attr:`latest_stamp` stays.
        This is the bulk analogue of calling :meth:`flip` once per position
        and leaves the array in a bit-identical state.  Returns the number of
        bits actually flipped.
        """
        from repro import kernels  # the kernels import this leaf module

        pos = np.asarray(positions, dtype=np.int64).ravel()
        if pos.size == 0:
            return 0
        flipped, ones_change, words = kernels.xor_positions(self._bytes, pos, self._size)
        if flipped:
            self._ones += ones_change
            self._stamp_words(words)
        return flipped

    def to_list(self) -> list[int]:
        """Return the bit values as a plain Python list."""
        return np.unpackbits(self._bytes, count=self._size).tolist()

    def clear(self) -> None:
        """Reset every bit to zero."""
        self._bytes[:] = 0
        self._ones = 0
        self._reset_stamps(next_stamp())

    def to_packed_bytes(self) -> bytes:
        """Serialize the bits 8-per-byte (``ceil(len/8)`` bytes, big-endian bit order)."""
        return self._bytes[: (self._size + 7) // 8].tobytes()

    def load_packed_bytes(self, data: bytes) -> None:
        """Restore state previously produced by :meth:`to_packed_bytes`.

        The byte string must describe exactly ``len(self)`` bits, with the
        pad bits of a ragged final byte zero; the running popcount is
        recomputed so the round trip is bit-exact.
        """
        expected = (self._size + 7) // 8
        if len(data) != expected:
            raise ConfigurationError(
                f"packed payload holds {len(data)} bytes, expected {expected}"
            )
        fresh = np.frombuffer(data, dtype=np.uint8)
        tail = self._size & 7
        if tail and fresh[-1] & (0xFF >> tail):
            raise ConfigurationError(
                "packed payload sets pad bits past the end of the array"
            )
        self._bytes[:expected] = fresh
        self._bytes[expected:] = 0
        self._ones = int(_bitwise_count(self._bytes).sum(dtype=np.int64))
        self._reset_stamps(next_stamp())

    def memory_bits(self) -> int:
        """Memory this array accounts for under the paper's cost model (1 bit/position)."""
        return self._size


class PackedRegisters:
    """A fixed-size array of unsigned registers with explicit width accounting.

    Parameters
    ----------
    count:
        Number of registers (``k`` in the sketches).
    width_bits:
        Nominal width of each register in bits; used for memory accounting
        (the backing store is a ``numpy.uint64`` vector regardless).
    empty_value:
        Sentinel stored in registers that have never been written (MinHash and
        OPH both need an "empty register" notion).
    """

    __slots__ = ("_values", "_width_bits", "_empty_value")

    def __init__(self, count: int, width_bits: int = 32, empty_value: int | None = None) -> None:
        if count <= 0:
            raise ConfigurationError(f"register count must be positive, got {count}")
        if width_bits <= 0 or width_bits > 64:
            raise ConfigurationError(
                f"register width must be in (0, 64], got {width_bits}"
            )
        if empty_value is None:
            empty_value = (1 << 64) - 1
        self._values = np.full(count, empty_value, dtype=np.uint64)
        self._width_bits = width_bits
        self._empty_value = empty_value

    def __len__(self) -> int:
        return int(self._values.shape[0])

    def __getitem__(self, index: int) -> int:
        return int(self._values[index])

    def __setitem__(self, index: int, value: int) -> None:
        self._values[index] = value

    @property
    def empty_value(self) -> int:
        return self._empty_value

    @property
    def width_bits(self) -> int:
        return self._width_bits

    def is_empty(self, index: int) -> bool:
        """True if register ``index`` has never been written (or was reset)."""
        return int(self._values[index]) == self._empty_value

    def reset(self, index: int) -> None:
        """Mark register ``index`` as empty again."""
        self._values[index] = self._empty_value

    def non_empty_count(self) -> int:
        """Number of registers holding a real value."""
        return int(np.count_nonzero(self._values != np.uint64(self._empty_value)))

    def to_list(self) -> list[int | None]:
        """Return register values with ``None`` in place of empty registers."""
        return [None if v == self._empty_value else int(v) for v in self._values]

    def memory_bits(self) -> int:
        """Memory accounted under the paper's cost model (``count * width_bits``)."""
        return len(self) * self._width_bits
