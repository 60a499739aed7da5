"""Compact bit arrays and fixed-width register arrays.

Two storage primitives shared by the sketches:

* :class:`PackedBitArray` — a dense array of single bits with O(1) get/flip
  and an O(1) running count of set bits.  This backs both per-user odd
  sketches and the VOS shared array ``A`` (where the running popcount is
  exactly the paper's ``beta`` tracker, up to division by ``m``).
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


class PackedBitArray:
    """A mutable array of bits with an O(1) running population count.

    Bits are stored in a ``numpy.uint8`` vector (one byte per bit: on
    CPython the byte-per-bit layout is faster for the single-bit random
    access pattern of the sketches than real bit packing, while the
    *accounted* memory reported by :meth:`memory_bits` remains one bit per
    position, matching the paper's cost model).

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

    __slots__ = ("_bits", "_ones", "_stamps", "_floor", "_latest")

    #: Bits per change-tracking word.  Matches the ``uint64`` lanes of the
    #: packed representation, so one changed word maps to exactly 8 bytes of
    #: :meth:`to_packed_bytes` output — the unit a shard delta ships.
    WORD_BITS = 64

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigurationError(f"bit array size must be positive, got {size}")
        self._bits = np.zeros(size, dtype=np.uint8)
        self._ones = 0
        self._reset_stamps(0)

    @classmethod
    def from_byte_buffer(cls, bits: np.ndarray, *, ones_count: int | None = None) -> "PackedBitArray":
        """Wrap an existing byte-per-bit ``uint8`` buffer without copying.

        The copy-on-write epoch path maps a shared arena file privately
        (``mmap.ACCESS_COPY``) and hands the mapping here; subsequent
        ``apply_packed_words`` patches then touch only the dirtied pages.
        ``ones_count`` skips the O(n) popcount when the caller already knows
        it — downstream verification compares it against shipped counts.
        """
        if not isinstance(bits, np.ndarray) or bits.dtype != np.uint8 or bits.ndim != 1:
            raise ConfigurationError("from_byte_buffer expects a 1-d uint8 array")
        if bits.size == 0:
            raise ConfigurationError("bit array size must be positive, got 0")
        array = cls.__new__(cls)
        array._bits = bits
        array._ones = int(bits.sum(dtype=np.int64)) if ones_count is None else int(ones_count)
        array._reset_stamps(0)
        return array

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

    def __len__(self) -> int:
        return int(self._bits.shape[0])

    def __getitem__(self, index: int) -> int:
        return int(self._bits[index])

    def __iter__(self) -> Iterator[int]:
        return iter(int(b) for b in self._bits)

    @property
    def ones_count(self) -> int:
        """Number of bits currently set to 1."""
        return self._ones

    @property
    def fraction_of_ones(self) -> float:
        """Fraction of set bits — the quantity the paper calls ``beta``."""
        return self._ones / len(self)

    @property
    def latest_stamp(self) -> int:
        """The stamp of the newest mutation anywhere in the array.

        Every mutating method advances it, so readers that cache derived
        views of the bits (the VOS packed-row cache, the LSH signature
        tables) key them on it: two equal stamps guarantee the bits are
        unchanged; unequal stamps say nothing about how much changed.
        """
        return self._latest

    @property
    def num_words(self) -> int:
        """Number of 64-bit words covering the array (``ceil(size / 64)``)."""
        return (len(self._bits) + self.WORD_BITS - 1) // self.WORD_BITS

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
        """The packed bytes of the listed 64-bit words (8 bytes per word).

        Word ``w`` covers bit positions ``[64w, 64w + 64)`` and serializes to
        bytes ``[8w, 8w + 8)`` of :meth:`to_packed_bytes` output; positions
        past the end of the array pack as zero pad bits, exactly as the full
        serialization pads them.
        """
        words = np.asarray(word_indices, dtype=np.int64).ravel()
        if words.size == 0:
            return b""
        if int(words.min()) < 0 or int(words.max()) >= self.num_words:
            raise ConfigurationError(
                f"word index out of range [0, {self.num_words}) in packed_words"
            )
        positions = words[:, None] * self.WORD_BITS + np.arange(self.WORD_BITS)
        in_range = positions < len(self._bits)
        bits = np.where(in_range, self._bits[np.minimum(positions, len(self._bits) - 1)], 0)
        return np.packbits(bits.astype(np.uint8), axis=1).tobytes()

    def apply_packed_words(self, word_indices, data: bytes, *, track: bool = True) -> None:
        """Overwrite the listed words from :meth:`packed_words` bytes.

        This is the delta-replay primitive: the popcount is re-derived from
        the before/after bits of the touched words, so ``beta`` stays exact,
        and the words are stamped as changed.  ``track=False`` skips the
        per-word stamps: frozen copy-on-write overlays are patched once and
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
        if int(words.min()) < 0 or int(words.max()) >= self.num_words:
            raise ConfigurationError(
                f"word index out of range [0, {self.num_words}) in apply_packed_words"
            )
        if np.unique(words).size != words.size:
            raise ConfigurationError("apply_packed_words requires distinct word indices")
        fresh = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8).reshape(words.size, 8), axis=1
        )
        positions = words[:, None] * self.WORD_BITS + np.arange(self.WORD_BITS)
        in_range = positions < len(self._bits)
        if int(fresh[~in_range].sum()) != 0:
            raise ConfigurationError(
                "packed word payload sets pad bits past the end of the array"
            )
        flat_positions = positions[in_range]
        flat_fresh = fresh[in_range]
        before = int(self._bits[flat_positions].sum(dtype=np.int64))
        self._bits[flat_positions] = flat_fresh
        self._ones += int(flat_fresh.sum(dtype=np.int64)) - before
        if track:
            self._stamp_words(words)
        else:
            self._latest = next_stamp()

    def set(self, index: int, value: int) -> None:
        """Set bit ``index`` to ``value`` (0 or 1), updating the popcount."""
        value = 1 if value else 0
        old = int(self._bits[index])
        if old != value:
            self._bits[index] = value
            self._ones += value - old
            self._stamp_words(index // self.WORD_BITS)

    def flip(self, index: int) -> int:
        """Xor bit ``index`` with 1 and return its new value."""
        new = int(self._bits[index]) ^ 1
        self._bits[index] = new
        self._ones += 1 if new else -1
        self._stamp_words(index // self.WORD_BITS)
        return new

    def xor_value(self, index: int, value: int) -> int:
        """Xor bit ``index`` with ``value`` (0 or 1) and return the new bit."""
        if value & 1:
            return self.flip(index)
        return int(self._bits[index])

    def gather(self, indices: Iterable[int]) -> np.ndarray:
        """Return the bits at ``indices`` as a ``numpy.uint8`` array.

        Accepts any iterable of positions; an index *array* of any shape takes
        a zero-copy fast path and the result preserves its shape, which is how
        the bulk query path reads a whole ``(n_users, k)`` position matrix in
        one call.
        """
        if isinstance(indices, np.ndarray):
            return self._bits[indices.astype(np.int64, copy=False)]
        idx = np.fromiter(indices, dtype=np.int64)
        return self._bits[idx]

    def xor_bulk(self, positions) -> int:
        """Xor 1 into every listed position at once, keeping the popcount exact.

        ``positions`` may contain repeats: toggling the same bit twice cancels,
        so repeated occurrences are folded modulo 2 (sort-based count fold)
        before a single vectorized xor is applied.  This is the bulk analogue
        of calling :meth:`flip` once per position and leaves the array in a
        bit-identical state.  Returns the number of bits actually flipped.
        """
        pos = np.asarray(positions, dtype=np.int64).ravel()
        if pos.size == 0:
            return 0
        if int(pos.min()) < 0 or int(pos.max()) >= len(self):
            raise IndexError(
                f"bit position out of range [0, {len(self)}) in xor_bulk"
            )
        # Sort-based fold: for the typical batch the position count is far
        # below the array length, so np.unique beats an array-length bincount.
        unique_positions, counts = np.unique(pos, return_counts=True)
        odd = unique_positions[(counts & 1).astype(bool)]
        if odd.size == 0:
            return 0
        previously_set = int(self._bits[odd].sum(dtype=np.int64))
        self._bits[odd] ^= 1
        self._ones += int(odd.size) - 2 * previously_set
        # Fancy-index assignment tolerates duplicate word indices, so no
        # dedup pass is needed on the per-batch hot path.
        self._stamp_words(odd // self.WORD_BITS)
        return int(odd.size)

    def to_list(self) -> list[int]:
        """Return the bit values as a plain Python list."""
        return [int(b) for b in self._bits]

    def clear(self) -> None:
        """Reset every bit to zero."""
        self._bits[:] = 0
        self._ones = 0
        self._reset_stamps(next_stamp())

    def bits_buffer(self) -> np.ndarray:
        """The raw byte-per-bit backing store (no copy).

        Exposed for the serving arena, which writes these bytes to an
        mmap-backed file once and then patches private per-epoch overlays.
        Treat the returned array as read-only unless you own the instance.
        """
        return self._bits

    def to_packed_bytes(self) -> bytes:
        """Serialize the bits 8-per-byte (``ceil(len/8)`` bytes, big-endian bit order)."""
        return np.packbits(self._bits).tobytes()

    def load_packed_bytes(self, data: bytes) -> None:
        """Restore state previously produced by :meth:`to_packed_bytes`.

        The byte string must describe exactly ``len(self)`` bits; the running
        popcount is recomputed so the round trip is bit-exact.
        """
        expected = (len(self) + 7) // 8
        if len(data) != expected:
            raise ConfigurationError(
                f"packed payload holds {len(data)} bytes, expected {expected}"
            )
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=len(self))
        self._bits = bits
        self._ones = int(bits.sum(dtype=np.int64))
        self._reset_stamps(next_stamp())

    def memory_bits(self) -> int:
        """Memory this array accounts for under the paper's cost model (1 bit/position)."""
        return len(self)


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
