"""Tests for repro.hashing.bitpack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.hashing.bitpack import PackedBitArray, PackedRegisters, next_stamp


class TestPackedBitArray:
    def test_initial_state_all_zero(self):
        bits = PackedBitArray(16)
        assert len(bits) == 16
        assert bits.ones_count == 0
        assert bits.to_list() == [0] * 16

    def test_flip_toggles_and_counts(self):
        bits = PackedBitArray(8)
        assert bits.flip(2) == 1
        assert bits.ones_count == 1
        assert bits.flip(2) == 0
        assert bits.ones_count == 0

    def test_set_is_idempotent_on_count(self):
        bits = PackedBitArray(4)
        bits.set(1, 1)
        bits.set(1, 1)
        assert bits.ones_count == 1
        bits.set(1, 0)
        assert bits.ones_count == 0

    def test_xor_value_zero_is_noop(self):
        bits = PackedBitArray(4)
        bits.flip(0)
        assert bits.xor_value(0, 0) == 1
        assert bits.ones_count == 1

    def test_xor_value_one_flips(self):
        bits = PackedBitArray(4)
        assert bits.xor_value(3, 1) == 1
        assert bits.xor_value(3, 1) == 0

    def test_fraction_of_ones(self):
        bits = PackedBitArray(10)
        for index in range(5):
            bits.flip(index)
        assert bits.fraction_of_ones == pytest.approx(0.5)

    def test_gather(self):
        bits = PackedBitArray(6)
        bits.flip(1)
        bits.flip(4)
        assert list(bits.gather([0, 1, 4, 5])) == [0, 1, 1, 0]

    def test_clear(self):
        bits = PackedBitArray(5)
        bits.flip(0)
        bits.clear()
        assert bits.ones_count == 0
        assert bits.to_list() == [0] * 5

    def test_memory_bits_matches_size(self):
        assert PackedBitArray(123).memory_bits() == 123

    def test_iteration(self):
        bits = PackedBitArray(3)
        bits.flip(1)
        assert list(bits) == [0, 1, 0]

    def test_invalid_size_raises(self):
        with pytest.raises(ConfigurationError):
            PackedBitArray(0)

    def test_ones_count_matches_recount_after_random_ops(self):
        import random

        rng = random.Random(1)
        bits = PackedBitArray(64)
        for _ in range(500):
            bits.flip(rng.randrange(64))
        assert bits.ones_count == sum(bits.to_list())


class TestPackedRegisters:
    def test_initially_empty(self):
        registers = PackedRegisters(4, width_bits=32)
        assert len(registers) == 4
        assert all(registers.is_empty(i) for i in range(4))
        assert registers.non_empty_count() == 0

    def test_set_and_get(self):
        registers = PackedRegisters(3)
        registers[1] = 42
        assert registers[1] == 42
        assert not registers.is_empty(1)
        assert registers.non_empty_count() == 1

    def test_reset(self):
        registers = PackedRegisters(3)
        registers[0] = 7
        registers.reset(0)
        assert registers.is_empty(0)

    def test_to_list_uses_none_for_empty(self):
        registers = PackedRegisters(3)
        registers[2] = 5
        assert registers.to_list() == [None, None, 5]

    def test_memory_accounting(self):
        assert PackedRegisters(10, width_bits=32).memory_bits() == 320
        assert PackedRegisters(8, width_bits=1).memory_bits() == 8

    def test_invalid_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            PackedRegisters(0)
        with pytest.raises(ConfigurationError):
            PackedRegisters(4, width_bits=0)
        with pytest.raises(ConfigurationError):
            PackedRegisters(4, width_bits=65)


class TestXorBulk:
    def test_matches_sequential_flips(self):
        import random

        rng = random.Random(3)
        positions = [rng.randrange(64) for _ in range(500)]
        sequential = PackedBitArray(64)
        bulk = PackedBitArray(64)
        for position in positions:
            sequential.flip(position)
        bulk.xor_bulk(positions)
        assert bulk.to_list() == sequential.to_list()
        assert bulk.ones_count == sequential.ones_count

    def test_repeats_fold_modulo_two(self):
        bits = PackedBitArray(8)
        flipped = bits.xor_bulk([3, 3, 5, 5, 5])
        assert flipped == 1  # only position 5 has an odd count
        assert bits.to_list() == [0, 0, 0, 0, 0, 1, 0, 0]
        assert bits.ones_count == 1

    def test_empty_input_is_a_no_op(self):
        bits = PackedBitArray(8)
        assert bits.xor_bulk([]) == 0
        assert bits.ones_count == 0

    def test_out_of_range_positions_raise(self):
        bits = PackedBitArray(8)
        with pytest.raises(IndexError):
            bits.xor_bulk([8])
        with pytest.raises(IndexError):
            bits.xor_bulk([-1])

    def test_accepts_numpy_arrays(self):
        import numpy as np

        bits = PackedBitArray(16)
        bits.xor_bulk(np.array([1, 2, 2, 3]))
        assert bits.ones_count == 2


class TestPackedBytesRoundTrip:
    def test_round_trip_is_bit_exact(self):
        import random

        rng = random.Random(9)
        bits = PackedBitArray(77)  # deliberately not a multiple of 8
        for _ in range(200):
            bits.flip(rng.randrange(77))
        data = bits.to_packed_bytes()
        assert len(data) == 10
        restored = PackedBitArray(77)
        restored.load_packed_bytes(data)
        assert restored.to_list() == bits.to_list()
        assert restored.ones_count == bits.ones_count

    def test_wrong_length_raises(self):
        bits = PackedBitArray(16)
        with pytest.raises(ConfigurationError):
            bits.load_packed_bytes(b"\x00")

    def test_restored_array_is_writable(self):
        bits = PackedBitArray(8)
        bits.load_packed_bytes(bytes(1))
        bits.flip(0)
        assert bits.ones_count == 1


class TestChangeStamps:
    """The per-word generation stamps behind shard deltas."""

    def test_fresh_array_is_unchanged(self):
        bits = PackedBitArray(256)
        assert bits.dirty_words(0).tolist() == []

    def test_flip_and_set_stamp_their_word(self):
        bits = PackedBitArray(256)
        bits.flip(3)
        bits.set(130, 1)
        assert bits.dirty_words(0).tolist() == [0, 2]
        cursor = next_stamp()
        assert bits.dirty_words(cursor).tolist() == []
        # A set that changes nothing stamps nothing.
        bits.set(130, 1)
        assert bits.dirty_words(cursor).tolist() == []
        bits.flip(64)
        assert bits.dirty_words(cursor).tolist() == [1]
        # An older cursor still sees every word changed after it.
        assert bits.dirty_words(0).tolist() == [0, 1, 2]

    def test_xor_bulk_stamps_only_touched_words(self):
        bits = PackedBitArray(64 * 5)
        bits.xor_bulk(np.array([0, 1, 64 * 3 + 2]))
        assert bits.dirty_words(0).tolist() == [0, 3]
        # Cancelling repeats touch nothing.
        cursor = next_stamp()
        bits.xor_bulk(np.array([7, 7]))
        assert bits.dirty_words(cursor).tolist() == []

    def test_consumers_keep_independent_cursors(self):
        bits = PackedBitArray(64 * 4)
        bits.flip(0)
        first = next_stamp()
        bits.flip(64)
        second = next_stamp()
        bits.flip(128)
        assert bits.dirty_words(first).tolist() == [1, 2]
        assert bits.dirty_words(second).tolist() == [2]
        # Reading is not consuming: the older cursor still sees word 1.
        assert bits.dirty_words(first).tolist() == [1, 2]

    def test_packed_words_match_full_serialization(self):
        import random

        rng = random.Random(3)
        bits = PackedBitArray(77)  # a ragged final word
        for _ in range(120):
            bits.flip(rng.randrange(77))
        full = bits.to_packed_bytes()
        for word in range(bits.num_words):
            chunk = bits.packed_words([word])
            expected = full[8 * word : 8 * (word + 1)]
            assert chunk[: len(expected)] == expected
            assert all(byte == 0 for byte in chunk[len(expected) :])

    def test_apply_packed_words_round_trips_changed_words(self):
        import random

        rng = random.Random(4)
        source = PackedBitArray(300)
        target = PackedBitArray(300)
        for _ in range(64):
            source.flip(rng.randrange(300))
        # Target starts from the source's state at the cursor.
        target.load_packed_bytes(source.to_packed_bytes())
        cursor = next_stamp()
        for _ in range(40):
            source.flip(rng.randrange(300))
        words = source.dirty_words(cursor)
        payload = source.packed_words(words)
        target_cursor = next_stamp()
        target.apply_packed_words(words, payload)
        assert target.to_list() == source.to_list()
        assert target.ones_count == source.ones_count
        # Applied words are stamped for the target's own consumers ...
        assert target.dirty_words(target_cursor).tolist() == words.tolist()
        # ... unless the patch is untracked (frozen overlays).
        frozen = PackedBitArray.from_byte_buffer(np.zeros(300, dtype=np.uint8))
        frozen.apply_packed_words(words, payload, track=False)
        assert frozen._stamps is None
        assert frozen.dirty_words(0).tolist() == []

    def test_every_mutation_advances_latest_stamp(self):
        """Caches of derived views key on ``latest_stamp``: any write moves it."""
        bits = PackedBitArray(200)
        payload = bits.packed_words([1])
        writes = [
            lambda: bits.flip(5),
            lambda: bits.set(5, 1 - bits[5]),
            lambda: bits.xor_bulk([7, 9]),
            lambda: bits.apply_packed_words([1], payload),
            lambda: bits.apply_packed_words([2], payload, track=False),
            bits.clear,
            lambda: bits.load_packed_bytes(bits.to_packed_bytes()),
        ]
        for write in writes:
            stamp = bits.latest_stamp
            write()
            assert bits.latest_stamp > stamp
        # Writes that leave every bit as it was need not move it.
        stamp = bits.latest_stamp
        bits.set(5, bits[5])
        bits.xor_bulk([11, 11])
        assert bits.latest_stamp == stamp

    def test_apply_rejects_bad_payloads(self):
        bits = PackedBitArray(100)
        with pytest.raises(ConfigurationError, match="expected"):
            bits.apply_packed_words(np.array([0]), b"\x00" * 7)
        with pytest.raises(ConfigurationError, match="out of range"):
            bits.apply_packed_words(np.array([9]), b"\x00" * 8)
        with pytest.raises(ConfigurationError, match="distinct"):
            bits.apply_packed_words(np.array([0, 0]), b"\x00" * 16)
        # Word 1 covers bits 64..99: the trailing 28 bits are pad and must be 0.
        with pytest.raises(ConfigurationError, match="pad bits"):
            bits.apply_packed_words(np.array([1]), b"\xff" * 8)

    def test_clear_and_load_stamp_every_word(self):
        bits = PackedBitArray(128)
        bits.flip(0)
        cursor = next_stamp()
        bits.clear()
        assert bits.dirty_words(cursor).tolist() == list(range(bits.num_words))
        cursor = next_stamp()
        assert bits.dirty_words(cursor).tolist() == []
        bits.load_packed_bytes(bytes(16))
        assert bits.dirty_words(cursor).tolist() == list(range(bits.num_words))
        # A later partial change stamps only its word, and a cursor from
        # before the reload still sees every word.
        before_load = cursor
        cursor = next_stamp()
        bits.flip(64)
        assert bits.dirty_words(cursor).tolist() == [1]
        assert bits.dirty_words(before_load).tolist() == list(range(bits.num_words))


def test_change_clock_is_unique_across_threads():
    """Stamps taken concurrently never repeat, so no cursor can hide a change."""
    import sys
    import threading

    per_thread, threads = 20_000, 8
    taken: list[list[int]] = [[] for _ in range(threads)]

    def take(out: list[int]) -> None:
        for _ in range(per_thread):
            out.append(next_stamp())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=take, args=(out,)) for out in taken]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    stamps = [stamp for out in taken for stamp in out]
    assert len(set(stamps)) == per_thread * threads
    # Each thread sees its own stamps strictly increase.
    assert all(out == sorted(out) for out in taken)
