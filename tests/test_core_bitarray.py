"""Tests for repro.core.bitarray (the shared array A and beta tracker)."""

from __future__ import annotations

import random

import pytest

from repro.core.bitarray import SharedBitArray
from repro.exceptions import ConfigurationError


class TestSharedBitArray:
    def test_initial_state(self):
        array = SharedBitArray(128)
        assert len(array) == 128
        assert array.beta == 0.0
        assert array.ones_count == 0

    def test_xor_bit_sets_and_clears(self):
        array = SharedBitArray(16)
        assert array.xor_value(5, 1) == 1
        assert array[5] == 1
        assert array.xor_value(5, 1) == 0
        assert array[5] == 0

    def test_xor_with_zero_is_noop(self):
        array = SharedBitArray(16)
        array.xor_value(3, 1)
        assert array.xor_value(3, 0) == 1
        assert array.ones_count == 1

    def test_beta_tracks_fraction_exactly(self):
        array = SharedBitArray(64)
        rng = random.Random(0)
        for _ in range(1000):
            array.xor_value(rng.randrange(64), 1)
            expected = sum(array[i] for i in range(64)) / 64
            assert array.beta == pytest.approx(expected)

    def test_beta_update_is_plus_minus_one_over_m(self):
        """Each xor changes beta by exactly +-1/m — the paper's O(1) beta rule."""
        m = 100
        array = SharedBitArray(m)
        previous = array.beta
        for position in [3, 3, 7, 7, 7]:
            array.xor_value(position, 1)
            assert abs(array.beta - previous) == pytest.approx(1.0 / m)
            previous = array.beta

    def test_clear(self):
        array = SharedBitArray(8)
        array.xor_value(0, 1)
        array.clear()
        assert array.beta == 0.0
        assert array[0] == 0

    def test_copy_keeps_the_class_and_bits(self):
        array = SharedBitArray(100)
        array.xor_bulk([1, 64, 99])
        clone = array.copy()
        assert type(clone) is SharedBitArray
        assert clone.to_packed_bytes() == array.to_packed_bytes()
        assert clone.beta == array.beta
        assert clone.dirty_words(0).tolist() == []

    def test_memory_accounting(self):
        assert SharedBitArray(4096).memory_bits() == 4096

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            SharedBitArray(0)
        with pytest.raises(ConfigurationError):
            SharedBitArray(-1)
