"""Tests for repro.streams.batch: the array-native ElementBatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.streams.batch import ElementBatch, id_column
from repro.streams.edge import Action, StreamElement

ELEMENTS = [
    StreamElement(1, 10, Action.INSERT),
    StreamElement(2, 11, Action.INSERT),
    StreamElement(1, 10, Action.DELETE),
    StreamElement(3, 12, Action.INSERT),
]


class TestIdColumn:
    def test_all_ints_become_int64(self):
        column = id_column([1, 2, 3])
        assert column.dtype == np.int64
        assert column.tolist() == [1, 2, 3]

    def test_strings_become_objects(self):
        column = id_column(["alice", "bob"])
        assert column.dtype == object
        assert column.tolist() == ["alice", "bob"]

    def test_mixed_values_become_objects_preserving_types(self):
        column = id_column([1, "alice", 2.5])
        assert column.dtype == object
        assert column.tolist() == [1, "alice", 2.5]
        assert type(column[0]) is int

    def test_bools_are_not_treated_as_ints(self):
        # type(True) is bool, so the int64 gate must not fire (parity with
        # the per-element fallback gates the vectorized paths used).
        assert id_column([True, False]).dtype == object

    def test_floats_are_not_truncated(self):
        column = id_column([1.5, 2.0])
        assert column.dtype == object
        assert column.tolist() == [1.5, 2.0]

    def test_big_ints_overflow_to_objects(self):
        column = id_column([1, 1 << 70])
        assert column.dtype == object
        assert column.tolist() == [1, 1 << 70]

    def test_empty(self):
        assert id_column([]).dtype == np.int64


class TestConstruction:
    def test_from_elements_round_trip(self):
        batch = ElementBatch.from_elements(ELEMENTS)
        assert len(batch) == 4
        assert batch.users.tolist() == [1, 2, 1, 3]
        assert batch.items.tolist() == [10, 11, 10, 12]
        assert batch.signs.tolist() == [1, 1, -1, 1]
        assert batch.to_elements() == ELEMENTS
        assert list(batch) == ELEMENTS

    def test_from_generator(self):
        batch = ElementBatch.from_elements(iter(ELEMENTS))
        assert batch.to_elements() == ELEMENTS

    def test_integer_flags(self):
        batch = ElementBatch.from_elements(ELEMENTS)
        assert batch.integer_users and batch.integer_items
        named = ElementBatch.from_elements(
            [StreamElement("alice", 10, Action.INSERT)]
        )
        assert not named.integer_users
        assert named.integer_items

    def test_insertion_deletion_counts(self):
        batch = ElementBatch.from_elements(ELEMENTS)
        assert batch.insertions == 3
        assert batch.deletions == 1
        assert batch.deltas().tolist() == [1, 1, -1, 1]
        assert batch.deltas().dtype == np.int64

    def test_empty(self):
        batch = ElementBatch.empty()
        assert len(batch) == 0
        assert batch.to_elements() == []

    def test_non_int64_integer_arrays_are_normalized(self):
        batch = ElementBatch(
            np.array([1, 2], dtype=np.int32),
            np.array([3, 4], dtype=np.uint16),
            np.array([1, -1]),
        )
        assert batch.users.dtype == np.int64
        assert batch.items.dtype == np.int64
        assert batch.signs.dtype == np.int8

    def test_string_dtype_arrays_become_objects(self):
        batch = ElementBatch(
            np.array(["a", "b"]), np.array([1, 2]), np.array([1, 1])
        )
        assert batch.users.dtype == object
        assert batch.users.tolist() == ["a", "b"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="differ in length"):
            ElementBatch([1, 2], [1], [1, 1])

    def test_bad_signs_rejected(self):
        with pytest.raises(ConfigurationError, match="signs"):
            ElementBatch([1], [1], [2])

    def test_non_1d_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            ElementBatch(np.zeros((2, 2), dtype=np.int64), [1, 2], [1, 1])


class TestSubBatching:
    def test_slice(self):
        batch = ElementBatch.from_elements(ELEMENTS)
        assert batch.slice(1, 3).to_elements() == ELEMENTS[1:3]
        assert batch.slice(3, 100).to_elements() == ELEMENTS[3:]

    def test_coerce_passes_batches_through_and_columnarizes_iterables(self):
        batch = ElementBatch.from_elements(ELEMENTS)
        assert ElementBatch.coerce(batch) is batch
        assert ElementBatch.coerce(iter(ELEMENTS)).to_elements() == ELEMENTS
