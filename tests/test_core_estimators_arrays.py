"""Tests for the indexed array estimators (the bulk query path's math layer).

The indexed forms take an integer xor count per pair, a fill fraction and a
cardinality per user, and the two pair index arrays.  They promise bitwise
agreement with looping the scalar ``*_cross`` forms over ``count / k`` for
every count the sketch can produce, including the saturation edge cases
where the logarithm is clamped (or raises in strict mode).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimators import (
    estimate_common_items_arrays,
    estimate_common_items_cross,
    estimate_jaccard_arrays,
    estimate_jaccard_cross,
    estimate_symmetric_difference_arrays,
    estimate_symmetric_difference_cross,
)
from repro.exceptions import ConfigurationError, EstimationError

SKETCH_SIZE = 64

BETAS = [0.0, 0.0078125, 0.125, 0.4921875, 0.5]
CARDS = [0, 1, 7, 150]


def _indexed_grid():
    """Every xor count 0..k against every ordered pair of users.

    One user per (fill fraction, cardinality) combination, so the pairs
    cover every beta pair and every cardinality pair.
    """
    betas = np.array([beta for beta in BETAS for _ in CARDS])
    cards = np.array([card for _ in BETAS for card in CARDS])
    users = np.arange(betas.shape[0])
    grid_a, grid_b = np.meshgrid(users, users, indexing="ij")
    pairs_a, pairs_b = grid_a.ravel(), grid_b.ravel()
    counts = np.repeat(np.arange(SKETCH_SIZE + 1), pairs_a.shape[0])
    index_a = np.tile(pairs_a, SKETCH_SIZE + 1)
    index_b = np.tile(pairs_b, SKETCH_SIZE + 1)
    return counts, betas, cards, index_a, index_b


def _scalar_rows(counts, betas, cards, index_a, index_b):
    """``(alpha, beta_a, beta_b, k, n_a, n_b)`` per pair, as plain Python values."""
    for count, a, b in zip(counts.tolist(), index_a.tolist(), index_b.tolist()):
        yield (
            count / SKETCH_SIZE,
            float(betas[a]),
            float(betas[b]),
            SKETCH_SIZE,
            int(cards[a]),
            int(cards[b]),
        )


class TestSymmetricDifferenceArrays:
    def test_matches_scalar_loop_bitwise(self):
        counts, betas, cards, index_a, index_b = _indexed_grid()
        bulk = estimate_symmetric_difference_arrays(
            counts, betas, SKETCH_SIZE, index_a, index_b
        )
        loop = np.array(
            [
                estimate_symmetric_difference_cross(*row[:4])
                for row in _scalar_rows(counts, betas, cards, index_a, index_b)
            ]
        )
        assert np.array_equal(bulk, loop)

    def test_strict_mode_raises_on_any_saturated_entry(self):
        betas = np.array([0.0, 0.0])
        with pytest.raises(EstimationError):
            estimate_symmetric_difference_arrays(
                np.array([6, SKETCH_SIZE // 2]), betas, SKETCH_SIZE,
                np.array([0, 0]), np.array([1, 1]), strict=True,
            )

    def test_strict_mode_raises_on_saturated_beta(self):
        with pytest.raises(EstimationError):
            estimate_symmetric_difference_arrays(
                np.array([6]), np.array([0.1, 0.5]), SKETCH_SIZE,
                np.array([0]), np.array([1]), strict=True,
            )

    def test_counts_outside_zero_to_k_rejected(self):
        for count in (-1, SKETCH_SIZE + 1):
            with pytest.raises(ConfigurationError):
                estimate_symmetric_difference_arrays(
                    np.array([3, count]), np.array([0.0]), SKETCH_SIZE,
                    np.array([0, 0]), np.array([0, 0]),
                )

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_symmetric_difference_arrays(
                np.array([0.25]), np.array([0.0]), SKETCH_SIZE, np.array([0]), np.array([0])
            )

    def test_nan_beta_rejected_like_the_scalar_validators(self):
        with pytest.raises(ConfigurationError):
            estimate_symmetric_difference_arrays(
                np.array([3]), np.array([0.1, float("nan")]), SKETCH_SIZE,
                np.array([0]), np.array([1]),
            )

    def test_out_of_range_beta_rejected(self):
        for beta in (-0.1, 1.5):
            with pytest.raises(ConfigurationError):
                estimate_symmetric_difference_arrays(
                    np.array([3]), np.array([0.0, beta]), SKETCH_SIZE,
                    np.array([0]), np.array([1]),
                )

    def test_invalid_sketch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_symmetric_difference_arrays(
                np.array([0]), np.array([0.0]), 0, np.array([0]), np.array([0])
            )

    def test_empty_input(self):
        empty = np.array([], dtype=np.int64)
        result = estimate_symmetric_difference_arrays(
            empty, np.array([0.1]), SKETCH_SIZE, empty, empty
        )
        assert result.shape == (0,)


class TestCommonItemsArrays:
    def test_matches_scalar_loop_bitwise(self):
        counts, betas, cards, index_a, index_b = _indexed_grid()
        bulk = estimate_common_items_arrays(
            counts, betas, SKETCH_SIZE, cards, index_a, index_b
        )
        loop = np.array(
            [
                estimate_common_items_cross(*row)
                for row in _scalar_rows(counts, betas, cards, index_a, index_b)
            ]
        )
        assert np.array_equal(bulk, loop)

    def test_unclamped_matches_scalar(self):
        counts, betas, cards, index_a, index_b = _indexed_grid()
        bulk = estimate_common_items_arrays(
            counts, betas, SKETCH_SIZE, cards, index_a, index_b, clamp=False
        )
        loop = np.array(
            [
                estimate_common_items_cross(*row, clamp=False)
                for row in _scalar_rows(counts, betas, cards, index_a, index_b)
            ]
        )
        assert np.array_equal(bulk, loop)

    def test_negative_cardinalities_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_common_items_arrays(
                np.array([6]), np.array([0.0, 0.0]), SKETCH_SIZE,
                np.array([-1, 2]), np.array([0]), np.array([1]),
            )


class TestJaccardArrays:
    def test_matches_scalar_loop_bitwise(self):
        counts, betas, cards, index_a, index_b = _indexed_grid()
        bulk = estimate_jaccard_arrays(counts, betas, SKETCH_SIZE, cards, index_a, index_b)
        loop = np.array(
            [
                estimate_jaccard_cross(*row)
                for row in _scalar_rows(counts, betas, cards, index_a, index_b)
            ]
        )
        assert np.array_equal(bulk, loop)

    def test_strict_mode_matches_scalar_on_unsaturated_inputs(self):
        counts, betas, cards, index_a, index_b = _indexed_grid()
        keep = (counts != SKETCH_SIZE // 2) & (betas[index_a] != 0.5) & (betas[index_b] != 0.5)
        counts, index_a, index_b = counts[keep], index_a[keep], index_b[keep]
        bulk = estimate_jaccard_arrays(
            counts, betas, SKETCH_SIZE, cards, index_a, index_b, strict=True
        )
        loop = np.array(
            [
                estimate_jaccard_cross(*row, strict=True)
                for row in _scalar_rows(counts, betas, cards, index_a, index_b)
            ]
        )
        assert np.array_equal(bulk, loop)

    def test_empty_sets_give_jaccard_one(self):
        result = estimate_jaccard_arrays(
            np.array([0]), np.array([0.0]), SKETCH_SIZE, np.array([0]),
            np.array([0]), np.array([0]),
        )
        assert result.tolist() == [1.0]

    def test_results_always_in_unit_interval(self):
        counts, betas, cards, index_a, index_b = _indexed_grid()
        bulk = estimate_jaccard_arrays(counts, betas, SKETCH_SIZE, cards, index_a, index_b)
        assert float(bulk.min()) >= 0.0
        assert float(bulk.max()) <= 1.0
