"""Tests for the evaluation metrics."""

import numpy as np
import pytest

from alphaprivacy.errors import ValidationError
from alphaprivacy.metrics import balanced_accuracy, normalized_error

from oracles import average_ranks_direct, spearman_rho


class TestNormalizedError:
    def test_perfect_release_scores_zero(self):
        y = np.random.default_rng(0).normal(size=(4, 3, 2))
        assert normalized_error(y, y) == 0.0

    def test_zero_release_scores_one(self):
        y = np.random.default_rng(1).normal(size=(4, 3, 2))
        assert normalized_error(np.zeros_like(y), y) == pytest.approx(1.0)

    def test_hand_computed_scalar_case(self):
        z = np.full((5, 1, 1), 3.0)
        y = np.full((5, 1, 1), 2.0)
        assert normalized_error(z, y) == pytest.approx(0.25)

    def test_all_zero_target_rejected(self):
        with pytest.raises(ValidationError):
            normalized_error(np.ones((2, 1, 1)), np.zeros((2, 1, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            normalized_error(np.ones((2, 1, 1)), np.ones((3, 1, 1)))

    def test_invariant_under_sample_permutation(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(8, 2, 2))
        y = rng.normal(size=(8, 2, 2))
        perm = rng.permutation(8)
        assert normalized_error(z, y) == pytest.approx(
            normalized_error(z[perm], y[perm]), abs=1e-15
        )


class TestBalancedAccuracy:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 1, 0])
        assert balanced_accuracy(labels, labels, 3) == 1.0

    def test_constant_predictor_on_binary_labels(self):
        labels = np.array([0, 0, 0, 1])
        preds = np.zeros(4, dtype=int)
        assert balanced_accuracy(preds, labels, 2) == pytest.approx(0.5)

    def test_hand_computed_recall_average(self):
        # 10 positives with recall 0.8, 10 negatives with recall 0.6
        labels = np.array([1] * 10 + [0] * 10)
        preds = np.array([1] * 8 + [0] * 2 + [0] * 6 + [1] * 4)
        assert balanced_accuracy(preds, labels, 2) == pytest.approx(0.7)

    def test_absent_classes_are_excluded(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.array([0, 0, 1, 1])
        assert balanced_accuracy(preds, labels, 5) == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            balanced_accuracy(np.array([]), np.array([]), 2)

    def test_invariant_under_permutation(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=60)
        preds = rng.integers(0, 3, size=60)
        perm = rng.permutation(60)
        assert balanced_accuracy(preds, labels, 3) == pytest.approx(
            balanced_accuracy(preds[perm], labels[perm], 3), abs=1e-15
        )


class TestSpearman:
    def test_perfect_anticorrelation(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([9.0, 7.0, 5.0, 1.0])
        assert spearman_rho(a, b) == pytest.approx(-1.0)

    def test_perfect_correlation_with_nonlinear_map(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman_rho(a, np.exp(a)) == pytest.approx(1.0)

    def test_ties_use_average_ranks(self):
        a = np.array([1.0, 1.0, 2.0])
        b = np.array([2.0, 2.0, 1.0])
        assert spearman_rho(a, b) == pytest.approx(-1.0)

    def test_constant_sequence_rejected(self):
        with pytest.raises(ValidationError):
            spearman_rho(np.ones(4), np.arange(4.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        a = np.array([1.0, 2.0, bad, 4.0])
        with pytest.raises(ValidationError, match="finite"):
            spearman_rho(a, np.arange(4.0))
        with pytest.raises(ValidationError, match="finite"):
            spearman_rho(np.arange(4.0), a)


def _tie_group_ranks(values):
    # sort-based average ranks: a tie group shares the mean of the ranks it
    # spans, its cumulative count minus (count - 1) / 2
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


class TestAverageRanks:
    # spearman_rho ranks with the definition-based average_ranks_direct; it
    # must equal the sort-based tie-group construction bit for bit, so the
    # rank correlations criterion 8 reads do not depend on which one is used
    @pytest.mark.parametrize("values", [
        [3.0], [1.0, 1.0], [2.0, 1.0, 2.0, 0.5, 2.0], [0.0, -0.0, 1.0], [5.0, 4.0, 3.0, 2.0],
    ])
    def test_hand_vectors_equal_the_oracle(self, values):
        np.testing.assert_array_equal(average_ranks_direct(values), _tie_group_ranks(values))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_tied_vectors_equal_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 + seed % 6, size=1 + seed) / 4.0
        got = average_ranks_direct(values)
        np.testing.assert_array_equal(got, _tie_group_ranks(values))
        assert got.dtype == np.float64 and got.sum() == values.size * (values.size + 1) / 2
