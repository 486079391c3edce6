"""Tests for the synthetic generators and batch plumbing."""

import numpy as np
import pytest

from alphaprivacy.datasets import (
    BatchStream,
    DatasetBatch,
    SynthConfig,
    gen_markov_load,
    generate,
    train_eval_split,
)
from alphaprivacy.errors import ValidationError
from alphaprivacy.metrics import balanced_accuracy


def nearest_mean_accuracy(train, test):
    """Independent raw-data attack: classify X by the closest class mean."""
    y_tr, x_tr = train.y[:, 0, :], train.x[:, 0]
    means = [y_tr[x_tr == k].mean(axis=0) for k in (0, 1)]
    y_te = test.y[:, 0, :]
    d0 = ((y_te - means[0]) ** 2).sum(axis=1)
    d1 = ((y_te - means[1]) ** 2).sum(axis=1)
    preds = (d1 < d0).astype(int)
    return balanced_accuracy(preds, test.x[:, 0], 2)


class TestValidation:
    def test_inconsistent_batch_dims_rejected(self):
        with pytest.raises(ValidationError):
            DatasetBatch(y=np.zeros((4, 1, 2)), x=np.zeros((3, 1), dtype=int),
                         u=np.zeros((4, 1, 1)))

    def test_noise_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            DatasetBatch(y=np.zeros((2, 1, 1)), x=np.zeros((2, 1), dtype=int),
                         u=np.full((2, 1, 1), 1.5))

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(generator="mystery")

    @pytest.mark.parametrize("field", ["total", "num_steps", "d_y", "noise_dim", "num_classes"])
    @pytest.mark.parametrize("value", [0, -2, 1280.5, 2.0, True, "16"])
    def test_non_count_sizes_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer >= 1"):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("field", ["total", "num_steps", "d_y", "noise_dim", "num_classes"])
    def test_numpy_integer_sizes_accepted(self, field):
        assert getattr(SynthConfig(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("value", [-1, 1.5, True, "3", None])
    def test_bad_seed_rejected(self, value):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            SynthConfig(seed=value)

    @pytest.mark.parametrize("field", [
        "separation", "class_bias", "stay_prob", "occupancy_bump", "load_noise",
        "si_correlation",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("-inf"), "abc", True, None])
    def test_non_finite_or_non_real_settings_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be a finite number"):
            SynthConfig(**{field: value})

    def test_negative_separation_rejected(self):
        with pytest.raises(ValidationError, match="separation must be a finite number >= 0"):
            SynthConfig(separation=-1.0)

    def test_si_correlation_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            SynthConfig(generator="markov_load", si_correlation=1.5)

    def test_invalid_transition_rejected(self):
        cfg = SynthConfig(generator="markov_load", stay_prob=1.2, total=8, num_steps=4)
        with pytest.raises(ValidationError):
            gen_markov_load(cfg)


class TestLabeledClusters:
    def test_fixed_seed_reproduces_identical_bytes(self):
        cfg = SynthConfig(generator="labeled_clusters", total=64, seed=5)
        a, b = generate(cfg), generate(cfg)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.c, b.c)

    def test_zero_separation_hides_the_private_bit(self):
        cfg = SynthConfig(generator="labeled_clusters", total=4000, seed=5,
                          separation=0.0, class_bias=0.0)
        train, test = train_eval_split(cfg)
        assert abs(nearest_mean_accuracy(train, test) - 0.5) < 0.05

    def test_large_separation_exposes_the_private_bit(self):
        cfg = SynthConfig(generator="labeled_clusters", total=4000, seed=5, separation=4.0)
        train, test = train_eval_split(cfg)
        assert nearest_mean_accuracy(train, test) > 0.9

    def test_class_bias_tilts_private_bit_by_class_parity(self):
        cfg = SynthConfig(generator="labeled_clusters", total=20000, seed=6,
                          class_bias=0.2)
        batch = generate(cfg)
        x, c = batch.x[:, 0], batch.c
        odd = c % 2 == 1
        assert x[odd].mean() > 0.65
        assert x[~odd].mean() < 0.35

    def test_shapes_and_label_ranges(self):
        cfg = SynthConfig(generator="labeled_clusters", total=32, d_y=4,
                          noise_dim=2, num_classes=3, seed=1)
        batch = generate(cfg)
        assert batch.y.shape == (32, 1, 4)
        assert batch.u.shape == (32, 1, 2)
        assert batch.s is None
        assert set(np.unique(batch.x)) <= {0, 1}
        assert batch.c.min() >= 0 and batch.c.max() < 3


class TestMarkovLoad:
    def test_transition_frequencies_match_configuration(self):
        cfg = SynthConfig(generator="markov_load", total=5000, num_steps=24,
                          d_y=1, stay_prob=0.8, seed=7)
        batch = generate(cfg)
        same = batch.x[:, 1:] == batch.x[:, :-1]
        assert abs(same.mean() - 0.8) < 0.02  # 115k transitions sampled

    def test_zero_bump_hides_occupancy_in_load(self):
        cfg = SynthConfig(generator="markov_load", total=4000, num_steps=8,
                          occupancy_bump=0.0, seed=8)
        batch = generate(cfg)
        y0 = batch.y[batch.x == 0]
        y1 = batch.y[batch.x == 1]
        assert abs(y0.mean() - y1.mean()) < 0.02

    def test_zero_correlation_makes_si_independent(self):
        cfg = SynthConfig(generator="markov_load", total=20000, num_steps=6,
                          si_correlation=0.0, seed=9)
        batch = generate(cfg)
        majority = (batch.x.mean(axis=1) > 0.5).astype(int)
        agree = (batch.s[:, 0].astype(int) == majority).mean()
        assert abs(agree - 0.5) < 0.02

    def test_full_correlation_copies_the_majority_state(self):
        cfg = SynthConfig(generator="markov_load", total=500, num_steps=6,
                          si_correlation=1.0, seed=10)
        batch = generate(cfg)
        majority = (batch.x.mean(axis=1) > 0.5).astype(int)
        np.testing.assert_array_equal(batch.s[:, 0].astype(int), majority)


class TestBatchStream:
    def test_draw_is_deterministic_per_seed(self):
        data = generate(SynthConfig(total=64, seed=2))
        a = BatchStream(data, seed=3).draw(16)
        b = BatchStream(data, seed=3).draw(16)
        np.testing.assert_array_equal(a, b)

    def test_oversized_draw_rejected(self):
        data = generate(SynthConfig(total=8, seed=2))
        with pytest.raises(ValidationError):
            BatchStream(data, seed=0).draw(9)

    @pytest.mark.parametrize("cfg", [
        SynthConfig(total=64, seed=2),
        SynthConfig(generator="markov_load", total=40, num_steps=5, d_y=1, seed=6),
    ])
    def test_stacked_draw_equals_successive_draws(self, cfg):
        data = generate(cfg)
        stacked_stream, single_stream = BatchStream(data, seed=8), BatchStream(data, seed=8)
        stacked = data.take(stacked_stream.draw(12, count=3))
        singles = [data.take(single_stream.draw(12)) for _ in range(3)]
        for field in ("y", "x", "u", "s", "c"):
            parts = [getattr(b, field) for b in singles]
            if parts[0] is None:
                assert getattr(stacked, field) is None
            else:
                np.testing.assert_array_equal(getattr(stacked, field), np.concatenate(parts))
        # both streams are left at the same position
        np.testing.assert_array_equal(stacked_stream.draw(12), single_stream.draw(12))

    def test_draw_count_below_one_rejected(self):
        data = generate(SynthConfig(total=8, seed=2))
        with pytest.raises(ValidationError):
            BatchStream(data, seed=0).draw(4, count=0)

    def test_take_sub_batch_is_a_valid_batch(self):
        data = generate(SynthConfig(generator="markov_load", total=30, num_steps=4,
                                    d_y=2, seed=5))
        sub = data.take(np.array([7, 0, 29, 3]))
        rebuilt = DatasetBatch(y=sub.y, x=sub.x, u=sub.u, s=sub.s, c=sub.c)
        for field in ("y", "x", "u", "s"):
            got, want = getattr(sub, field), getattr(rebuilt, field)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert sub.c is None and rebuilt.c is None


class TestSplit:
    def test_split_sizes_and_distinct_streams(self):
        cfg = SynthConfig(total=100, seed=4)
        train, test = train_eval_split(cfg)
        assert train.size == 80 and test.size == 20
        assert not np.array_equal(train.y[:20], test.y)

    def test_split_is_reproducible(self):
        cfg = SynthConfig(total=50, seed=4)
        a_train, a_test = train_eval_split(cfg)
        b_train, b_test = train_eval_split(cfg)
        np.testing.assert_array_equal(a_train.y, b_train.y)
        np.testing.assert_array_equal(a_test.y, b_test.y)
