"""Tests for the exact release-channel optimizer and its grid oracle."""

import itertools
import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaprivacy import channel as channel_module
from alphaprivacy.channel import (
    ChannelOptConfig,
    ChannelOptResult,
    ReleaseChannel,
    WorldModel,
    _arimoto_entropy,
    _batch_objective,
    _check_channel_rows,
    _decode,
    _start_steps,
    enumerate_grid_rows,
    expected_distortion,
    free_parameter_count,
    grid_oracle,
    objective_gradient,
    optimize_channel,
    releaser_objective,
)
from alphaprivacy.errors import DataFormatError, ValidationError
from alphaprivacy.measures import JointPmf, Pmf, arimoto_conditional_entropy, renyi_entropy
from oracles import bayes_posterior

HAMMING = [[0.0, 1.0], [1.0, 0.0]]


def copy_world(p0=0.5):
    """Binary world with X = W = Y and Hamming distortion."""
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = p0
    table[1, 1, 1] = 1.0 - p0
    return WorldModel(JointPmf(table, ("X", "W", "Y")), HAMMING)


def noisy_world(p0=0.5, flip=0.2):
    """X uniform-ish, W = X, Y = X flipped with probability ``flip``."""
    table = np.zeros((2, 2, 2))
    for x in range(2):
        px = p0 if x == 0 else 1.0 - p0
        for y in range(2):
            table[x, x, y] = px * (1.0 - flip if y == x else flip)
    return WorldModel(JointPmf(table, ("X", "W", "Y")), HAMMING)


def world_document(world):
    """The JSON document ``WorldModel.from_dict`` reads for ``world``."""
    return {
        "axes": list(world.joint.axis_labels),
        "sizes": {**{a: world.size(a) for a in world.joint.axis_labels},
                  "Z": world.num_symbols},
        "joint": world.joint.probs.ravel().tolist(),
        "distortion": world.distortion_table.tolist(),
    }


class TestWorldModel:
    def test_rejects_negative_distortion(self):
        joint = JointPmf(np.full((2, 2, 2), 0.125), ("X", "W", "Y"))
        with pytest.raises(ValidationError):
            WorldModel(joint, [[0.0, -1.0], [1.0, 0.0]])

    def test_rejects_nonzero_diagonal_on_shared_alphabet(self):
        joint = JointPmf(np.full((2, 2, 2), 0.125), ("X", "W", "Y"))
        with pytest.raises(ValidationError):
            WorldModel(joint, [[0.5, 1.0], [1.0, 0.0]])

    def test_json_round_trip(self, tmp_path):
        world = noisy_world(0.6, 0.1)
        path = tmp_path / "world.json"
        path.write_text(json.dumps(world_document(world)))
        back = WorldModel.from_json(path)
        np.testing.assert_array_equal(back.joint.probs, world.joint.probs)
        np.testing.assert_array_equal(back.distortion_table, world.distortion_table)
        assert back.joint.axis_labels == world.joint.axis_labels

    def test_malformed_document_raises_data_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"axes": ["X", "W", "Y"]}))
        with pytest.raises(DataFormatError):
            WorldModel.from_json(path)

    @pytest.mark.parametrize("axis, value", [("X", 2.9), ("W", 2.0), ("Y", True), ("Z", 2.9),
                                              ("Z", "2"), ("X", 0)])
    def test_sizes_must_be_counts(self, axis, value):
        doc = world_document(copy_world())
        doc["sizes"][axis] = value
        with pytest.raises(DataFormatError, match=f"sizes.{axis} must be an integer >= 1"):
            WorldModel.from_dict(doc)

    def test_wrong_joint_length_raises(self, tmp_path):
        doc = {
            "axes": ["X", "W", "Y"],
            "sizes": {"X": 2, "W": 2, "Y": 2, "Z": 2},
            "joint": [0.5, 0.5],
            "distortion": HAMMING,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            WorldModel.from_json(path)


class TestBayesPosterior:
    def test_identity_channel_discloses_everything(self):
        world = copy_world(0.5)
        post = bayes_posterior(world, ReleaseChannel(np.eye(2)))
        np.testing.assert_allclose(post.conditional, np.eye(2), atol=1e-12)
        assert post.support.all()

    def test_constant_channel_returns_prior(self):
        world = copy_world(0.3)
        channel = ReleaseChannel(np.full((2, 2), 0.5))
        post = bayes_posterior(world, channel)
        prior = np.array([0.3, 0.7])
        for z in range(2):
            np.testing.assert_allclose(post.conditional[:, z], prior, atol=1e-12)

    def test_hand_computed_binary_case(self):
        # uniform prior, rows (0.8, 0.2) / (0.3, 0.7): p(X=0 | Z=0) = 8/11
        world = copy_world(0.5)
        channel = ReleaseChannel([[0.8, 0.2], [0.3, 0.7]])
        post = bayes_posterior(world, channel)
        assert post.conditional[0, 0] == pytest.approx(8.0 / 11.0, abs=1e-12)
        assert post.conditional[0, 1] == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_dead_release_symbols_are_flagged(self):
        world = copy_world(0.5)
        channel = ReleaseChannel([[1.0, 0.0], [1.0, 0.0]])
        post = bayes_posterior(world, channel)
        assert post.support.tolist() == [True, False]
        # dead cell filled with the prior, still a valid distribution
        np.testing.assert_allclose(post.conditional[:, 1].sum(), 1.0, atol=1e-12)

    def test_alphabet_mismatch_raises(self):
        world = copy_world(0.5)
        with pytest.raises(ValidationError):
            bayes_posterior(world, ReleaseChannel(np.eye(3)))

    def test_best_response_beats_perturbed_posteriors(self):
        rng = np.random.default_rng(3)
        world = noisy_world(0.55, 0.15)
        channel = ReleaseChannel([[0.7, 0.3], [0.2, 0.8]])
        post = bayes_posterior(world, channel)
        joint = post.joint.probs

        def cross_entropy(q):
            mask = joint > 0
            return -(joint[mask] * np.log(q[mask])).sum()

        base = cross_entropy(post.conditional)
        for _ in range(100):
            noise = rng.random(post.conditional.shape) + 1e-3
            q = post.conditional + 0.2 * noise
            q /= q.sum(axis=0, keepdims=True)
            assert cross_entropy(q) >= base - 1e-12


class TestReleaserObjective:
    def test_identity_channel_zero_lambda_is_zero(self):
        world = copy_world(0.5)
        cfg = ChannelOptConfig(alpha=2.0, lam=0.0)
        assert releaser_objective(world, ReleaseChannel(np.eye(2)), cfg) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_constant_channel_gives_distortion_minus_log_two(self):
        world = copy_world(0.5)
        channel = ReleaseChannel(np.full((2, 2), 0.5))
        cfg = ChannelOptConfig(alpha=2.0, lam=1.0)
        expected = expected_distortion(world, channel) - np.log(2.0)
        assert releaser_objective(world, channel, cfg) == pytest.approx(
            expected, abs=1e-12
        )

    def test_matches_composition_of_posterior_and_measures(self):
        rng = np.random.default_rng(5)
        for alpha in (0.9, 1.0, 2.0):
            world = noisy_world(0.6, 0.25)
            probs = rng.dirichlet(np.ones(2), size=2)
            channel = ReleaseChannel(probs)
            cfg = ChannelOptConfig(alpha=alpha, lam=0.7)
            post = bayes_posterior(world, channel)
            recomputed = expected_distortion(world, channel) - 0.7 * (
                arimoto_conditional_entropy(post.joint, alpha)
            )
            assert releaser_objective(world, channel, cfg) == pytest.approx(
                recomputed, abs=1e-12
            )

    def test_batch_objective_matches_scalar_path(self):
        rng = np.random.default_rng(7)
        world = noisy_world(0.45, 0.3)
        cfg = ChannelOptConfig(alpha=3.0, lam=0.4)
        channels = rng.dirichlet(np.ones(2), size=(32, 2))
        batch = _batch_objective(world, channels, cfg)
        for i in range(32):
            scalar = releaser_objective(world, ReleaseChannel(channels[i]), cfg)
            assert batch[i] == pytest.approx(scalar, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_zero_lambda_objective_is_expected_distortion_bit_for_bit(self, n):
        world = _random_square_world(13, n, False)
        cfg = ChannelOptConfig(alpha=2.0, lam=0.0)
        channels = np.random.default_rng(19).dirichlet(np.ones(n), size=(8, n))
        batch = _batch_objective(world, channels, cfg)
        for i, probs in enumerate(channels):
            channel = ReleaseChannel(probs)
            assert releaser_objective(world, channel, cfg) == expected_distortion(world, channel)
            assert batch[i] == expected_distortion(world, channel)

    @pytest.mark.parametrize("probs", [[[0.5, 0.5]], [[0.2, 0.3, 0.5]], np.full((2, 3), 1 / 3)])
    def test_channel_of_the_wrong_shape_rejected(self, probs):
        world, cfg = copy_world(), ChannelOptConfig(alpha=2.0, lam=0.5)
        for score in (expected_distortion, lambda w, c: releaser_objective(w, c, cfg)):
            with pytest.raises(ValidationError, match="^channel has "):
                score(world, ReleaseChannel(probs))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_stacked_objective_equals_single_channel_bit_for_bit(self, alpha):
        world = noisy_world(0.45, 0.3)
        cfg = ChannelOptConfig(alpha=alpha, lam=0.4)
        channels = np.random.default_rng(7).dirichlet(np.ones(2), size=(32, 2))
        batch = _batch_objective(world, channels, cfg)
        for i in range(32):
            assert batch[i] == releaser_objective(world, ReleaseChannel(channels[i]), cfg)


class TestObjectiveGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for alpha in (0.9, 1.0, 2.0, 3.0):
            for lam in (0.0, 0.5, 2.0):
                world = noisy_world(0.55, 0.2)
                cfg = ChannelOptConfig(alpha=alpha, lam=lam)
                probs = rng.dirichlet(np.ones(2) * 5.0, size=2)
                grad = objective_gradient(world, ReleaseChannel(probs), cfg)
                for w in range(2):
                    for z in range(2):
                        up = probs.copy()
                        up[w, z] += h
                        down = probs.copy()
                        down[w, z] -= h
                        fd = (
                            _batch_objective(world, up[None], cfg)[0]
                            - _batch_objective(world, down[None], cfg)[0]
                        ) / (2 * h)
                        assert grad[w, z] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestOptimizeChannel:
    def test_zero_lambda_recovers_near_lossless_release(self):
        world = copy_world(0.5)
        cfg = ChannelOptConfig(alpha=2.0, lam=0.0, max_iters=300)
        result = optimize_channel(world, cfg, seed=0)
        assert expected_distortion(world, result.channel) < 1e-3

    def test_huge_lambda_reaches_full_privacy(self):
        world = copy_world(0.5)
        cfg = ChannelOptConfig(alpha=2.0, lam=1e3, max_iters=400)
        result = optimize_channel(world, cfg, seed=1)
        post = bayes_posterior(world, result.channel)
        h_cond = arimoto_conditional_entropy(post.joint, 2.0)
        h_prior = renyi_entropy(Pmf([0.5, 0.5]), 2.0)
        assert abs(h_cond - h_prior) < 1e-2

    def test_trace_is_non_increasing(self):
        world = noisy_world(0.6, 0.2)
        cfg = ChannelOptConfig(alpha=2.0, lam=0.5, max_iters=200)
        result = optimize_channel(world, cfg, seed=2)
        trace = np.asarray(result.trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_iterates_stay_feasible_and_deterministic(self):
        world = noisy_world(0.5, 0.25)
        cfg = ChannelOptConfig(alpha=3.0, lam=0.8, max_iters=150)
        a = optimize_channel(world, cfg, seed=5)
        b = optimize_channel(world, cfg, seed=5)
        np.testing.assert_array_equal(a.channel.probs, b.channel.probs)
        assert a.trace == b.trace
        rows = a.channel.probs
        assert np.all(rows >= 0)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_grid_oracle_on_binary_instance(self):
        world = copy_world(0.5)
        cfg = ChannelOptConfig(alpha=2.0, lam=0.5, max_iters=400)
        result = optimize_channel(world, cfg, seed=3)
        _, grid_obj = grid_oracle(world, cfg, resolution=301)
        assert releaser_objective(world, result.channel, cfg) <= grid_obj + 1e-3

    def test_monotone_tradeoff_in_lambda(self):
        world = noisy_world(0.5, 0.2)
        dists, ents = [], []
        for lam in (0.0, 0.2, 0.5, 1.0, 2.0):
            cfg = ChannelOptConfig(alpha=2.0, lam=lam, max_iters=400)
            result = optimize_channel(world, cfg, seed=7)
            dists.append(expected_distortion(world, result.channel))
            post = bayes_posterior(world, result.channel)
            ents.append(arimoto_conditional_entropy(post.joint, 2.0))
        assert all(dists[i + 1] >= dists[i] - 1e-6 for i in range(len(dists) - 1))
        assert all(ents[i + 1] >= ents[i] - 1e-6 for i in range(len(ents) - 1))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            optimize_channel(copy_world(0.5), ChannelOptConfig(max_iters=2), seed=seed)

    def test_oversized_alphabet_rejected(self):
        probs = np.full((17, 17, 17), 1.0 / 17**3)
        joint = JointPmf(probs, ("X", "W", "Y"))
        world = WorldModel(joint, np.ones((2, 17)) - np.eye(2, 17))
        with pytest.raises(ValidationError):
            optimize_channel(world, ChannelOptConfig(), seed=0)


class TestGridOracle:
    def test_two_point_resolution_enumerates_two_candidates(self):
        # one free parameter: a single binary row
        rows = enumerate_grid_rows(2, resolution=2)
        assert rows.shape == (2, 2)
        np.testing.assert_allclose(rows, [[0.0, 1.0], [1.0, 0.0]])

    def test_zero_lambda_grid_optimum_is_minimal_distortion(self):
        world = copy_world(0.4)
        cfg = ChannelOptConfig(alpha=2.0, lam=0.0)
        channel, obj = grid_oracle(world, cfg, resolution=51)
        assert obj == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(channel.probs, np.eye(2), atol=1e-12)

    def test_refining_the_grid_moves_optimum_within_spacing(self):
        world = noisy_world(0.6, 0.2)
        cfg = ChannelOptConfig(alpha=2.0, lam=0.5)
        coarse_channel, coarse_obj = grid_oracle(world, cfg, resolution=101)
        fine_channel, fine_obj = grid_oracle(world, cfg, resolution=1001)
        assert fine_obj <= coarse_obj + 1e-12
        assert np.abs(coarse_channel.probs - fine_channel.probs).max() <= 1.0 / 100 + 1e-9

    @pytest.mark.parametrize("resolution", [1, 0, -4, 3.0, 10.5, True, "11", None])
    def test_bad_resolution_rejected(self, resolution):
        with pytest.raises(ValidationError, match="grid resolution must be an integer >= 2"):
            enumerate_grid_rows(2, resolution)
        with pytest.raises(ValidationError, match="grid resolution must be an integer >= 2"):
            grid_oracle(noisy_world(), ChannelOptConfig(alpha=2.0, lam=0.7), resolution)

    def test_numpy_integer_resolution_accepted(self):
        assert len(enumerate_grid_rows(3, np.int64(4))) == 10

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_one_symbol_release_has_one_candidate(self, alpha):
        # |Z| = 1: a single grid row [1.0], no free parameter
        assert enumerate_grid_rows(1, 11).tolist() == [[1.0]]
        world = WorldModel(copy_world(0.4).joint, [[0.0, 1.0]])
        cfg = ChannelOptConfig(alpha=alpha, lam=0.5)
        channel, obj = grid_oracle(world, cfg, 11)
        assert channel.probs.tolist() == [[1.0], [1.0]]
        assert obj == releaser_objective(world, channel, cfg)

    def test_too_many_free_parameters_rejected(self):
        probs = np.full((2, 5, 2), 1.0 / 20)
        joint = JointPmf(probs, ("X", "W", "Y"))
        world = WorldModel(joint, np.zeros((2, 2)))
        assert free_parameter_count(world) == 5
        with pytest.raises(ValidationError):
            grid_oracle(world, ChannelOptConfig(), resolution=11)


def _world(table, labels, distortion):
    return WorldModel(JointPmf(table / table.sum(), labels), distortion)


def side_world():
    """|X| = 3, |W| = 2, |Y| = 2 and an S axis, all cells populated."""
    rng = np.random.default_rng(23)
    return _world(rng.random((3, 2, 2, 2)) + 0.05, ("X", "W", "Y", "S"), HAMMING)


def wide_world():
    """|W| = 4, |Z| = 2, near one-hot: X = 0 almost surely."""
    rng = np.random.default_rng(29)
    table = rng.random((2, 4, 2)) + 0.1
    table[1] *= 1e-9
    return _world(table, ("X", "W", "Y"), HAMMING)


def single_row_world():
    """|W| = 1, |Z| = |Y| = 3: one channel row over a 3-symbol release."""
    rng = np.random.default_rng(31)
    distortion = np.ones((3, 3)) - np.eye(3)
    return _world(rng.random((3, 1, 3)) + 0.05, ("X", "W", "Y"), distortion)


def brute_force_oracle(world, cfg, resolution):
    """First strict minimum of releaser_objective over all grid channels, in
    lexicographic order of the per-row grid choices."""
    rows = enumerate_grid_rows(world.num_symbols, resolution)
    best_channel, best = None, np.inf
    for combo in itertools.product(range(len(rows)), repeat=world.size("W")):
        channel = ReleaseChannel(rows[list(combo)])
        value = releaser_objective(world, channel, cfg)
        if value < best:
            best_channel, best = channel, value
    return best_channel, best


class TestGridOracleAgainstBruteForce:
    @pytest.mark.parametrize(
        "make_world, resolution",
        [(side_world, 11), (wide_world, 5), (single_row_world, 11)],
    )
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0, 50.0])
    def test_matches_brute_force(self, make_world, resolution, alpha):
        world = make_world()
        cfg = ChannelOptConfig(alpha=alpha, lam=0.7)
        channel, obj = grid_oracle(world, cfg, resolution)
        want_channel, want = brute_force_oracle(world, cfg, resolution)
        assert np.isfinite(obj)
        assert obj == pytest.approx(want, abs=1e-12)
        assert releaser_objective(world, channel, cfg) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("num_w, num_z, resolution", [(2, 2, 301), (1, 3, 257)])
    def test_blocked_scan_matches_batch_objective(self, num_w, num_z, resolution):
        # more candidates than one block holds: prefix blocks (|W| = 2) and
        # many blocks of one last-row grid (|W| = 1, 33153 rows)
        rng = np.random.default_rng(37)
        distortion = np.ones((num_z, num_z)) - np.eye(num_z)
        world = _world(rng.random((2, num_w, num_z)) + 0.05, ("X", "W", "Y"), distortion)
        cfg = ChannelOptConfig(alpha=2.0, lam=0.9)
        channel, obj = grid_oracle(world, cfg, resolution)
        rows = enumerate_grid_rows(num_z, resolution)
        combos = itertools.product(range(len(rows)), repeat=num_w)
        values = _batch_objective(world, rows[np.array(list(combos))], cfg)
        assert obj == pytest.approx(values.min(), abs=1e-12)
        assert releaser_objective(world, channel, cfg) == pytest.approx(obj, abs=1e-12)

    def test_exact_tie_returns_first_candidate(self):
        # every candidate scores exactly 0.0; 41^3 candidates span several blocks
        table = np.random.default_rng(41).random((2, 3, 2)) + 0.05
        world = _world(table, ("X", "W", "Y"), np.zeros((2, 2)))
        channel, obj = grid_oracle(world, ChannelOptConfig(alpha=2.0, lam=0.0), 41)
        assert obj == 0.0
        np.testing.assert_array_equal(channel.probs, [[0.0, 1.0]] * 3)


def _random_square_world(seed, n, with_side_info):
    rng = np.random.default_rng(seed)
    distortion = np.ones((n, n)) - np.eye(n)
    if with_side_info:
        return _world(rng.random((2, n, n, 2)) + 0.02, ("X", "W", "Y", "S"), distortion)
    return _world(rng.random((2, n, n)) + 0.02, ("X", "W", "Y"), distortion)


class TestOptimizerProperties:
    @settings(max_examples=12)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 3),
        with_side_info=st.booleans(),
        lam=st.floats(0.0, 2.0),
    )
    def test_shannon_optimum_beats_identity_and_constant_channels(
        self, seed, n, with_side_info, lam
    ):
        # at alpha = 1 the objective is E[d] + lam * I(X; Z[| S]) + const,
        # convex in p(z|w), so the optimizer reaches the global minimum
        world = _random_square_world(seed, n, with_side_info)
        cfg = ChannelOptConfig(alpha=1.0, lam=lam)
        result = optimize_channel(world, cfg, seed=seed)
        got = releaser_objective(world, result.channel, cfg)
        q = np.random.default_rng(seed).dirichlet(np.ones(n))
        rivals = [np.eye(n), np.tile(q, (n, 1))] + [np.tile(row, (n, 1)) for row in np.eye(n)]
        for rival in rivals:
            assert got <= releaser_objective(world, ReleaseChannel(rival), cfg) + 1e-6

    @pytest.mark.parametrize("p0, flip, alpha, lam, step_size", [
        (0.7, 0.25, 1.0, 0.4, 8.0),
        (0.7, 0.25, 1.0, 0.4, 16.0),
        (0.7, 0.25, 1.0, 0.4, 32.0),
        (0.3, 0.15, 0.5, 0.8, 32.0),
        (0.7, 0.25, 1.0, 0.4, 64.0),
        (0.3, 0.15, 0.5, 0.8, 64.0),
    ])
    def test_large_steps_reach_the_grid_optimum(self, p0, flip, alpha, lam, step_size):
        # W = X, so p(z = 1 | w = 0) = 0 sits inside the live cell z = 1, where
        # the entropy's slope is infinite at alpha <= 1 but the kernel reads 0:
        # a step that lands an iterate on that face stops it there, converged,
        # 6.25e-3 to 1.88e-2 above the optimum
        world = noisy_world(p0, flip)
        cfg = ChannelOptConfig(alpha=alpha, lam=lam, step_size=step_size, max_iters=400)
        result = optimize_channel(world, cfg, seed=7)
        _, grid_obj = grid_oracle(world, cfg, resolution=1001)
        assert releaser_objective(world, result.channel, cfg) <= grid_obj + 1e-6

    @pytest.mark.parametrize("p0, flip, alpha, lam", [(0.55, 0.3, 2.0, 1.5), (0.65, 0.0, 3.0, 0.7)])
    def test_optimum_at_the_constant_channel_converges(self, p0, flip, alpha, lam):
        # the oracle's optimum is at or near the constant channel, which a
        # fixed start step approaches too slowly to converge in 400 iterations
        world = noisy_world(p0, flip)
        cfg = ChannelOptConfig(alpha=alpha, lam=lam, max_iters=400)
        result = optimize_channel(world, cfg, seed=7)
        _, grid_obj = grid_oracle(world, cfg, resolution=1001)
        assert result.converged
        assert releaser_objective(world, result.channel, cfg) <= grid_obj + 1e-6

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nx=st.sampled_from([2, 3]),
        ny=st.sampled_from([2, 3]),
        nw_nz=st.sampled_from([(2, 2), (3, 2), (2, 3)]),  # at most 4 free parameters
        with_side_info=st.booleans(),
        sparse=st.booleans(),
        alpha=st.sampled_from([0.5, 0.9, 1.0, 1.1, 2.0, 3.0, 10.0]),
        lam=st.floats(0.1, 1.5),
    )
    def test_default_step_reaches_the_grid_oracle(
        self, seed, nx, ny, nw_nz, with_side_info, sparse, alpha, lam
    ):
        # a sparse joint leaves zero entries inside live cells, as W = X does
        nw, nz = nw_nz
        rng = np.random.default_rng(seed)
        shape = (nx, nw, ny, 2) if with_side_info else (nx, nw, ny)
        table = rng.random(shape) + 0.02
        if sparse:
            table[rng.random(shape) < 0.4] = 0.0
            table.flat[0] = 1.0
        distortion = rng.random((nz, ny))
        if nz == ny:
            np.fill_diagonal(distortion, 0.0)
        world = _world(table, ("X", "W", "Y", "S")[: len(shape)], distortion)
        cfg = ChannelOptConfig(alpha=alpha, lam=lam)
        result = optimize_channel(world, cfg, seed)
        resolution = 201 if free_parameter_count(world) <= 2 else 31
        _, grid_obj = grid_oracle(world, cfg, resolution)
        assert releaser_objective(world, result.channel, cfg) <= grid_obj + 1e-3


class TestChannelOptConfigValidation:
    @pytest.mark.parametrize("field", ["max_iters", "restarts"])
    @pytest.mark.parametrize("value", [0, -3, 2.5, 2.0, True, "4", None])
    def test_non_count_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer >= 1"):
            ChannelOptConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_iters", "restarts"])
    @pytest.mark.parametrize("value", [1, 7, np.int64(3)])
    def test_integer_counts_accepted(self, field, value):
        assert getattr(ChannelOptConfig(**{field: value}), field) == value

    @pytest.mark.parametrize("field, value", [
        ("lam", float("nan")), ("lam", float("inf")), ("lam", -0.5), ("lam", "1"),
        ("lam", -10**400),
        ("step_size", float("nan")), ("step_size", 0.0), ("step_size", True),
        ("alpha", "2"), ("alpha", True), ("alpha", 10**400), ("alpha", 0.0), ("lam", 10**400),
    ])
    def test_bad_real_settings_name_the_field(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be a finite number"):
            ChannelOptConfig(**{field: value})


def multiplicative_step(probs, step, grad):
    """optimize_channel's row update, the row softmax of log P - step * grad,
    with the same ufuncs in the same order."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        trial = np.log(probs) - step * grad
        trial -= trial.max(axis=-1, keepdims=True)
        np.exp(trial, out=trial)
        trial /= trial.sum(axis=-1, keepdims=True)
    return trial


def barzilai_borwein_start(cfg, s, y):
    """optimize_channel's start step for one restart, <s, s> / <s, y> of the
    changes in log P and in the gradient, centred per row over the entries
    whose logs are finite, with the same ufuncs in the same order."""
    with np.errstate(divide="ignore", invalid="ignore"):
        live = np.isfinite(s)
        count = live.sum(axis=-1, keepdims=True)
        s = np.where(live, s, 0.0)
        y = np.where(live, y, 0.0)
        s = np.where(live, s - s.sum(axis=-1, keepdims=True) / count, 0.0)
        y = np.where(live, y - y.sum(axis=-1, keepdims=True) / count, 0.0)
        ss = (s * s).sum(axis=-1).sum(axis=-1)
        sy = (s * y).sum(axis=-1).sum(axis=-1)
        step = ss / sy
    if not (sy > 0.0 and np.isfinite(step)):
        step = cfg.step_size
    return min(max(step, cfg.step_size * 2.0**-channel_module.MAX_TRIALS),
               cfg.step_size * channel_module.MAX_START_RATIO)


def serial_optimize(world, cfg, seed):
    """optimize_channel one restart at a time through the public
    single-channel functions: the reference for the stacked engine.

    Returns the winning result and every restart's trace."""
    best, traces = None, []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), restart]))
        channel = ReleaseChannel(rng.dirichlet(np.ones(world.num_symbols), size=world.size("W")))
        obj = releaser_objective(world, channel, cfg)
        trace, converged, start = [obj], False, cfg.step_size
        grad = objective_gradient(world, channel, cfg)
        for _ in range(cfg.max_iters):
            cand, cand_obj = channel, obj
            for k in range(channel_module.MAX_TRIALS):
                trial = ReleaseChannel(multiplicative_step(channel.probs, start * 2.0**-k, grad))
                trial_obj = releaser_objective(world, trial, cfg)
                if trial_obj <= obj:
                    cand, cand_obj = trial, trial_obj
                    break
            improvement = obj - cand_obj
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.log(cand.probs) - np.log(channel.probs)
            channel, obj = cand, cand_obj
            trace.append(obj)
            if improvement < channel_module.TOLERANCE:
                converged = True
                break
            new_grad = objective_gradient(world, channel, cfg)
            start = barzilai_borwein_start(cfg, s, new_grad - grad)
            grad = new_grad
        traces.append(trace)
        if best is None or obj < best.trace[-1]:
            best = ChannelOptResult(channel, trace, converged)
    return best, traces


def assert_same_result(got, want):
    np.testing.assert_array_equal(got.channel.probs, want.channel.probs)
    assert got.trace == want.trace
    assert got.converged is want.converged


CRITERION5_WORLDS = [
    (0.5, 0.0), (0.5, 0.2), (0.6, 0.1), (0.3, 0.15), (0.7, 0.25),
    (0.45, 0.05), (0.55, 0.3), (0.5, 0.1), (0.65, 0.0),
]


class TestStackedRestarts:
    """optimize_channel runs its restarts as one stack; it must return what
    the restarts run one at a time return."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_criterion5_family_matches_serial_bit_for_bit(self, alpha, lam):
        cfg = ChannelOptConfig(alpha=alpha, lam=lam, max_iters=150)
        for p0, flip in CRITERION5_WORLDS:
            world = noisy_world(p0, flip)
            want, _ = serial_optimize(world, cfg, seed=7)
            assert_same_result(optimize_channel(world, cfg, seed=7), want)

    @pytest.mark.parametrize(
        "alpha, lam",
        [(0.5, 0.0), (0.5, 0.7), (1.0, 0.0), (2.0, 0.0), (2.0, 0.7), (3.0, 0.0), (3.0, 0.7)],
    )
    def test_side_information_world_matches_serial_bit_for_bit(self, alpha, lam):
        world = _random_square_world(3, 2, True)
        cfg = ChannelOptConfig(alpha=alpha, lam=lam, max_iters=150)
        for seed in (1, 2):
            want, _ = serial_optimize(world, cfg, seed)
            assert_same_result(optimize_channel(world, cfg, seed), want)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_three_symbol_world_matches_serial_bit_for_bit(self, alpha, lam):
        world = _random_square_world(5, 3, False)
        cfg = ChannelOptConfig(alpha=alpha, lam=lam, max_iters=150)
        want, _ = serial_optimize(world, cfg, seed=6)
        assert_same_result(optimize_channel(world, cfg, seed=6), want)

    @pytest.mark.parametrize(
        "make_world", [lambda: _random_square_world(3, 2, True), side_world]
    )
    def test_shannon_sums_of_eight_or_more_terms_match_serial_bit_for_bit(self, make_world):
        # at alpha = 1 the Shannon sum spans |X| * |Z| * |S| >= 8 entries
        world = make_world()
        cfg = ChannelOptConfig(alpha=1.0, lam=0.7, max_iters=300)
        want, _ = serial_optimize(world, cfg, seed=4)
        got = optimize_channel(world, cfg, seed=4)
        assert_same_result(got, want)
        assert releaser_objective(world, got.channel, cfg) == want.trace[-1]

    @pytest.mark.parametrize("with_side_info", [False, True])
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_start_steps_over_eight_or_more_entries_match_serial_bit_for_bit(
        self, with_side_info, alpha
    ):
        # the start step's inner products span |W| * |Z| = 16 entries
        world = _random_square_world(11, 4, with_side_info)
        cfg = ChannelOptConfig(alpha=alpha, lam=0.7, max_iters=100)
        want, traces = serial_optimize(world, cfg, seed=3)
        assert max(len(t) for t in traces) > 3
        assert_same_result(optimize_channel(world, cfg, seed=3), want)

    def test_single_restart(self):
        world = noisy_world(0.6, 0.1)
        cfg = ChannelOptConfig(alpha=2.0, lam=0.7, restarts=1)
        want, traces = serial_optimize(world, cfg, seed=3)
        assert len(traces) == 1
        assert_same_result(optimize_channel(world, cfg, seed=3), want)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_single_iteration(self, lam):
        world = noisy_world(0.55, 0.3)
        cfg = ChannelOptConfig(alpha=2.0, lam=lam, max_iters=1)
        want, _ = serial_optimize(world, cfg, seed=5)
        got = optimize_channel(world, cfg, seed=5)
        assert len(got.trace) == 2
        assert_same_result(got, want)

    def test_restarts_converging_at_different_iterations(self):
        world = noisy_world(0.7, 0.25)
        cfg = ChannelOptConfig(alpha=3.0, lam=0.7, restarts=6)
        want, traces = serial_optimize(world, cfg, seed=11)
        assert len({len(t) for t in traces}) > 1
        assert_same_result(optimize_channel(world, cfg, seed=11), want)

    def test_tie_goes_to_lowest_restart_index(self):
        # lam = 0 and an all-zero distortion: every channel scores exactly 0
        world = _world(np.random.default_rng(43).random((2, 3, 2)) + 0.05,
                       ("X", "W", "Y"), np.zeros((2, 2)))
        cfg = ChannelOptConfig(alpha=2.0, lam=0.0, restarts=4)
        got = optimize_channel(world, cfg, seed=9)
        first = optimize_channel(world, replace(cfg, restarts=1), seed=9)
        assert got.trace == [0.0, 0.0] and got.converged
        np.testing.assert_array_equal(got.channel.probs, first.channel.probs)
        assert_same_result(got, serial_optimize(world, cfg, seed=9)[0])


def count_kernel_calls(monkeypatch):
    """Record the stack size of every entropy-kernel call channel makes."""
    calls = []

    def counting(tables, alpha, grad=False, work=None):
        calls.append(tables.shape[-1])
        return _arimoto_entropy(tables, alpha, grad=grad, work=work)

    monkeypatch.setattr(channel_module, "_arimoto_entropy", counting)
    return calls


class TestStepLadder:
    """optimize_channel scores LADDER_WIDTH halvings of every restart still
    halving in one call; each restart must take the step that halving one
    step at a time takes (serial_optimize)."""

    @settings(max_examples=80)
    @given(
        seed=st.integers(0, 2**16),
        sizes=st.tuples(*[st.sampled_from([2, 3])] * 3),
        num_s=st.sampled_from([0, 2, 3]),
        alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0, 10.0]),
        lam=st.sampled_from([0.0, 0.7, 1.5]),
        restarts=st.integers(1, 6),
    )
    def test_matches_sequential_halving(self, seed, sizes, num_s, alpha, lam, restarts):
        nx, nw, nz = sizes
        rng = np.random.default_rng(seed)
        distortion = np.ones((nz, nz)) - np.eye(nz)
        if num_s:
            world = _world(rng.random((nx, nw, nz, num_s)) + 0.02, ("X", "W", "Y", "S"),
                           distortion)
        else:
            world = _world(rng.random((nx, nw, nz)) + 0.02, ("X", "W", "Y"), distortion)
        cfg = ChannelOptConfig(alpha=alpha, lam=lam, restarts=restarts, max_iters=60)
        want, _ = serial_optimize(world, cfg, seed)
        assert_same_result(optimize_channel(world, cfg, seed), want)

    @pytest.mark.parametrize("make_world, alpha", [
        (lambda: noisy_world(0.55, 0.3), 2.0),
        (lambda: _random_square_world(5, 3, False), 2.0),
        (side_world, 3.0),
    ])
    def test_large_step_takes_several_rounds(self, monkeypatch, make_world, alpha):
        world = make_world()
        cfg = ChannelOptConfig(alpha=alpha, lam=1.5, step_size=1024, max_iters=80)
        calls = count_kernel_calls(monkeypatch)
        got = optimize_channel(world, cfg, seed=2)
        # one call for the starts, then more than one round per iteration
        assert len(calls) - 1 > len(got.trace) - 1
        monkeypatch.undo()
        assert_same_result(got, serial_optimize(world, cfg, 2)[0])

    @pytest.mark.parametrize("lam, step_size, seed", [
        (1e6, 64, 3), (1e8, 0.5, 1), (1e15, 64, 1),
    ])
    def test_huge_lambda_runs_as_halving_runs(self, lam, step_size, seed):
        # huge gradients push the trial rows' entries to underflow; the
        # multiplicative step must still return rows that sum to 1
        world = _random_square_world(3, 2, True)
        cfg = ChannelOptConfig(alpha=10.0, lam=lam, step_size=step_size, max_iters=50)
        got = optimize_channel(world, cfg, seed)
        _check_channel_rows(got.channel.probs)
        assert_same_result(got, serial_optimize(world, cfg, seed)[0])

    def test_large_lambda_on_the_side_world_finishes(self):
        # steps of order 1e6 underflow most entries to zero; the rows must
        # still sum to 1 within NORMALIZATION_TOL, or the run aborts
        cfg = ChannelOptConfig(alpha=0.5, lam=1e6)
        got = optimize_channel(side_world(), cfg, seed=1)
        assert all(b <= a for a, b in zip(got.trace, got.trace[1:]))
        assert_same_result(got, serial_optimize(side_world(), cfg, 1)[0])

    @pytest.mark.parametrize("make_world, alpha, lam", [
        (lambda: noisy_world(0.55, 0.3), 0.5, 0.0),
        (lambda: noisy_world(0.55, 0.3), 2.0, 0.0),
        (side_world, 2.0, 1.5),
        (side_world, 3.0, 0.7),
    ])
    def test_an_underflowed_entry_stays_zero(self, make_world, alpha, lam):
        # step * gradient gaps above about 745 underflow entries to exactly 0,
        # and a later step starts from them: log 0 = -inf keeps them at 0
        # without NumPy's warnings, where P * exp(-step * grad) made 0/0
        world = make_world()
        cfg = ChannelOptConfig(alpha=alpha, lam=lam, step_size=1e4, max_iters=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = optimize_channel(world, cfg, seed=7)
        assert (got.channel.probs == 0.0).any() and len(got.trace) > 2
        _check_channel_rows(got.channel.probs)
        _, grid_obj = grid_oracle(world, cfg, resolution=201)
        assert releaser_objective(world, got.channel, cfg) <= grid_obj + 1e-12
        assert_same_result(got, serial_optimize(world, cfg, 7)[0])

    def test_overflowing_step_fails_as_halving_fails(self):
        # step_size * gradient overflows, so the first trial rows are non-finite;
        # the ladder names the settings, without NumPy's warnings
        cfg = ChannelOptConfig(alpha=10.0, lam=1.7e308, step_size=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=(
                r"^lambda = 1\.7e\+308 with step_size = 64 overflows the optimizer's "
                r"gradient step; lower lambda or step_size$"
            )):
                optimize_channel(side_world(), cfg, 1)
        with pytest.raises(ValidationError,
                           match="^ReleaseChannel: entries must be non-negative and finite$"):
            serial_optimize(side_world(), cfg, 1)


class TestCallBudget:
    def test_about_one_kernel_call_per_iteration(self, monkeypatch):
        # most iterations accept a rung of the ladder's first round: 191
        # calls over 149 iterations
        calls = count_kernel_calls(monkeypatch)
        cfg = ChannelOptConfig(alpha=2.0, lam=1.5, max_iters=400)
        result = optimize_channel(noisy_world(0.55, 0.3), cfg, seed=0)
        assert result.converged
        assert len(calls) <= 1.5 * (len(result.trace) - 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_a_start_creeping_to_the_constant_channel_is_clipped_less(self, monkeypatch, seed):
        # a losing restart's starts creep toward the constant channel: with
        # the start capped at 64 * step_size, seeds 0-19 took 133-166 calls;
        # at 216 they take 82-106 (and 18-60 uncapped)
        calls = count_kernel_calls(monkeypatch)
        cfg = ChannelOptConfig(alpha=2.0, lam=0.5, max_iters=400)
        assert optimize_channel(noisy_world(0.5, 0.0), cfg, seed).converged
        assert len(calls) <= 120


class TestChannelRowCheck:
    @pytest.mark.parametrize("bad", [np.nan, -0.25, 0.9])
    def test_stack_check_raises_the_release_channel_message(self, bad):
        row = [bad, 1.0 - bad] if bad == -0.25 else [bad, 0.5]
        stack = np.full((3, 2, 2), 0.5)
        stack[1, 1] = row
        with pytest.raises(ValidationError) as single:
            ReleaseChannel(stack[1])
        with pytest.raises(ValidationError) as stacked:
            _check_channel_rows(stack)
        assert str(stacked.value) == str(single.value)
        assert str(single.value).startswith("ReleaseChannel: ")

    def test_valid_stack_passes(self):
        _check_channel_rows(np.random.default_rng(0).dirichlet(np.ones(3), size=(4, 2)))

    @pytest.mark.parametrize("probs", [np.array(1.0), np.ones(2) / 2, np.empty((0, 2))])
    def test_non_matrix_or_empty_channel_is_a_validation_error(self, probs):
        with pytest.raises(ValidationError, match="^ReleaseChannel: "):
            ReleaseChannel(probs)


def allocating_grid_oracle(world, cfg, resolution):
    """grid_oracle as it was before its workspaces: blocks of 2^15
    candidates, every table and temporary a new array.  The reference for
    the workspace scan, which must return the same channel and objective
    bit for bit."""
    block = 1 << 15
    rows = enumerate_grid_rows(world.num_symbols, resolution)
    nr, nw = rows.shape[0], world.size("W")
    parts = np.einsum("xws,rz->wxzsr", world._xws, rows).reshape(nw, len(world._xws), -1, nr)
    dist = world._cost @ rows.T
    nprefix = nr ** (nw - 1)
    per, span = max(1, block // nr), min(nr, block)
    best_obj, best_index = np.inf, -1
    for p0 in range(0, nprefix, per):
        prefix = _decode(np.arange(p0, min(p0 + per, nprefix)), nr, nw - 1)
        base = np.zeros(parts.shape[1:3] + (len(prefix),))
        base_dist = np.zeros(len(prefix))
        for w in range(nw - 1):
            base += parts[w][:, :, prefix[:, w]]
            base_dist += dist[w, prefix[:, w]]
        for r0 in range(0, nr, span):
            last = slice(r0, min(r0 + span, nr))
            values = base_dist[:, None] + dist[-1, last]
            if cfg.lam != 0.0:
                tables = base[:, :, :, None] + parts[-1][:, :, None, last]
                values = values - cfg.lam * _arimoto_entropy(tables, cfg.alpha)
            local = int(np.argmin(values))
            if values.flat[local] < best_obj:
                best_obj = float(values.flat[local])
                i, r = divmod(local, values.shape[1])
                best_index = (p0 + i) * nr + r0 + r
    choice = _decode(np.array([best_index]), nr, nw)[0]
    return ReleaseChannel(rows[choice]), best_obj


# (world, resolution): several workspace blocks with a short last one in
# every case; single_row_world's 33153 last-row grid rows fill about half a chunk
ORACLE_WORLDS = (
    [(lambda p0=p0, flip=flip: noisy_world(p0, flip), 301) for p0, flip in CRITERION5_WORLDS]
    + [(side_world, 301), (wide_world, 11), (single_row_world, 257)]
)


def record_scan_tables(monkeypatch):
    """Record a copy of every table grid_oracle's scan hands the entropy
    kernel (the calls that pass a ``work`` buffer)."""
    calls = []

    def recording(tables, alpha, grad=False, work=None):
        if work is not None:
            calls.append(tables.copy())
        return _arimoto_entropy(tables, alpha, grad=grad, work=work)

    monkeypatch.setattr(channel_module, "_arimoto_entropy", recording)
    return calls


class TestGridOracleWorkspace:
    """grid_oracle scores its blocks in buffers allocated once per call; it
    must return what the allocating block loop returns."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, 50.0])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_equals_the_allocating_scan_bit_for_bit(self, alpha, lam):
        cfg = ChannelOptConfig(alpha=alpha, lam=lam)
        for make_world, resolution in ORACLE_WORLDS:
            world = make_world()
            channel, obj = grid_oracle(world, cfg, resolution)
            want_channel, want = allocating_grid_oracle(world, cfg, resolution)
            assert obj == want
            np.testing.assert_array_equal(channel.probs, want_channel.probs)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_a_last_row_grid_larger_than_a_chunk_equals_the_allocating_scan(self, alpha, lam):
        # 80601 last-row grid rows, more than a chunk's candidates
        assert len(enumerate_grid_rows(3, 401)) > channel_module.GRID_CHUNK_ENTRIES
        cfg = ChannelOptConfig(alpha=alpha, lam=lam)
        channel, obj = grid_oracle(single_row_world(), cfg, 401)
        want_channel, want = allocating_grid_oracle(single_row_world(), cfg, 401)
        assert obj == want
        np.testing.assert_array_equal(channel.probs, want_channel.probs)

    @pytest.mark.parametrize("make_world, resolution", [(single_row_world, 257),
                                                         (noisy_world, 41)])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_each_candidate_is_scored_once_or_ruled_out(
        self, monkeypatch, make_world, resolution, alpha
    ):
        world, cfg = make_world(), ChannelOptConfig(alpha=alpha, lam=1.5)
        calls = record_scan_tables(monkeypatch)
        _, best = grid_oracle(world, cfg, resolution)
        rows = enumerate_grid_rows(world.num_symbols, resolution)
        nr, nw, nx = len(rows), world.size("W"), world.size("X")
        parts = np.einsum("xws,rz->wxzsr", world._xws, rows).reshape(nw, nx, -1, nr)
        # a candidate's table is its prefix's part (none when |W| = 1) plus
        # its last row's, bit for bit
        base = parts[0] if nw == 2 else np.zeros(parts.shape[1:3] + (1,))
        index = {(base[:, :, p] + parts[-1][:, :, r]).tobytes(): p * nr + r
                 for p in range(base.shape[-1]) for r in range(nr)}
        total = len(index)
        assert total == base.shape[-1] * nr
        block = channel_module.GRID_BLOCK_ENTRIES // (nx * parts.shape[2])
        scored = []
        for tables in calls:
            assert 1 <= tables.shape[-1] <= block
            scored += [index[tables[:, :, j].tobytes()] for j in range(tables.shape[-1])]
        assert len(set(scored)) == len(scored)
        ruled_out = np.array(sorted(set(range(total)) - set(scored)))
        assert 0 < len(ruled_out) and len(scored) + len(ruled_out) == total
        # each ruled-out candidate's bound, by the entropy of its run's
        # corner table or by H(X | S), already exceeds the optimum
        run = channel_module.GRID_RUN_ROWS
        corners = channel_module._run_corners(parts[-1], np.arange(0, nr, run), alpha)
        corner_tables = base[:, :, :, None] + corners[:, :, None, :]
        h_corner = _arimoto_entropy(corner_tables.reshape(nx, parts.shape[2], -1), alpha)
        h_s = _arimoto_entropy(world._xws.sum(axis=1), alpha)
        dist = world._cost @ rows.T
        prefix_dist = dist[0] if nw == 2 else np.zeros(1)
        distortion = (prefix_dist[:, None] + dist[-1]).ravel()[ruled_out]
        h_bound = np.minimum(h_corner.reshape(-1, corners.shape[-1]), h_s)
        p, r = np.divmod(ruled_out, nr)
        assert (distortion - cfg.lam * h_bound[p, r // run]).min() > best
        if nw == 2:  # the corners rule out candidates that H(X | S) alone keeps
            assert (distortion - cfg.lam * h_s <= best).any()

    def test_under_a_tenth_of_a_criterion5_scan_reaches_the_kernel(self, monkeypatch):
        # scored candidates, corner tables and the sub-grid together
        calls = count_kernel_calls(monkeypatch)
        grid_oracle(noisy_world(0.55, 0.3), ChannelOptConfig(alpha=2.0, lam=1.5), 1001)
        assert 0 < sum(calls) < 0.1 * 1001**2

    @pytest.mark.parametrize("make_world", [noisy_world, side_world])
    def test_traced_peak_of_a_resolution_1001_scan_is_small(self, make_world):
        world = make_world()
        cfg = ChannelOptConfig(alpha=2.0, lam=0.6)
        tracemalloc.start()
        try:
            grid_oracle(world, cfg, 1001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6


# Orders across (0.1, 50) and within 1e-11 .. 1e-2 of 1, where the kernel's
# closed form divides its rounding by 1 - alpha.
PRUNING_ORDERS = st.one_of(
    st.floats(0.1, 50.0),
    st.just(1.0),
    st.builds(lambda gap, sign: 1.0 + sign * gap,
              st.sampled_from([1e-11, 1e-8, 1e-5, 1e-2]), st.sampled_from([-1.0, 1.0])),
)


class TestGridOraclePruning:
    """grid_oracle rules out a candidate when distortion - lam * H(X | S)
    exceeds the incumbent by more than _bound_slack; the kernel must honour
    that bound, and the pruned scan must return the full scan's bits."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(2, 4)),
        num_s=st.sampled_from([0, 2, 3]),
        alpha=PRUNING_ORDERS,
        grid_rows=st.booleans(),
        faint=st.sampled_from([1.0, 1e-9, 1e-14]),
    )
    def test_kernel_entropy_never_exceeds_the_side_information_bound(
        self, seed, sizes, num_s, alpha, grid_rows, faint
    ):
        nx, nw, nz = sizes
        rng = np.random.default_rng(seed)
        xws = rng.random((nx, nw, max(num_s, 1))) + 0.01
        xws[0] *= faint  # entries near and below ZERO_PROB
        xws /= xws.sum()
        if grid_rows:  # grid channels, with exact zeros
            grid = enumerate_grid_rows(nz, 5)
            channel = grid[rng.integers(len(grid), size=nw)]
        else:
            channel = rng.dirichlet(np.ones(nz), size=nw)
        table = np.einsum("xws,wz->xzs", xws, channel).reshape(nx, -1)
        h = _arimoto_entropy(table, alpha)
        h_s = _arimoto_entropy(xws.sum(axis=1), alpha)
        assert h <= h_s + channel_module._bound_slack(alpha, 1.0, table.size, h_s)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(2, 4)),
        num_s=st.sampled_from([0, 2, 3]),
        alpha=PRUNING_ORDERS,
        grid_rows=st.booleans(),
        faint=st.sampled_from([1.0, 1e-9, 1e-14]),
    )
    def test_kernel_entropy_never_exceeds_its_run_corner(
        self, seed, sizes, num_s, alpha, grid_rows, faint
    ):
        nx, nw, nz = sizes
        run = channel_module.GRID_RUN_ROWS
        rng = np.random.default_rng(seed)
        xws = rng.random((nx, nw, max(num_s, 1))) + 0.01
        xws[0] *= faint  # entries near and below ZERO_PROB
        xws /= xws.sum()
        if grid_rows:  # a run of consecutive grid rows, with exact zeros
            grid = enumerate_grid_rows(nz, 9)
            prefix = grid[rng.integers(len(grid), size=nw - 1)]
            start = rng.integers(len(grid) - run + 1)
            last = grid[start : start + run]
        else:
            prefix = rng.dirichlet(np.ones(nz), size=nw - 1)
            last = rng.dirichlet(np.ones(nz), size=run)
        # rows 0..|W|-2 fixed, the last row over the run
        base = np.einsum("xws,wz->xzs", xws[:, :-1], prefix).reshape(nx, -1)
        parts = np.einsum("xs,rz->xzsr", xws[:, -1], last).reshape(nx, -1, run)
        corner = base + channel_module._run_corners(parts, np.array([0]), alpha)[:, :, 0]
        h = _arimoto_entropy(base[:, :, None] + parts, alpha)
        h_corner = _arimoto_entropy(corner, alpha)
        h_s = _arimoto_entropy(xws.sum(axis=1), alpha)
        assert h.max() <= h_corner + channel_module._bound_slack(alpha, 1.0, corner.size, h_s)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_x=st.integers(2, 3),
        shape=st.sampled_from([(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (4, 2)]),
        num_s=st.sampled_from([0, 2]),
        alpha=PRUNING_ORDERS,
        lam=st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
        resolution=st.integers(3, 13),
    )
    def test_equals_the_allocating_scan_on_random_worlds(
        self, seed, num_x, shape, num_s, alpha, lam, resolution
    ):
        nw, nz = shape
        rng = np.random.default_rng(seed)
        distortion = np.ones((nz, nz)) - np.eye(nz)
        if num_s:
            world = _world(rng.random((num_x, nw, nz, num_s)) + 0.02, ("X", "W", "Y", "S"),
                           distortion)
        else:
            world = _world(rng.random((num_x, nw, nz)) + 0.02, ("X", "W", "Y"), distortion)
        cfg = ChannelOptConfig(alpha=alpha, lam=lam)
        channel, obj = grid_oracle(world, cfg, resolution)
        want_channel, want = allocating_grid_oracle(world, cfg, resolution)
        assert obj == want
        np.testing.assert_array_equal(channel.probs, want_channel.probs)

    @pytest.mark.parametrize("make_world", [side_world, single_row_world])
    @pytest.mark.parametrize("lam", [0.3, 0.7, 2.0])
    def test_lone_survivors_equal_the_allocating_scan(self, monkeypatch, make_world, lam):
        # with one prefix per chunk many scoring calls find one survivor, whose
        # Shannon sum at alpha = 1 spans 9 or 12 entries
        world, cfg = make_world(), ChannelOptConfig(alpha=1.0, lam=lam)
        want_channel, want = allocating_grid_oracle(world, cfg, 41)
        monkeypatch.setattr(channel_module, "GRID_CHUNK_ENTRIES", 3)
        calls = record_scan_tables(monkeypatch)
        channel, obj = grid_oracle(world, cfg, 41)
        assert obj == want
        np.testing.assert_array_equal(channel.probs, want_channel.probs)
        assert min(t.shape[-1] for t in calls) == 1

    @pytest.mark.parametrize("lam", [1e308, 1.7e308])
    def test_overflowing_objective_is_scanned_in_full(self, lam):
        # at 1.7e308 lambda * H(X | S) overflows, so no candidate's bound holds
        cfg = ChannelOptConfig(alpha=2.0, lam=lam)
        with np.errstate(over="ignore", invalid="ignore"):
            channel, obj = grid_oracle(side_world(), cfg, 21)
            want_channel, want = allocating_grid_oracle(side_world(), cfg, 21)
        assert obj == want
        np.testing.assert_array_equal(channel.probs, want_channel.probs)


def serial_start_steps(cfg, s, y):
    """The start steps of a stack, one restart at a time through
    ``barzilai_borwein_start``, which masks every entry."""
    steps = [barzilai_borwein_start(cfg, s_r, y_r) for s_r, y_r in zip(s, y)]
    return np.array(steps, dtype=np.float64)[:, None, None]


class TestStartStepShortcut:
    """``_start_steps`` skips its masks when every change in log P is
    finite; it must return what the masked path returns, bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 5)),
           scale=st.sampled_from([1e-12, 1e-3, 1.0, 40.0]),
           step_size=st.sampled_from([1e-3, 8.0, 64.0]))
    def test_finite_stacks_equal_the_masked_path(self, seed, shape, scale, step_size):
        rng = np.random.default_rng(seed)
        s = rng.normal(0.0, scale, shape)
        y = rng.normal(0.0, 1.0, shape) + rng.choice([0.0, 3.0]) * s  # <s, y> of both signs
        s[rng.random(shape) < 0.2] = 0.0
        cfg = ChannelOptConfig(step_size=step_size)
        with np.errstate(divide="ignore", invalid="ignore"):
            got, want = _start_steps(cfg, s, y), serial_start_steps(cfg, s, y)
        assert got.tobytes() == want.tobytes() and got.shape == want.shape

    def test_an_underflowed_entry_takes_the_masked_path(self):
        # y = 2 s on the live entries: the masked path's start is 1/2 exactly,
        # where unmasked centring would make <s, s> NaN and fall back to step_size
        rng = np.random.default_rng(5)
        s = rng.normal(0.0, 1.0, (3, 2, 3))
        y = 2.0 * s
        s[1, 0, 2] = -np.inf
        cfg = ChannelOptConfig()
        with np.errstate(divide="ignore", invalid="ignore"):
            got, want = _start_steps(cfg, s, y), serial_start_steps(cfg, s, y)
        assert got.tobytes() == want.tobytes()
        assert got.ravel().tolist() == [0.5, 0.5, 0.5]


def warning_worlds():
    """Worlds whose kernel tables have zero cells (X = W = Y copies), an
    all-zero X row (x = 2 never occurs) and one cell (|Z| = 1, no S)."""
    copy = copy_world(0.4).joint.probs
    zero_row = np.zeros((3, 2, 2))
    zero_row[:2] = np.random.default_rng(43).random((2, 2, 2)) + 0.05
    side = np.random.default_rng(47).random((2, 2, 2, 2)) + 0.05
    side[1, :, :, 0] = 0.0
    return [
        _world(copy, ("X", "W", "Y"), HAMMING),
        _world(zero_row, ("X", "W", "Y"), HAMMING),
        _world(side, ("X", "W", "Y", "S"), HAMMING),
        _world(copy, ("X", "W", "Y"), [[0.0, 1.0]]),
        _world(side, ("X", "W", "Y", "S"), [[0.0, 1.0]]),
    ]


class TestNoWarnings:
    """The optimizer and the grid oracle let no NumPy warning out on tables
    with zero cells, all-zero X rows or one cell."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 50.0])
    def test_optimizer_and_oracle(self, alpha):
        cfg = ChannelOptConfig(alpha=alpha, lam=0.7, max_iters=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for world in warning_worlds():
                optimize_channel(world, cfg, seed=2)
                grid_oracle(world, cfg, 11)
