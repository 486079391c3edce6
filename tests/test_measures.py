"""Unit and property tests for the discrete alpha-information measures."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alphaprivacy.errors import ValidationError
from alphaprivacy.measures import (
    NORMALIZATION_TOL,
    ZERO_PROB,
    JointPmf,
    Pmf,
    PosteriorBatch,
    _arimoto_entropy,
    _check_distributions,
    _logsumexp,
    _masked_log,
    _x_first,
    alpha_mutual_information,
    arimoto_conditional_entropy,
    batch_sequence_arimoto_entropy,
    batch_sequence_arimoto_entropy_grad,
    conditional_alpha_mi_given_s,
    renyi_entropy,
)

from oracles import (
    alpha_mi_direct,
    arimoto_conditional_direct,
    conditional_alpha_mi_direct,
    random_joint,
    renyi_entropy_direct,
    sequence_entropy_exhaustive,
    shannon_direct,
)

ALPHAS = [0.5, 0.9, 1.0, 1.1, 2.0, 3.0]

# alpha = 1 exactly (the Shannon branch) or anywhere in [0.1, 50]
ANY_ALPHA = st.one_of(st.just(1.0), st.floats(0.1, 50.0))
SEEDS = st.integers(0, 2**32 - 1)


def random_posteriors(rng, nbatch, nsteps, nsym):
    p = rng.random((nbatch, nsteps, nsym)) + 1e-2
    return p / p.sum(axis=2, keepdims=True)


class TestValidation:
    def test_negative_probability_rejected(self):
        with pytest.raises(ValidationError):
            Pmf([0.5, 0.6, -0.1])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            Pmf([0.5, 0.6])

    def test_bad_alpha_rejected(self):
        p = Pmf([0.5, 0.5])
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                renyi_entropy(p, bad)

    @pytest.mark.parametrize("bad", [True, "2", 10**400, None])
    def test_mistyped_alpha_rejected_by_every_measure(self, bad):
        joint = JointPmf(np.full((2, 2, 2), 0.125), ("X", "Z", "S"))
        xz = joint.marginal(("X", "Z"))
        calls = [
            lambda: renyi_entropy(Pmf([0.5, 0.5]), bad),
            lambda: arimoto_conditional_entropy(xz, bad),
            lambda: alpha_mutual_information(xz, bad),
            lambda: conditional_alpha_mi_given_s(joint, bad),
            lambda: batch_sequence_arimoto_entropy(PosteriorBatch(np.full((1, 1, 2), 0.5)), bad),
            lambda: batch_sequence_arimoto_entropy_grad(np.full((1, 1, 2), 0.5), bad),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="alpha must be a finite number > 0"):
                call()

    @pytest.mark.parametrize("make, name", [
        (Pmf, "Pmf"),
        (lambda p: JointPmf(p, ("X", "Z")), "JointPmf"),
        (PosteriorBatch, "PosteriorBatch"),
    ])
    def test_zero_dimensional_array_is_a_validation_error(self, make, name):
        with pytest.raises(ValidationError, match=f"^{name}: "):
            make(np.array(1.0))

    @pytest.mark.parametrize("probs, name", [
        ([0.5, 0.6], "Pmf"),
        ([0.5, np.nan], "Pmf"),
        (np.full((2, 2), 0.3), "JointPmf"),
        (np.array([[0.5, 1.5], [0.0, -1.0]]), "JointPmf"),
        (np.full((1, 2, 2), 0.4), "PosteriorBatch"),
    ])
    def test_messages_name_the_class(self, probs, name):
        make = {"Pmf": Pmf, "PosteriorBatch": PosteriorBatch,
                "JointPmf": lambda p: JointPmf(p, ("X", "Z"))}[name]
        with pytest.raises(ValidationError, match=f"^{name}: "):
            make(probs)

    def test_joint_axis_count(self):
        with pytest.raises(ValidationError):
            JointPmf(np.ones(4) / 4.0, ("X",))

    def test_joint_label_mismatch(self):
        with pytest.raises(ValidationError):
            JointPmf(np.ones((2, 2)) / 4.0, ("X", "Z", "S"))

    @pytest.mark.parametrize("shape, axes, keep", [
        ((2, 2), ("X", "Z"), ("X", "X")),
        ((2, 3, 2), ("X", "Z", "S"), ("S", "X", "S")),
        ((2, 3, 2), ("X", "Z", "S"), ("Z", "Z", "Z")),
    ])
    def test_repeated_marginal_label_is_named(self, shape, axes, keep):
        joint = JointPmf(np.full(shape, 1.0 / np.prod(shape)), axes)
        repeated = next(lbl for lbl in keep if keep.count(lbl) > 1)
        with pytest.raises(ValidationError, match=f"^JointPmf: axis '{repeated}' repeated in"):
            joint.marginal(keep)

    def test_empty_posterior_batch_rejected(self):
        with pytest.raises(ValidationError):
            PosteriorBatch(np.empty((0, 2, 2)))

    def test_non_normalized_posterior_slice_rejected(self):
        p = np.full((2, 2, 2), 0.5)
        p[1, 0] = [0.9, 0.2]
        with pytest.raises(ValidationError):
            PosteriorBatch(p)


class TestCheckDistributions:
    def test_returns_a_float64_array(self):
        got = _check_distributions([[1, 0], [0, 1]], "T", axis=-1)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.eye(2))

    @pytest.mark.parametrize("probs", [[], [[0.5, 0.5], [np.inf, 0.0]], [[1.5, -0.5]]])
    def test_empty_non_finite_and_negative_rejected(self, probs):
        with pytest.raises(ValidationError, match="^T: "):
            _check_distributions(probs, "T", axis=-1)

    def test_axis_selects_what_must_sum_to_one(self):
        rows = np.full((2, 2), 0.5)
        assert _check_distributions(rows, "T", axis=-1) is not None
        with pytest.raises(ValidationError, match="normalization off by 1"):
            _check_distributions(rows, "T")
        with pytest.raises(ValidationError, match="normalization off by 0.5"):
            _check_distributions(np.full((2, 2), 0.25), "T", axis=-1)

    def test_tolerance_is_normalization_tol(self):
        _check_distributions([0.5, 0.5 + 0.5e-12], "T")
        with pytest.raises(ValidationError):
            _check_distributions([0.5, 0.5 + 2e-12], "T")


class TestRenyiEntropy:
    def test_uniform_is_log_alphabet_for_every_alpha(self):
        for n in (2, 3, 5):
            p = Pmf(np.full(n, 1.0 / n))
            for alpha in ALPHAS + [10.0, 0.1]:
                assert renyi_entropy(p, alpha) == pytest.approx(np.log(n), abs=1e-12)

    def test_degenerate_distribution_has_zero_entropy(self):
        p = Pmf([1.0, 0.0])
        for alpha in ALPHAS:
            assert renyi_entropy(p, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_skewed_binary_order_two(self):
        # direct evaluation: ||p||_2 = sqrt(0.625), entropy = -ln 0.625
        assert renyi_entropy(Pmf([0.75, 0.25]), 2.0) == pytest.approx(
            0.47000362924573563, abs=1e-12
        )

    def test_matches_direct_evaluation_on_random_pmfs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(2, 7)
            p = rng.random(n) + 1e-3
            p /= p.sum()
            for alpha in ALPHAS:
                assert renyi_entropy(Pmf(p), alpha) == pytest.approx(
                    renyi_entropy_direct(p, alpha), abs=1e-10
                )

    def test_large_alpha_near_one_hot_stays_finite(self):
        # the log-space path must not underflow where p^alpha does
        p = Pmf([1.0 - 1e-12, 1e-12])
        val = renyi_entropy(p, 50.0)
        assert np.isfinite(val) and val >= 0.0

    def test_uniform_maximality(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            p = rng.random(n) + 1e-6
            p /= p.sum()
            for alpha in ALPHAS:
                assert renyi_entropy(Pmf(p), alpha) <= np.log(n) + 1e-10

    def test_monotone_nonincreasing_in_alpha(self):
        rng = np.random.default_rng(13)
        grid = [0.5, 0.9, 1.0, 1.1, 2.0, 3.0, 10.0]
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p = rng.random(n) + 1e-4
            p /= p.sum()
            vals = [renyi_entropy(Pmf(p), a) for a in grid]
            assert all(vals[i] >= vals[i + 1] - 1e-10 for i in range(len(vals) - 1))


class TestArimotoConditionalEntropy:
    def test_independent_variables_leave_entropy_unchanged(self):
        px = np.array([0.3, 0.7])
        pz = np.array([0.25, 0.35, 0.4])
        joint = JointPmf(np.outer(px, pz), ("X", "Z"))
        for alpha in ALPHAS:
            assert arimoto_conditional_entropy(joint, alpha) == pytest.approx(
                renyi_entropy(Pmf(px), alpha), abs=1e-12
            )

    def test_deterministic_copy_has_zero_conditional_entropy(self):
        joint = JointPmf(np.diag([0.4, 0.6]), ("X", "Z"))
        for alpha in ALPHAS:
            assert arimoto_conditional_entropy(joint, alpha) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_symmetric_binary_channel_order_two(self):
        # p(z) = 0.5 each, p(x|z) = (0.8, 0.2): entropy = -2 ln sqrt(0.68)
        joint = JointPmf([[0.4, 0.1], [0.1, 0.4]], ("X", "Z"))
        assert arimoto_conditional_entropy(joint, 2.0) == pytest.approx(
            0.3856624808119846, abs=1e-12
        )

    def test_zero_probability_conditioning_cells_ignored(self):
        table = np.array([[0.4, 0.1, 0.0], [0.1, 0.4, 0.0]])
        with_dead_col = JointPmf(table, ("X", "Z"))
        without = JointPmf(table[:, :2], ("X", "Z"))
        for alpha in ALPHAS:
            assert arimoto_conditional_entropy(with_dead_col, alpha) == pytest.approx(
                arimoto_conditional_entropy(without, alpha), abs=1e-12
            )

    def test_matches_direct_evaluation_on_random_joints(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            table = random_joint(rng, shape)
            joint = JointPmf(table, ("X", "Z"))
            for alpha in ALPHAS:
                assert arimoto_conditional_entropy(joint, alpha) == pytest.approx(
                    arimoto_conditional_direct(table, alpha), abs=1e-10
                )

    def test_axis_order_does_not_matter(self):
        rng = np.random.default_rng(19)
        table = random_joint(rng, (3, 4))
        a = JointPmf(table, ("X", "Z"))
        b = JointPmf(table.T, ("Z", "X"))
        for alpha in ALPHAS:
            assert arimoto_conditional_entropy(a, alpha) == pytest.approx(
                arimoto_conditional_entropy(b, alpha), abs=1e-12
            )

    def test_conditioning_never_increases_entropy(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            table = random_joint(rng, (3, 3))
            joint = JointPmf(table, ("X", "Z"))
            marg = joint.marginal(("X",))
            for alpha in ALPHAS:
                assert arimoto_conditional_entropy(joint, alpha) <= renyi_entropy(
                    marg, alpha
                ) + 1e-10


class TestAlphaMutualInformation:
    def test_independent_joint_gives_zero(self):
        joint = JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]), ("X", "Z"))
        for alpha in ALPHAS:
            assert alpha_mutual_information(joint, alpha) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_full_disclosure_gives_marginal_entropy(self):
        joint = JointPmf(np.diag([0.5, 0.5]), ("X", "Z"))
        assert alpha_mutual_information(joint, 2.0) == pytest.approx(
            np.log(2.0), abs=1e-12
        )

    def test_shannon_case_matches_classic_mutual_information(self):
        table = np.array([[0.4, 0.1], [0.1, 0.4]])
        joint = JointPmf(table, ("X", "Z"))
        # independent oracle: I = H(X) + H(Z) - H(X, Z)
        expected = (
            shannon_direct(table.sum(axis=1))
            + shannon_direct(table.sum(axis=0))
            - shannon_direct(table.ravel())
        )
        assert expected == pytest.approx(0.19274475702175742, abs=1e-12)
        assert alpha_mutual_information(joint, 1.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_nonnegative_on_random_joints(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            table = random_joint(rng, (3, 4))
            joint = JointPmf(table, ("X", "Z"))
            for alpha in ALPHAS:
                assert alpha_mutual_information(joint, alpha) >= -1e-10

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            table = random_joint(rng, (2, 3))
            joint = JointPmf(table, ("X", "Z"))
            for alpha in ALPHAS:
                assert alpha_mutual_information(joint, alpha) == pytest.approx(
                    alpha_mi_direct(table, alpha), abs=1e-10
                )

    @pytest.mark.parametrize("labels", [("X", "Z", "S"), ("X", "W", "Y")])
    def test_axes_other_than_x_and_z_rejected(self, labels):
        joint = JointPmf(random_joint(np.random.default_rng(33), (2, 3, 2)), labels)
        with pytest.raises(ValidationError, match="^alpha_mutual_information: expected axes X"):
            alpha_mutual_information(joint, 2.0)

    @given(seed=SEEDS, nx=st.integers(1, 9), nz=st.integers(1, 12),
           zero_rows=st.integers(0, 2), zero_cells=st.integers(0, 3),
           sparsity=st.sampled_from([0.0, 0.4]), z_first=st.booleans(),
           alpha=st.one_of(st.just(1.0), st.floats(0.1, 0.95), st.floats(1.05, 50.0)))
    def test_equals_marginal_entropy_minus_conditional_entropy(
        self, seed, nx, nz, zero_rows, zero_cells, sparsity, z_first, alpha
    ):
        # one kernel call scores both entropies; the X-marginal's table has
        # zero cells, which must drop out as the joint's zero cells do
        rng = np.random.default_rng(seed)
        table = rng.random((nx, nz)) ** 3
        table[rng.random(table.shape) < sparsity] = 0.0
        rows = rng.choice(nx, size=min(zero_rows, nx - 1), replace=False)
        cells = rng.choice(nz, size=min(zero_cells, nz - 1), replace=False)
        table[rows] = 0.0
        table[:, cells] = 0.0
        table[np.setdiff1d(np.arange(nx), rows)[0], np.setdiff1d(np.arange(nz), cells)[0]] += 0.1
        table /= table.sum()
        joint = JointPmf(table.T if z_first else table, ("Z", "X") if z_first else ("X", "Z"))
        want = (renyi_entropy(joint.marginal(("X",)), alpha)
                - arimoto_conditional_entropy(joint, alpha))
        assert alpha_mutual_information(joint, alpha) == pytest.approx(want, rel=0, abs=1e-13)


class TestConditionalAlphaMiGivenS:
    def test_irrelevant_side_information_reduces_to_marginal_mi(self):
        rng = np.random.default_rng(37)
        xz = random_joint(rng, (2, 3))
        ps = np.array([0.4, 0.6])
        table = xz[:, :, None] * ps[None, None, :]
        joint = JointPmf(table, ("X", "Z", "S"))
        marg = JointPmf(xz, ("X", "Z"))
        for alpha in ALPHAS:
            assert conditional_alpha_mi_given_s(joint, alpha) == pytest.approx(
                alpha_mutual_information(marg, alpha), abs=1e-10
            )

    def test_side_information_equal_to_secret_gives_zero(self):
        rng = np.random.default_rng(41)
        xz = random_joint(rng, (2, 3))
        table = np.zeros((2, 3, 2))
        for x in range(2):
            table[x, :, x] = xz[x]
        joint = JointPmf(table, ("X", "Z", "S"))
        for alpha in ALPHAS:
            assert conditional_alpha_mi_given_s(joint, alpha) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_matches_enumeration_oracle_on_random_joints(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            table = random_joint(rng, (2, 2, 2))
            joint = JointPmf(table, ("X", "Z", "S"))
            for alpha in ALPHAS:
                assert conditional_alpha_mi_given_s(joint, alpha) == pytest.approx(
                    conditional_alpha_mi_direct(table, alpha), abs=1e-10
                )


class TestBatchSequenceEntropy:
    def test_uniform_posteriors_give_log_alphabet(self):
        for alpha in ALPHAS:
            post = PosteriorBatch(np.full((3, 4, 2), 0.5))
            assert batch_sequence_arimoto_entropy(post, alpha) == pytest.approx(
                np.log(2.0), abs=1e-12
            )

    def test_one_hot_posteriors_give_zero(self):
        probs = np.zeros((2, 3, 4))
        probs[:, :, 1] = 1.0
        post = PosteriorBatch(probs)
        for alpha in ALPHAS:
            assert batch_sequence_arimoto_entropy(post, alpha) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_small_mixed_batch_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(47)
        probs = random_posteriors(rng, 2, 2, 2)
        for alpha in ALPHAS:
            assert batch_sequence_arimoto_entropy(
                PosteriorBatch(probs), alpha
            ) == pytest.approx(sequence_entropy_exhaustive(probs, alpha), abs=1e-12)

    def test_factorized_estimator_equals_enumeration_up_to_three_symbols(self):
        rng = np.random.default_rng(53)
        for nsym in (2, 3):
            for nsteps in (1, 2, 4):
                for nbatch in (1, 3, 8):
                    probs = random_posteriors(rng, nbatch, nsteps, nsym)
                    for alpha in ALPHAS:
                        got = batch_sequence_arimoto_entropy(
                            PosteriorBatch(probs), alpha
                        )
                        want = sequence_entropy_exhaustive(probs, alpha)
                        assert got == pytest.approx(want, abs=1e-9)

    def test_single_step_matches_average_over_conditioning(self):
        # with T = 1 and B copies of one posterior, the estimate is the
        # conditional entropy of a joint whose conditioning cells are the
        # batch elements with weight 1/B
        rng = np.random.default_rng(59)
        probs = random_posteriors(rng, 4, 1, 3)
        joint_table = (probs[:, 0, :] / 4.0).T  # (x, z=batch element)
        joint = JointPmf(joint_table, ("X", "Z"))
        for alpha in ALPHAS:
            assert batch_sequence_arimoto_entropy(
                PosteriorBatch(probs), alpha
            ) == pytest.approx(arimoto_conditional_entropy(joint, alpha), abs=1e-12)


class TestShannonContinuity:
    """The alpha = 1 branch must agree with the general formula nearby."""

    def test_all_measures_continuous_at_one(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            p = rng.random(4) + 1e-3
            p /= p.sum()
            table = random_joint(rng, (3, 3))
            table3 = random_joint(rng, (2, 3, 2))
            probs = random_posteriors(rng, 3, 2, 3)
            joint = JointPmf(table, ("X", "Z"))
            joint3 = JointPmf(table3, ("X", "Z", "S"))
            post = PosteriorBatch(probs)
            for near in (1.0 - 1e-4, 1.0 + 1e-4):
                assert renyi_entropy(Pmf(p), near) == pytest.approx(
                    renyi_entropy(Pmf(p), 1.0), abs=1e-3
                )
                assert arimoto_conditional_entropy(joint, near) == pytest.approx(
                    arimoto_conditional_entropy(joint, 1.0), abs=1e-3
                )
                assert alpha_mutual_information(joint, near) == pytest.approx(
                    alpha_mutual_information(joint, 1.0), abs=1e-3
                )
                assert conditional_alpha_mi_given_s(joint3, near) == pytest.approx(
                    conditional_alpha_mi_given_s(joint3, 1.0), abs=1e-3
                )
                assert batch_sequence_arimoto_entropy(post, near) == pytest.approx(
                    batch_sequence_arimoto_entropy(post, 1.0), abs=1e-3
                )


class TestBatchEntropyGradient:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(67)
        base = random_posteriors(rng, 3, 2, 3)
        h = 1e-6
        for alpha in (0.5, 0.9, 1.0, 2.0, 3.0):
            _, grad = batch_sequence_arimoto_entropy_grad(base, alpha)
            for _ in range(20):
                b = rng.integers(3)
                t = rng.integers(2)
                x = rng.integers(3)
                bumped = base.copy()
                bumped[b, t, x] += h
                up = _raw_batch_entropy(bumped, alpha)
                bumped[b, t, x] -= 2 * h
                down = _raw_batch_entropy(bumped, alpha)
                fd = (up - down) / (2 * h)
                assert grad[b, t, x] == pytest.approx(fd, rel=1e-5, abs=1e-8)


    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0, 1.1, 3.0, 10.0])
    def test_masked_value_equals_gradient_value_bit_for_bit(self, alpha):
        # above ZERO_PROB the masked and floored logs agree, so both views
        # of the one kernel must return the same float
        rng = np.random.default_rng(71)
        for nbatch, nsteps, nsym in ((1, 1, 2), (5, 3, 3), (64, 24, 2), (129, 7, 4)):
            for power in (1, 6):  # mild, then sharply peaked posteriors
                probs = random_posteriors(rng, nbatch, nsteps, nsym) ** power
                probs /= probs.sum(axis=2, keepdims=True)
                assert probs.min() > ZERO_PROB
                value, _ = batch_sequence_arimoto_entropy_grad(probs, alpha)
                assert batch_sequence_arimoto_entropy(PosteriorBatch(probs), alpha) == value

    @pytest.mark.parametrize("shape, axis", [
        ((0, 2, 2), "batch"), ((2, 0, 2), "time"), ((0, 1, 2), "batch"), ((2, 2, 0), "class"),
        ((1, 0, 2, 2), "batch"), ((0, 2, 2, 2), "model"),
    ])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_empty_axis_is_a_typed_error_naming_it(self, shape, axis, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"empty {axis} axis"):
                batch_sequence_arimoto_entropy_grad(np.full(shape, 0.5), alpha)


def _raw_batch_entropy(probs, alpha):
    """Evaluate the estimator on a possibly unnormalized table (for FD)."""
    value, _ = batch_sequence_arimoto_entropy_grad(probs, alpha)
    return value


def sparse_table(rng, shape, sparsity):
    """A random non-negative table with about ``sparsity`` of its entries
    exactly zero and a skewed rest (never all zero), normalized to 1."""
    table = rng.random(shape) ** 3
    table[rng.random(shape) < sparsity] = 0.0
    table.flat[rng.integers(table.size)] += 0.1
    return table / table.sum()


class TestMeasureProperties:
    @given(seed=SEEDS, nx=st.integers(2, 5), nz=st.integers(1, 5), nz_out=st.integers(1, 5),
           sparsity=st.sampled_from([0.0, 0.4]), alpha=ANY_ALPHA)
    def test_garbling_the_release_never_lowers_conditional_entropy(
        self, seed, nx, nz, nz_out, sparsity, alpha
    ):
        rng = np.random.default_rng(seed)
        table = sparse_table(rng, (nx, nz), sparsity)
        garble = rng.dirichlet(np.ones(nz_out), size=nz)  # g(z' | z)
        before = arimoto_conditional_entropy(JointPmf(table, ("X", "Z")), alpha)
        after = arimoto_conditional_entropy(JointPmf(table @ garble, ("X", "Z")), alpha)
        assert after >= before - 1e-10

    @given(seed=SEEDS, nx=st.integers(2, 5), nz=st.integers(1, 5),
           sparsity=st.sampled_from([0.0, 0.4]), alpha=ANY_ALPHA)
    def test_information_lies_between_zero_and_prior_entropy(
        self, seed, nx, nz, sparsity, alpha
    ):
        joint = JointPmf(sparse_table(np.random.default_rng(seed), (nx, nz), sparsity),
                         ("X", "Z"))
        info = alpha_mutual_information(joint, alpha)
        assert -1e-10 <= info <= renyi_entropy(joint.marginal(("X",)), alpha) + 1e-10

    @given(seed=SEEDS, nx=st.integers(1, 4), ncells=st.integers(1, 4),
           batch=st.tuples(st.integers(1, 3), st.integers(1, 3)), alpha=ANY_ALPHA)
    def test_batched_kernel_equals_scalar_calls(self, seed, nx, ncells, batch, alpha):
        tables = sparse_table(np.random.default_rng(seed), (nx, ncells) + batch, 0.3)
        values, grads = _arimoto_entropy(tables, alpha, grad=True)
        assert values.shape == batch and grads.shape == tables.shape
        for i, j in itertools.product(range(batch[0]), range(batch[1])):
            value, grad = _arimoto_entropy(tables[:, :, i, j], alpha, grad=True)
            assert values[i, j] == pytest.approx(float(value), rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grads[:, :, i, j], grad, rtol=1e-12, atol=1e-12)


# Orders away from alpha = 1, where the closed form's 1 / (1 - alpha) factor
# would amplify rounding past the 1e-12 slack; alpha = 1 itself is always added.
ORDERS = st.lists(st.one_of(st.floats(0.1, 0.95), st.floats(1.05, 50.0)), max_size=6)


class TestMonotoneInAlpha:
    """H_alpha(X) and Arimoto's H_alpha(X | Z) do not increase with alpha
    (Fehr & Berens, IEEE TIT 2014)."""

    @given(seed=SEEDS, nx=st.integers(2, 5), sparsity=st.sampled_from([0.0, 0.4]),
           orders=ORDERS)
    def test_renyi_entropy(self, seed, nx, sparsity, orders):
        p = Pmf(sparse_table(np.random.default_rng(seed), (nx,), sparsity))
        values = [renyi_entropy(p, a) for a in sorted(orders + [1.0])]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    @given(seed=SEEDS, nx=st.integers(2, 5), nz=st.integers(1, 5),
           sparsity=st.sampled_from([0.0, 0.4]), orders=ORDERS)
    def test_arimoto_conditional_entropy(self, seed, nx, nz, sparsity, orders):
        joint = JointPmf(sparse_table(np.random.default_rng(seed), (nx, nz), sparsity),
                         ("X", "Z"))
        values = [arimoto_conditional_entropy(joint, a) for a in sorted(orders + [1.0])]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def allocating_arimoto_entropy(table, alpha):
    """The value path of ``_arimoto_entropy`` as it was before it ran in
    place: every step in a new array.  The reference for the in-place
    chain, which must keep its ufunc sequence and so its every bit."""
    logj = np.full(table.shape, -np.inf)
    np.log(table, out=logj, where=table > ZERO_PROB)
    if alpha == 1.0:
        cond = table.sum(axis=0)
        log_cond = np.full(cond.shape, -np.inf)
        np.log(cond, out=log_cond, where=cond > ZERO_PROB)
        terms, cond_terms = np.zeros_like(table), np.zeros_like(cond)
        np.multiply(table, logj, out=terms, where=np.isfinite(logj))
        np.multiply(cond, log_cond, out=cond_terms, where=np.isfinite(log_cond))
        return -np.sum(terms, axis=(0, 1)) + np.sum(cond_terms, axis=0)

    def logsumexp(a):
        amax = np.max(a, axis=0, keepdims=True)
        amax = np.where(np.isfinite(amax), amax, 0.0)
        with np.errstate(divide="ignore"):
            return np.log(np.sum(np.exp(a - amax), axis=0)) + np.squeeze(amax, axis=0)

    log_norms = logsumexp(alpha * logj) / alpha
    return alpha / (1.0 - alpha) * logsumexp(log_norms)


class TestInPlaceValuePath:
    """``_arimoto_entropy`` runs its table-sized value work in one buffer,
    the caller's ``work`` when given."""

    ZERO_ALPHAS = [0.5, 0.9, 1.0, 1.1, 3.0, 10.0]

    @staticmethod
    def tables(seed):
        # exact zeros, whole zero cells and a batch of two axes
        rng = np.random.default_rng(seed)
        tables = sparse_table(rng, (3, 4, 5, 7), 0.4)
        tables[:, 1] = 0.0
        return tables

    @pytest.mark.parametrize("alpha", ZERO_ALPHAS)
    @pytest.mark.parametrize("grad", [False, True])
    def test_workspace_call_equals_plain_call_bit_for_bit(self, alpha, grad):
        tables = self.tables(3)
        work = np.full(tables.shape, np.nan)
        got = _arimoto_entropy(tables, alpha, grad=grad, work=work)
        want = _arimoto_entropy(tables, alpha, grad=grad)
        for g, w in zip(got, want) if grad else [(got, want)]:
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("alpha", ZERO_ALPHAS)
    def test_equals_the_allocating_chain_bit_for_bit(self, alpha):
        tables = self.tables(5)
        np.testing.assert_array_equal(
            _arimoto_entropy(tables, alpha), allocating_arimoto_entropy(tables, alpha)
        )

    @pytest.mark.parametrize("alpha", ZERO_ALPHAS)
    @pytest.mark.parametrize("grad", [False, True])
    def test_input_table_is_left_unchanged(self, alpha, grad):
        tables = self.tables(7)
        before = tables.copy()
        _arimoto_entropy(tables, alpha, grad=grad)
        _arimoto_entropy(tables, alpha, grad=grad, work=np.empty_like(tables))
        np.testing.assert_array_equal(tables, before)

    @pytest.mark.parametrize("alpha", ZERO_ALPHAS)
    def test_one_cell_tables_take_the_same_path(self, alpha):
        # one cell, where the kernel skips the reduction over the cells; the
        # batch holds whole zero tables
        tables = sparse_table(np.random.default_rng(9), (3, 1, 5, 7), 0.4)
        tables[:, :, 2] = 0.0
        before = tables.copy()
        np.testing.assert_array_equal(
            _arimoto_entropy(tables, alpha), allocating_arimoto_entropy(tables, alpha)
        )
        for grad in (False, True):
            got = _arimoto_entropy(tables, alpha, grad=grad, work=np.full(tables.shape, np.nan))
            want = _arimoto_entropy(tables, alpha, grad=grad)
            for g, w in zip(got, want) if grad else [(got, want)]:
                np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(tables, before)


class TestBatchInvariance:
    """A table gets the same entropy and gradient, bit for bit, scored alone
    as in any batch."""

    @given(seed=SEEDS, nx=st.integers(1, 5), ncells=st.integers(1, 40),
           nbatch=st.integers(2, 6), sparsity=st.sampled_from([0.0, 0.4]),
           zero_cells=st.integers(0, 3), alpha=ANY_ALPHA)
    def test_each_table_alone_equals_its_batch_column(
        self, seed, nx, ncells, nbatch, sparsity, zero_cells, alpha
    ):
        # exact zeros, whole zero cells, every table of mass 1
        rng = np.random.default_rng(seed)
        tables = rng.random((nx, ncells, nbatch)) ** 3
        tables[rng.random(tables.shape) < sparsity] = 0.0
        dead = rng.choice(ncells, size=min(zero_cells, ncells - 1), replace=False)
        tables[:, dead] = 0.0
        live = np.setdiff1d(np.arange(ncells), dead)
        tables[rng.integers(nx), rng.choice(live), :] += 0.1
        tables /= tables.sum(axis=(0, 1))
        values, grads = _arimoto_entropy(tables, alpha, grad=True)
        for j in range(nbatch):
            value, grad = _arimoto_entropy(tables[:, :, j : j + 1], alpha, grad=True)
            alone = _arimoto_entropy(tables[:, :, j : j + 1], alpha)
            np.testing.assert_array_equal(value, values[j : j + 1])
            np.testing.assert_array_equal(alone, values[j : j + 1])
            np.testing.assert_array_equal(grad[:, :, 0], grads[:, :, j])


# --- the small-table helpers against their earlier forms --------------------


def wrapper_check_distributions(probs, name, axis=None):
    """``_check_distributions`` as written with the ``np.all``/``np.any``
    wrappers: the reference for the method-call form."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size == 0:
        raise ValidationError(f"{name}: empty probability table")
    if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
        raise ValidationError(f"{name}: entries must be non-negative and finite")
    worst = np.abs(probs.sum(axis=axis) - 1.0).max()
    if worst > NORMALIZATION_TOL:
        raise ValidationError(f"{name}: normalization off by {worst:g}")
    return probs


def masking_log(p, out=None):
    """``_masked_log`` as written with a boolean mask assignment."""
    mask = p > ZERO_PROB
    out = np.log(p, out=np.empty(p.shape) if out is None else out, where=mask)
    out[~mask] = -np.inf
    return out


def wrapper_logsumexp(a, axis=-1, out=None):
    """``_logsumexp`` as written with the ``np.max``/``np.sum`` wrappers and
    a new array for the fixed maxima."""
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    shifted = np.subtract(a, amax, out=out)
    s = np.sum(np.exp(shifted, out=shifted), axis=axis)
    with np.errstate(divide="ignore"):
        return np.log(s) + np.squeeze(amax, axis=axis)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        return type(exc), str(exc)


# exact zeros of both signs, entries at and below ZERO_PROB, NaN, +inf,
# negatives and ordinary masses
PROB_ENTRIES = st.sampled_from(
    [0.0, -0.0, 5e-16, ZERO_PROB, 2e-15, 0.25, 0.5, 1.0, np.nan, np.inf, -0.5]
)
# log-space entries: -inf (whole -inf slices are drawn often), NaN, +inf
LOG_ENTRIES = st.sampled_from(
    [-np.inf, -np.inf, -np.inf, -745.0, -3.5, 0.0, 2.25, 709.0, np.nan, np.inf]
)
SHAPES = st.sampled_from([(1,), (3,), (2, 3), (3, 1), (1, 4), (2, 3, 2), (4, 2, 3)])


def drawn_array(draw, entries):
    shape = draw(SHAPES)
    return np.array(draw(st.lists(entries, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)


class TestLeanHelpers:
    """The kernel's helpers call the ufunc methods directly; each must equal
    its earlier wrapper-based form bit for bit, errors included."""

    @given(data=st.data(), use_out=st.booleans())
    def test_masked_log(self, data, use_out):
        p = drawn_array(data.draw, PROB_ENTRIES)
        got = _masked_log(p, out=np.full(p.shape, 7.0) if use_out else None)
        assert_same_bits(got, masking_log(p, out=np.full(p.shape, 7.0) if use_out else None))

    @given(data=st.data(), in_place=st.booleans())
    def test_logsumexp(self, data, in_place):
        a = drawn_array(data.draw, LOG_ENTRIES)
        axis = data.draw(st.integers(-a.ndim, a.ndim - 1))
        b, c = a.copy(), a.copy()
        with np.errstate(divide="ignore"):  # the helper's callers suppress log 0
            got = _logsumexp(b, axis, out=b if in_place else None)
        want = wrapper_logsumexp(c, axis, out=c if in_place else None)
        assert_same_bits(got, want)
        assert_same_bits(b, c)  # the shifted exponentials, when written in place
        assert type(got) is type(want)

    def test_logsumexp_of_all_minus_inf_slices_is_minus_inf(self):
        a = np.full((3, 2), -np.inf)
        a[:, 1] = [0.0, -np.inf, np.log(3.0)]
        with np.errstate(divide="ignore"):
            got = _logsumexp(a, axis=0)
        assert got[0] == -np.inf and got[1] == pytest.approx(np.log(4.0))
        assert_same_bits(got, wrapper_logsumexp(a, axis=0))

    @given(data=st.data(), axis=st.sampled_from([None, -1, 0]))
    def test_check_distributions(self, data, axis):
        p = drawn_array(data.draw, PROB_ENTRIES)
        if data.draw(st.booleans()):
            # valid rows, so that the normalization test is reached too
            p = np.abs(np.nan_to_num(p, nan=0.5, posinf=0.5)) + 0.125
            p /= p.sum(axis=axis, keepdims=axis is not None)
            if data.draw(st.booleans()):
                p.flat[0] += 1e-9
        got = outcome(_check_distributions, p, "T", axis=axis)
        want = outcome(wrapper_check_distributions, p, "T", axis=axis)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_bits(got, want)

    @pytest.mark.parametrize("probs", [
        [], np.empty((0, 2)), [[]], [-0.5, 1.5], [[0.5, 0.5], [-0.0, 1.0]], [np.nan, 1.0],
        [np.inf, 0.0], [0.5, 0.5 + 2e-12], [[0.25, 0.75], [0.5, 0.5]], [1.0, 5e-16, 0.0],
    ])
    @pytest.mark.parametrize("axis", [None, -1])
    def test_check_distributions_cases(self, probs, axis):
        got = outcome(_check_distributions, probs, "T", axis=axis)
        want = outcome(wrapper_check_distributions, probs, "T", axis=axis)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_bits(got, want)
        if np.size(probs) == 0:
            assert got == (ValidationError, "T: empty probability table")


# --- the kernel's shortcuts against the paths they replace ------------------


def validated_marginal(joint, keep_labels):
    """``JointPmf.marginal`` as written before it wrapped a raw table: the
    sum and transpose, then a new ``Pmf`` or ``JointPmf``."""
    axes = [joint.axis(lbl) for lbl in keep_labels]
    drop = tuple(i for i in range(joint.probs.ndim) if i not in axes)
    table = joint.probs.sum(axis=drop) if drop else joint.probs
    surviving = [lbl for lbl in joint.axis_labels if lbl in keep_labels]
    table = np.transpose(table, [surviving.index(lbl) for lbl in keep_labels])
    return Pmf(table) if len(keep_labels) == 1 else JointPmf(table, keep_labels)


def marginal_alpha_mutual_information(joint, alpha):
    """``alpha_mutual_information`` as written with the X-marginal built and
    validated as a ``Pmf``."""
    table = _x_first(joint, "alpha_mutual_information")
    tables = np.zeros(table.shape + (2,))
    tables[..., 0] = table
    tables[:, 0, 1] = validated_marginal(joint, ("X",)).probs
    h_x_given_z, h_x = _arimoto_entropy(tables, alpha).tolist()
    return h_x - h_x_given_z


def marginal_conditional_alpha_mi_given_s(joint, alpha):
    """``conditional_alpha_mi_given_s`` as written with the (X, S) marginal
    built and validated as a ``JointPmf``."""
    table = _x_first(joint, "conditional_alpha_mi_given_s", ("X", "Z", "S"))
    h_x_given_s = _arimoto_entropy(validated_marginal(joint, ("X", "S")).probs, alpha)
    return float(h_x_given_s - _arimoto_entropy(table, alpha))


def two_reduction_arimoto_entropy(table, alpha, grad=False):
    """``_arimoto_entropy`` as written before a one-cell table skipped the
    log-sum-exp over its cells, every step in a new array: the reference
    for that shortcut, gradient included."""
    if table.ndim > 2 and table[0, 0].size == 1:
        out = two_reduction_arimoto_entropy(np.concatenate((table, table), axis=-1), alpha, grad)
        return (out[0][..., :1], out[1][..., :1]) if grad else out[..., :1]
    logj = masking_log(table)
    finite = np.isfinite(logj)
    dj = np.zeros(table.shape)
    if alpha == 1.0:
        value = allocating_arimoto_entropy(table, alpha)
        np.subtract(masking_log(table.sum(axis=0)), logj, out=dj, where=finite)
        return (value, dj) if grad else value
    log_norms = wrapper_logsumexp(alpha * logj, axis=0) / alpha
    log_total = wrapper_logsumexp(log_norms, axis=0)
    value = alpha / (1.0 - alpha) * log_total
    safe_norms = np.where(np.isfinite(log_norms), log_norms, 0.0)
    expo = np.where(finite, logj, 0.0) * (alpha - 1.0) + safe_norms * (1.0 - alpha) - log_total
    np.exp(expo, out=dj, where=finite)
    dj *= alpha / (1.0 - alpha)
    return (value, dj) if grad else value


def labelled_joint(rng, sizes, labels, sparsity, zero_cells):
    """A sparse joint over ``labels`` (in that storage order) with
    ``zero_cells`` whole zero cells of the axes other than X."""
    table = sparse_table(rng, sizes, sparsity)
    x = labels.index("X")
    for _ in range(zero_cells):
        cell = tuple(slice(None) if i == x else rng.integers(n) for i, n in enumerate(sizes))
        if table[cell].sum() < table.sum():
            table[cell] = 0.0
    return JointPmf(table / table.sum(), labels)


class TestRawMarginals:
    """The measures read their marginals as raw tables; each must equal the
    path through a validated ``Pmf``/``JointPmf`` bit for bit."""

    @given(seed=SEEDS, sizes=st.tuples(*[st.integers(1, 3)] * 4), data=st.data())
    def test_marginal_equals_the_validated_form(self, seed, sizes, data):
        labels = data.draw(st.permutations(("X", "Z", "S", "W")))
        keep = tuple(data.draw(st.permutations(labels))[: data.draw(st.integers(1, 4))])
        joint = labelled_joint(np.random.default_rng(seed), sizes, labels, 0.3, 0)
        got, want = joint.marginal(keep), validated_marginal(joint, keep)
        assert type(got) is type(want) and getattr(got, "axis_labels", keep) == keep
        assert_same_bits(got.probs, want.probs)

    @given(seed=SEEDS, sizes=st.tuples(st.integers(1, 5), st.integers(1, 5)),
           order=st.sampled_from(list(itertools.permutations(("X", "Z")))),
           sparsity=st.sampled_from([0.0, 0.4]), zero_cells=st.integers(0, 2),
           alpha=ANY_ALPHA)
    def test_alpha_mutual_information(self, seed, sizes, order, sparsity, zero_cells, alpha):
        joint = labelled_joint(np.random.default_rng(seed), sizes, order, sparsity, zero_cells)
        assert_same_bits(alpha_mutual_information(joint, alpha),
                         marginal_alpha_mutual_information(joint, alpha))

    @given(seed=SEEDS, sizes=st.tuples(*[st.integers(1, 4)] * 3),
           order=st.sampled_from(list(itertools.permutations(("X", "Z", "S")))),
           sparsity=st.sampled_from([0.0, 0.4]), zero_cells=st.integers(0, 2),
           alpha=ANY_ALPHA)
    def test_conditional_alpha_mi_given_s(self, seed, sizes, order, sparsity, zero_cells,
                                          alpha):
        # every storage order: X last, S in the middle, ...
        joint = labelled_joint(np.random.default_rng(seed), sizes, order, sparsity, zero_cells)
        assert_same_bits(conditional_alpha_mi_given_s(joint, alpha),
                         marginal_conditional_alpha_mi_given_s(joint, alpha))


class TestOneCellTables:
    """Over one cell the kernel skips the log-sum-exp over the cells; its
    value and gradient must be those of both reductions, bit for bit."""

    @given(seed=SEEDS, nx=st.integers(1, 9), batch=st.sampled_from([(), (1,), (4,), (2, 3)]),
           sparsity=st.sampled_from([0.0, 0.4]), all_zero=st.booleans(), orders=ORDERS)
    def test_equal_the_two_reduction_path(self, seed, nx, batch, sparsity, all_zero, orders):
        table = sparse_table(np.random.default_rng(seed), (nx, 1) + batch, sparsity)
        if all_zero:
            table.reshape(nx, -1)[:, 0] = 0.0  # the first table of the batch, or the table
        for alpha in orders + [1.0]:
            with np.errstate(divide="ignore"):
                want, want_grad = two_reduction_arimoto_entropy(table, alpha, grad=True)
            got, grad = _arimoto_entropy(table, alpha, grad=True)
            assert_same_bits(got, want)
            assert_same_bits(grad, want_grad)
            assert_same_bits(_arimoto_entropy(table, alpha), want)


def warning_tables():
    """(X, Z) joints with a zero cell, an all-zero X row, one cell, and one
    cell with an all-zero X row."""
    return [
        np.array([[0.5, 0.0], [0.5, 0.0]]),
        np.array([[0.25, 0.75], [0.0, 0.0]]),
        np.array([[0.3], [0.7]]),
        np.array([[1.0], [0.0], [0.0]]),
    ]


class TestNoWarnings:
    """Each kernel evaluation suppresses its log of zero once; no public
    measure may let a NumPy warning out."""

    @pytest.mark.parametrize("alpha", ALPHAS + [50.0])
    def test_measures_on_zero_cells_zero_rows_and_one_cell(self, alpha):
        joints = [JointPmf(t, ("X", "Z")) for t in warning_tables()]
        joints += [JointPmf(t.T, ("Z", "X")) for t in warning_tables()]
        side = [JointPmf(t[:, :, None] * [0.5, 0.5], ("X", "Z", "S")) for t in warning_tables()]
        side += [JointPmf(t[:, None, :] * [[1.0], [0.0]], ("X", "S", "Z"))
                 for t in warning_tables()]
        pmfs = [Pmf([1.0]), Pmf([0.5, 0.0, 0.5]), Pmf([0.0, 1.0])]
        posteriors = [np.eye(3)[[0, 2, 1, 0]].reshape(2, 2, 3), np.ones((1, 1, 1)),
                      np.array([[[0.5, 0.5, 0.0]]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in pmfs:
                renyi_entropy(p, alpha)
            for joint in joints:
                arimoto_conditional_entropy(joint, alpha)
                alpha_mutual_information(joint, alpha)
            for joint in side:
                conditional_alpha_mi_given_s(joint, alpha)
            for probs in posteriors:
                batch_sequence_arimoto_entropy(PosteriorBatch(probs), alpha)
                batch_sequence_arimoto_entropy_grad(probs, alpha)


class TestNoRevalidation:
    """A measure trusts an already-built ``Pmf``/``JointPmf``: it makes no
    call to ``_check_distributions``."""

    def test_measures_make_no_validation_call(self, monkeypatch):
        import alphaprivacy.measures as measures_module

        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1])
            return _check_distributions(*args, **kwargs)

        rng = np.random.default_rng(3)
        joint = JointPmf(sparse_table(rng, (3, 4), 0.3), ("Z", "X"))
        side = JointPmf(sparse_table(rng, (2, 3, 2), 0.3), ("S", "X", "Z"))
        pmf = Pmf(sparse_table(rng, (4,), 0.3))
        posteriors = PosteriorBatch(random_posteriors(rng, 3, 2, 3))
        monkeypatch.setattr(measures_module, "_check_distributions", spy)
        for alpha in ALPHAS:
            renyi_entropy(pmf, alpha)
            arimoto_conditional_entropy(joint, alpha)
            alpha_mutual_information(joint, alpha)
            conditional_alpha_mi_given_s(side, alpha)
            batch_sequence_arimoto_entropy(posteriors, alpha)
            batch_sequence_arimoto_entropy_grad(posteriors.probs, alpha)
        assert calls == []
        joint.marginal(("X",))  # the spy sees what validates
        assert calls == ["Pmf"]
