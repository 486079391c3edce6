"""Tests for the alternating training loop: wiring, invariants, persistence.

Convergence quality (full-utility / full-privacy limits) is exercised by
the acceptance suite; here the configurations are deliberately tiny.
"""

import io
from dataclasses import replace

import numpy as np
import pytest

from alphaprivacy.datasets import BatchStream, DatasetBatch, SynthConfig, generate
from alphaprivacy.errors import DataFormatError, DivergenceError, ValidationError
from alphaprivacy.losses import DistortionSpec
from alphaprivacy.nets import Network, dense, recurrent
from alphaprivacy.training import (
    COUNT_FIELDS,
    HyperParams,
    TrainedSystem,
    assemble_observed,
    evaluate_system,
    train,
    train_attacker,
    train_attacker_group,
    train_group,
)

QUICK = dict(momentum=0.0, lr_releaser=0.02, lr_adversary=0.1, iterations=5,
             batch_size=16, adversary_steps=3)


def clusters_data(total=64, seed=1, **kw):
    return generate(SynthConfig(generator="labeled_clusters", total=total, seed=seed, **kw))


def markov_data(total=32, seed=2, num_steps=4, **kw):
    return generate(SynthConfig(generator="markov_load", total=total, seed=seed,
                                num_steps=num_steps, d_y=1, **kw))


class TestAssembleObserved:
    def test_y_only_without_noise_is_identity(self):
        y = np.random.default_rng(0).normal(size=(3, 2, 2))
        w = assemble_observed(y, None, None, None, "y_only")
        np.testing.assert_array_equal(w, y)

    def test_concat_xy_with_noise_counts_features(self):
        y = np.zeros((4, 3, 1))
        x = np.ones((4, 3), dtype=int)
        u = np.full((4, 3, 1), 0.5)
        w = assemble_observed(y, x, u, None, "concat_xy")
        assert w.shape == (4, 3, 3)
        np.testing.assert_array_equal(w[:, :, 1], 1.0)
        np.testing.assert_array_equal(w[:, :, 2], 0.5)

    def test_side_information_never_enters_observed(self):
        y = np.zeros((2, 1, 1))
        s = np.ones((2, 3))
        w = assemble_observed(y, None, None, s, "y_only")
        assert w.shape == (2, 1, 1)

    def test_fixed_seed_noise_replays_bit_exactly(self):
        a = clusters_data(total=16, seed=9)
        b = clusters_data(total=16, seed=9)
        wa = assemble_observed(a.y, a.x, a.u, None, "y_only")
        wb = assemble_observed(b.y, b.x, b.u, None, "y_only")
        np.testing.assert_array_equal(wa, wb)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            assemble_observed(np.zeros((2, 1, 1)), None, np.zeros((3, 1, 1)), None, "y_only")


class TestTrainLoop:
    def test_update_counters_respect_alternation_ratio(self):
        data = clusters_data()
        hyper = HyperParams(**QUICK, seed=3)
        system = train(hyper, BatchStream(data, 4), DistortionSpec("p_norm", p=2.0),
                       utility_enabled=True)
        assert system.releaser_updates == hyper.iterations
        assert system.adversary_updates == hyper.iterations * hyper.adversary_steps
        assert system.utility_updates == hyper.iterations * hyper.adversary_steps
        assert len(system.releaser_history) == hyper.iterations
        assert len(system.adversary_history) == hyper.iterations * hyper.adversary_steps

    def test_training_is_reproducible_bit_exactly(self):
        data = clusters_data()
        hyper = HyperParams(**QUICK, seed=5)
        a = train(hyper, BatchStream(data, 7), DistortionSpec("ts_l2"))
        b = train(hyper, BatchStream(data, 7), DistortionSpec("ts_l2"))
        for la, lb in zip(a.releaser.layers + a.adversary.layers,
                          b.releaser.layers + b.adversary.layers):
            np.testing.assert_array_equal(la.w, lb.w)
            np.testing.assert_array_equal(la.b, lb.b)
        assert a.releaser_history == b.releaser_history

    def test_si_columns_ignored_when_disabled(self):
        data = markov_data()
        stripped = DatasetBatch(y=data.y, x=data.x, u=data.u, s=None, c=None)
        hyper = HyperParams(**QUICK, seed=7, num_steps=4, observed_mode="concat_xy")
        spec = DistortionSpec("ts_l2")
        a = train(hyper, BatchStream(data, 11), spec, si_enabled=False)
        b = train(hyper, BatchStream(stripped, 11), spec, si_enabled=False)
        for la, lb in zip(a.releaser.layers, b.releaser.layers):
            np.testing.assert_array_equal(la.w, lb.w)

    def test_si_enabled_requires_side_information(self):
        data = clusters_data()
        hyper = HyperParams(**QUICK, seed=3)
        with pytest.raises(ValidationError):
            train(hyper, BatchStream(data, 1), DistortionSpec("ts_l2"), si_enabled=True)

    def test_composite_distortion_requires_utility_network(self):
        data = clusters_data()
        hyper = HyperParams(**QUICK, seed=3)
        with pytest.raises(ValidationError):
            train(hyper, BatchStream(data, 1), DistortionSpec("composite_img"),
                  utility_enabled=False)

    def test_time_dimension_mismatch_rejected(self):
        data = markov_data(num_steps=4)
        hyper = HyperParams(**QUICK, seed=3, num_steps=2)
        with pytest.raises(ValidationError):
            train(hyper, BatchStream(data, 1), DistortionSpec("ts_l2"))

    def test_divergence_aborts_with_iteration(self):
        data = clusters_data()
        hyper = HyperParams(momentum=0.0, lr_releaser=1e9, lr_adversary=1e9,
                            iterations=50, batch_size=16, adversary_steps=1, seed=3)
        with pytest.raises(DivergenceError) as err:
            train(hyper, BatchStream(data, 4), DistortionSpec("p_norm", p=2.0))
        assert err.value.iteration is not None

    def test_log_stream_lines_are_machine_parseable(self):
        data = clusters_data()
        hyper = HyperParams(**QUICK, seed=3)
        stream = io.StringIO()
        train(hyper, BatchStream(data, 4), DistortionSpec("ts_l2"), log_stream=stream)
        lines = stream.getvalue().strip().split("\n")
        assert len(lines) == hyper.iterations
        for i, line in enumerate(lines):
            fields = dict(part.split("=") for part in line.split())
            assert int(fields["iteration"]) == i
            for key in ("adversary_loss", "releaser_loss", "ne"):
                float(fields[key])

    def test_composite_training_runs_with_utility(self):
        data = clusters_data()
        hyper = HyperParams(**QUICK, seed=13)
        system = train(hyper, BatchStream(data, 4), DistortionSpec("composite_img"),
                       utility_enabled=True)
        assert system.utility is not None
        assert len(system.utility_history) == hyper.iterations * hyper.adversary_steps

    def test_recurrent_training_runs_with_si(self):
        data = markov_data(si_correlation=0.5)
        hyper = HyperParams(**QUICK, seed=17, num_steps=4, observed_mode="concat_xy")
        system = train(hyper, BatchStream(data, 4), DistortionSpec("ts_l2"),
                       si_enabled=True)
        assert system.adversary.layers[0].recurrent
        # adversary consumes (z, s); attacker without SI consumes z only
        assert system.adversary.in_dim == data.y.shape[2] + data.s.shape[1]


class TestCheckpoint:
    def test_round_trip_preserves_released_output(self, tmp_path):
        data = clusters_data()
        hyper = HyperParams(**QUICK, seed=19)
        system = train(hyper, BatchStream(data, 4), DistortionSpec("ts_l2"))
        path = tmp_path / "system.json"
        system.to_json(path)
        back = TrainedSystem.from_json(path)
        np.testing.assert_array_equal(system.release(data), back.release(data))
        assert back.hyper == system.hyper
        assert back.distortion == system.distortion
        assert back.releaser_history == system.releaser_history

    def test_checkpoint_naming_ts_l2_still_loads(self):
        data = clusters_data()
        system = train(HyperParams(**QUICK, seed=19), BatchStream(data, 4),
                       DistortionSpec("p_norm", p=2.0))
        doc = system.to_dict()
        doc["distortion"]["kind"] = "ts_l2"
        back = TrainedSystem.from_dict(doc)
        assert back.distortion == DistortionSpec("p_norm", p=2.0)
        np.testing.assert_array_equal(system.release(data), back.release(data))


    def test_missing_checkpoint_is_a_data_error(self, tmp_path):
        with pytest.raises(DataFormatError, match="no such file"):
            TrainedSystem.from_json(tmp_path / "nope.json")

    def test_invalid_checkpoint_is_a_data_error(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text('{"hyper": ')
        with pytest.raises(DataFormatError, match="invalid JSON"):
            TrainedSystem.from_json(path)


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except DivergenceError as exc:
        return exc


def same_outcome(got, want):
    if isinstance(want, DivergenceError):
        return isinstance(got, DivergenceError) and str(got) == str(want)
    return not isinstance(got, DivergenceError) and got.to_dict() == want.to_dict()


class TestTrainGroup:
    def test_group_equals_separate_runs_through_every_kind_of_divergence(self):
        # one infinite row: models whose streams draw it diverge, in the
        # adversary step, the releaser step or the attacker, at iterations
        # of their own (attacker blocks of 2 iterations, the last one short);
        # the rest must not notice
        data = clusters_data(total=400, seed=4)
        data.y[0] = np.inf
        hyper = HyperParams(momentum=0.0, lr_releaser=0.02, lr_adversary=0.1,
                            iterations=20, batch_size=8, adversary_steps=2,
                            attacker_iterations=23)
        hypers = [replace(hyper, seed=m, lam=0.5 * m) for m in range(6)]
        spec = DistortionSpec("p_norm")
        with np.errstate(all="ignore"):
            group = train_group(hypers, [BatchStream(data, m) for m in range(6)], spec)
            alone = [outcome_of(train, h, BatchStream(data, m), spec)
                     for m, h in enumerate(hypers)]
            trained = [m for m, s in enumerate(alone) if isinstance(s, TrainedSystem)]
            attackers = train_attacker_group(
                [group[m] for m in trained],
                [BatchStream(data, 1000 + m) for m in trained], False, trained,
            )
            alone_attackers = [
                outcome_of(train_attacker, alone[m], BatchStream(data, 1000 + m), False, m)
                for m in trained
            ]
        assert all(same_outcome(g, a) for g, a in zip(group, alone))
        assert all(same_outcome(g, a) for g, a in zip(attackers, alone_attackers))

        def first_error(seed, draws, iterations, names):
            # the first draw holding the infinite row: its loss is NaN
            rng = np.random.default_rng(seed)
            for iteration in range(iterations):
                for name in names:
                    if 0 in rng.choice(data.size, size=8, replace=False):
                        return f"{name} loss diverged at iteration {iteration}: nan"
            return None

        want = [first_error(m, 3, 20, ["adversary", "adversary", "releaser"]) for m in range(6)]
        want_attack = [first_error(1000 + m, 1, 23, ["attacker"]) for m in trained]
        got = [str(o) if isinstance(o, DivergenceError) else None for o in group + attackers]
        assert got == want + want_attack
        assert {w.split()[0] for w in want + want_attack if w} == {"adversary", "releaser", "attacker"}
        assert None in want_attack

    def test_points_may_differ_only_in_lambda_and_seed(self):
        data = clusters_data()
        hyper = HyperParams(**QUICK)
        streams = [BatchStream(data, 1), BatchStream(data, 2)]
        with pytest.raises(ValidationError, match="only in lam and seed"):
            train_group([hyper, replace(hyper, iterations=6)], streams, DistortionSpec())
        with pytest.raises(ValidationError, match="one dataset"):
            train_group([hyper, hyper], [streams[0], BatchStream(clusters_data(), 2)],
                        DistortionSpec())


class TestHyperParamsValidation:
    @pytest.mark.parametrize(
        "field, value",
        [("lr_decay", -1.0), ("hidden_releaser", 0), ("hidden_adversary", 0),
         ("hidden_utility", 0), ("attacker_iterations", 0), ("attacker_iterations", -5),
         ("attacker_iterations", 2.5),
         ("lam", float("nan")), ("lam", -1.0), ("lam", "0.1"), ("lr_releaser", 0.0),
         ("lr_releaser", float("inf")), ("lr_adversary", float("nan")), ("lr_utility", -0.1),
         ("lr_decay", float("inf")), ("momentum", float("nan")), ("momentum", -0.5)],
    )
    def test_out_of_range_values_are_typed_errors(self, field, value):
        with pytest.raises(ValidationError, match=field):
            HyperParams(**{field: value})

    @pytest.mark.parametrize("value", [None, 1, 40])
    def test_attacker_iterations_accepts_none_or_positive(self, value):
        assert HyperParams(attacker_iterations=value).attacker_iterations == value

    @pytest.mark.parametrize("field", COUNT_FIELDS)
    @pytest.mark.parametrize("value", [2.5, 16.0, True, "16"])
    def test_non_integer_counts_are_typed_errors(self, field, value):
        with pytest.raises(ValidationError, match=field):
            HyperParams(**{field: value})

    @pytest.mark.parametrize("field", COUNT_FIELDS)
    def test_numpy_integer_counts_are_accepted(self, field):
        assert getattr(HyperParams(**{field: np.int64(3)}), field) == 3


class TestReferenceConfigurations:
    def test_typical_batch_and_step_configurations_are_accepted(self):
        static = HyperParams(batch_size=256, adversary_steps=3)
        assert (static.batch_size, static.adversary_steps) == (256, 3)
        sequential = HyperParams(batch_size=128, adversary_steps=4, num_steps=24)
        assert (sequential.batch_size, sequential.adversary_steps) == (128, 4)


class TestAttacker:
    def test_attacker_matches_adversary_shapes_with_fresh_seed(self):
        data = clusters_data()
        hyper = HyperParams(**QUICK, seed=23)
        system = train(hyper, BatchStream(data, 4), DistortionSpec("ts_l2"))
        attacker = train_attacker(system, BatchStream(data, 5), False, seed=99)
        for la, lb in zip(attacker.layers, system.adversary.layers):
            assert la.w.shape == lb.w.shape and la.activation == lb.activation
        assert any(
            not np.array_equal(la.w, lb.w)
            for la, lb in zip(attacker.layers, system.adversary.layers)
        )

    def test_attacker_respects_si_flag_independently(self):
        data = markov_data(si_correlation=0.5)
        hyper = HyperParams(**QUICK, seed=23, num_steps=4, observed_mode="concat_xy")
        system = train(hyper, BatchStream(data, 4), DistortionSpec("ts_l2"),
                       si_enabled=False)
        attacker = train_attacker(system, BatchStream(data, 5), True, seed=99)
        assert attacker.in_dim == data.y.shape[2] + data.s.shape[1]

    def test_attacker_accuracy_is_stable_across_seeds(self):
        cfg = SynthConfig(generator="labeled_clusters", total=2048, seed=1)
        data = generate(cfg)
        hyper = HyperParams(momentum=0.0, lr_releaser=0.02, lr_decay=0.005,
                            lr_adversary=0.3, iterations=300, batch_size=256,
                            adversary_steps=3, seed=11)
        system = train(hyper, BatchStream(data, 5), DistortionSpec("p_norm", p=2.0))
        accs = []
        for seed in (99, 100):
            attacker = train_attacker(system, BatchStream(data, seed), False, seed)
            scores = evaluate_system(system, attacker, data, False)
            accs.append(scores["attacker_accuracy"])
        assert abs(accs[0] - accs[1]) < 0.05
        assert min(accs) > 0.9  # undistorted release on separable data

    def test_evaluation_reports_all_metrics(self):
        data = clusters_data()
        hyper = HyperParams(**QUICK, seed=29)
        system = train(hyper, BatchStream(data, 4), DistortionSpec("composite_img"),
                       utility_enabled=True)
        attacker = train_attacker(system, BatchStream(data, 5), False, seed=99)
        scores = evaluate_system(system, attacker, data, False)
        assert scores["ne"] >= 0.0
        assert 0.0 <= scores["attacker_accuracy"] <= 1.0
        assert 0.0 <= scores["utility_accuracy"] <= 1.0


class TestStackedRelease:
    """The k adversary batches of one iteration are released in one pass;
    that must equal releasing each batch on its own, bit for bit."""

    @pytest.mark.parametrize("make_data, specs, nbatch, steps", [
        (lambda: clusters_data(total=4096, seed=3),
         [dense(4, 16, "tanh"), dense(16, 3, "linear")], 256, 10),
        (lambda: markov_data(total=600, seed=4, num_steps=24),
         [recurrent(3, 16), dense(16, 1, "linear")], 128, 4),
    ])
    def test_one_release_equals_per_batch_releases(self, make_data, specs, nbatch, steps):
        data = make_data()
        releaser = Network.build(specs, seed=17)
        mode = "concat_xy" if data.num_steps > 1 else "y_only"
        rows = BatchStream(data, 9).draw(nbatch, count=steps)
        z_rows, _ = releaser.forward(assemble_observed(rows.y, rows.x, rows.u, None, mode))
        single = BatchStream(data, 9)
        for step in range(steps):
            batch = single.draw(nbatch)
            z, _ = releaser.forward(assemble_observed(batch.y, batch.x, batch.u, None, mode))
            np.testing.assert_array_equal(z_rows[step * nbatch:(step + 1) * nbatch], z)


class TestParameterFreezing:
    def test_adversary_frozen_during_releaser_step_and_vice_versa(self):
        # one iteration with k = 1: replay the same alternation by hand and
        # verify each network only moves in its own step
        data = clusters_data(total=32, seed=31)
        hyper = HyperParams(momentum=0.0, lr_releaser=0.05, lr_adversary=0.1,
                            iterations=1, batch_size=8, adversary_steps=1, seed=31)
        spec = DistortionSpec("ts_l2")
        system = train(hyper, BatchStream(data, 6), spec)

        manual_rel = _build_like(system.releaser)
        manual_adv = _build_like(system.adversary)
        stream = BatchStream(data, 6)
        from alphaprivacy.losses import adversary_loss, releaser_loss
        from alphaprivacy.nets import SgdMomentum

        opt_r = SgdMomentum(manual_rel, 0.05, 0.0)
        opt_a = SgdMomentum(manual_adv, 0.1, 0.0)
        # adversary step: theta must not move
        batch = stream.draw(8)
        w = assemble_observed(batch.y, batch.x, batch.u, None, "y_only")
        theta_before = [l.w.copy() for l in manual_rel.layers]
        z, _ = manual_rel.forward(w)
        probs, tr = manual_adv.forward(z)
        loss = adversary_loss(probs, batch.x)
        grads, _ = manual_adv.backward(loss.grad_posteriors, tr)
        opt_a.step(grads)
        for before, layer in zip(theta_before, manual_rel.layers):
            np.testing.assert_array_equal(before, layer.w)
        # releaser step: phi must not move
        batch = stream.draw(8)
        w = assemble_observed(batch.y, batch.x, batch.u, None, "y_only")
        phi_before = [l.w.copy() for l in manual_adv.layers]
        z, trr = manual_rel.forward(w)
        probs, tra = manual_adv.forward(z)
        lv = releaser_loss(z, batch.y, probs, spec, hyper.lam, hyper.alpha)
        gz = lv.grad_released.copy()
        _, gin = manual_adv.backward(lv.grad_posteriors, tra)
        gz += gin
        grads_r, _ = manual_rel.backward(gz, trr)
        opt_r.step(grads_r)
        for before, layer in zip(phi_before, manual_adv.layers):
            np.testing.assert_array_equal(before, layer.w)
        # the replay reproduces train() exactly
        for la, lb in zip(manual_rel.layers, system.releaser.layers):
            np.testing.assert_array_equal(la.w, lb.w)
        for la, lb in zip(manual_adv.layers, system.adversary.layers):
            np.testing.assert_array_equal(la.w, lb.w)


def _build_like(net):
    """Fresh network with the same layer specs and init seed."""
    from alphaprivacy.nets import Network

    specs = [
        ("recurrent" if l.recurrent else "dense", l.in_dim, l.out_dim, l.activation)
        for l in net.layers
    ]
    return Network.build(specs, net.seed)
