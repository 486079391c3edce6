"""Tests for the alternating training loop: wiring and invariants.

Convergence quality (full-utility / full-privacy limits) is exercised by
the acceptance suite; here the configurations are deliberately tiny.
"""

import io
import json
from dataclasses import replace

import numpy as np
import pytest

from alphaprivacy.datasets import BatchStream, DatasetBatch, SynthConfig, _derive_seed, generate
from alphaprivacy.errors import DivergenceError, ValidationError
from alphaprivacy.losses import DistortionSpec
from alphaprivacy.nets import Layer, Network, dense, recurrent
from alphaprivacy.training import (
    COUNT_FIELDS,
    HyperParams,
    TrainedSystem,
    _draw,
    assemble_observed,
    evaluate_system,
    train,
    train_attacker,
    train_attacker_group,
    train_group,
    _two_layer_net,
)

from oracles import distortion_only_releaser

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
        w = assemble_observed(y, None, None, "y_only")
        np.testing.assert_array_equal(w, y)

    def test_concat_xy_with_noise_counts_features(self):
        y = np.zeros((4, 3, 1))
        x = np.ones((4, 3), dtype=int)
        u = np.full((4, 3, 1), 0.5)
        w = assemble_observed(y, x, u, "concat_xy")
        assert w.shape == (4, 3, 3)
        np.testing.assert_array_equal(w[:, :, 1], 1.0)
        np.testing.assert_array_equal(w[:, :, 2], 0.5)

    def test_side_information_never_enters_the_release(self):
        data = markov_data(si_correlation=0.5)
        hyper = HyperParams(**QUICK, seed=17, num_steps=4, observed_mode="concat_xy")
        system = train(hyper, BatchStream(data, 4), DistortionSpec("ts_l2"), si_enabled=True)
        np.testing.assert_array_equal(system.release(data), system.release(replace(data, s=None)))

    def test_fixed_seed_noise_replays_bit_exactly(self):
        a = clusters_data(total=16, seed=9)
        b = clusters_data(total=16, seed=9)
        wa = assemble_observed(a.y, a.x, a.u, "y_only")
        wb = assemble_observed(b.y, b.x, b.u, "y_only")
        np.testing.assert_array_equal(wa, wb)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            assemble_observed(np.zeros((2, 1, 1)), None, np.zeros((3, 1, 1)), "y_only")


class TestTrainLoop:
    @pytest.mark.parametrize("lam", [0.0, 1.5])
    def test_update_counters_respect_alternation_ratio(self, lam):
        # a lambda = 0 model trains no adversary
        data = clusters_data()
        hyper = HyperParams(**QUICK, lam=lam, seed=3)
        system = train(hyper, BatchStream(data, 4), DistortionSpec("p_norm", p=2.0),
                       utility_enabled=True)
        k_steps = hyper.iterations * hyper.adversary_steps
        assert len(system.releaser_history) == hyper.iterations
        assert len(system.adversary_history) == (k_steps if lam > 0.0 else 0)
        assert len(system.utility_history) == k_steps
        assert system.to_dict()["updates"] == {
            "releaser": hyper.iterations, "adversary": len(system.adversary_history),
            "utility": k_steps,
        }

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

    @pytest.mark.parametrize("num_steps, dtype", [(1, np.float64), (24, np.float32)])
    def test_only_recurrent_nets_hold_float32_weights(self, num_steps, dtype):
        net = _two_layer_net(num_steps, 3, 2, "softmax", 5)
        assert net.layers[0].recurrent == (num_steps > 1)
        assert all(l.w.dtype == l.b.dtype == dtype for l in net.layers)


def rebuilt(net_doc):
    """A Network from the layer list of a written document, in its dtype."""
    dtype = net_doc["dtype"]
    return Network([Layer(np.asarray(entry["w"], dtype), np.asarray(entry["b"], dtype),
                          entry["activation"], entry["kind"] == "recurrent")
                    for entry in net_doc["layers"]],
                   seed=net_doc["seed"])


class TestSystemDocument:
    """``system.json`` is written, never read back by the program: these pin
    that the document holds every weight, setting and count of the run."""

    @pytest.fixture(scope="class", params=["clusters", "si_recurrent", "composite"])
    def trained(self, request):
        if request.param == "clusters":
            # at lambda > 0, so that the adversary trains and has a history
            data, hyper = clusters_data(), HyperParams(**QUICK, lam=2.0, seed=19)
            spec, extra = "ts_l2", {}
        elif request.param == "si_recurrent":
            data = markov_data(si_correlation=0.5)
            hyper = HyperParams(**QUICK, seed=17, num_steps=4, observed_mode="concat_xy")
            spec, extra = "ts_l2", {"si_enabled": True}
        else:
            data, hyper = clusters_data(), HyperParams(**QUICK, seed=13)
            spec, extra = "composite_img", {"utility_enabled": True}
        system = train(hyper, BatchStream(data, 4), DistortionSpec(spec), **extra)
        return data, system, json.loads(json.dumps(system.to_dict()))

    def test_every_weight_is_written_exactly(self, trained):
        _, system, doc = trained
        roles = {"releaser": system.releaser, "adversary": system.adversary,
                 "utility": system.utility}
        for role, net in roles.items():
            if net is None:
                assert doc[role] is None
                continue
            assert doc[role]["seed"] == net.seed
            assert len(doc[role]["layers"]) == len(net.layers)
            for entry, layer in zip(doc[role]["layers"], net.layers):
                assert entry["kind"] == ("recurrent" if layer.recurrent else "dense")
                assert entry["activation"] == layer.activation
                np.testing.assert_array_equal(np.asarray(entry["w"]), layer.w)
                np.testing.assert_array_equal(np.asarray(entry["b"]), layer.b)

    def test_written_weights_reproduce_the_release(self, trained):
        data, system, doc = trained
        w = assemble_observed(data.y, data.x, data.u, doc["hyper"]["observed_mode"])
        np.testing.assert_array_equal(rebuilt(doc["releaser"]).forward(w)[0],
                                      system.release(data))

    def test_settings_and_counts_are_recorded(self, trained):
        data, system, doc = trained
        assert HyperParams(**doc["hyper"]) == system.hyper
        assert DistortionSpec(**doc["distortion"]) == system.distortion
        assert doc["si_enabled"] == system.si_enabled
        assert doc["utility_enabled"] == (system.utility is not None)
        assert doc["num_private"] == system.adversary.out_dim == int(data.x.max()) + 1
        assert doc["updates"] == {"releaser": len(system.releaser_history),
                                  "adversary": len(system.adversary_history),
                                  "utility": len(system.utility_history)}
        for who in ("releaser", "adversary", "utility"):
            assert doc[f"{who}_history"] == getattr(system, f"{who}_history")
        assert len(doc["releaser_history"]) == system.hyper.iterations

    def test_document_is_strict_json(self, trained):
        _, system, _ = trained
        json.dumps(system.to_dict(), allow_nan=False)

    def test_to_json_writes_the_document(self, trained, tmp_path):
        _, system, doc = trained
        system.to_json(tmp_path / "system.json")
        assert json.loads((tmp_path / "system.json").read_text()) == doc
        assert list(tmp_path.iterdir()) == [tmp_path / "system.json"]


def assert_same_weights(got, want):
    """The two networks hold the same weights, bit for bit."""
    assert len(got.layers) == len(want.layers)
    for a, b in zip(got.layers, want.layers):
        for x, y in ((a.w, b.w), (a.b, b.b)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


MARKOV_T24 = (markov_data(total=40, num_steps=24, si_correlation=0.5),
              HyperParams(**QUICK, num_steps=24, observed_mode="concat_xy", average_tail=0.5,
                          seed=29))
IDLE_CASES = [
    pytest.param(clusters_data(), replace(HyperParams(**QUICK, seed=23), iterations=12,
                                          average_tail=0.5, lr_decay=0.01, momentum=0.5),
                 "p_norm", False, id="dense-tail-decay"),
    pytest.param(*MARKOV_T24, "ts_l2", False, id="recurrent-T24"),
    pytest.param(*MARKOV_T24, "ts_l2", True, id="recurrent-T24-si"),
]


class TestIdleModel:
    """A lambda = 0 model trains no adversary: its releaser minimises the
    distortion alone, so it is the hand replay of that loop on its stream."""

    @pytest.mark.parametrize("data, hyper, spec, si_enabled", IDLE_CASES)
    def test_lone_run_equals_the_distortion_only_replay(self, data, hyper, spec,
                                                        si_enabled):
        system = train(hyper, BatchStream(data, 4), DistortionSpec(spec), si_enabled)
        want = distortion_only_releaser(hyper, BatchStream(data, 4), DistortionSpec(spec))
        assert_same_weights(system.releaser, want)

    @pytest.mark.parametrize("data, hyper, spec, si_enabled", IDLE_CASES)
    def test_idle_member_of_a_mixed_group_equals_the_replay(self, data, hyper, spec,
                                                            si_enabled):
        hypers = [replace(hyper, lam=lam, seed=hyper.seed + i)
                  for i, lam in enumerate([3.0, 0.0, 20.0])]
        outcomes = train_group(hypers, [BatchStream(data, i) for i in range(3)],
                               DistortionSpec(spec), si_enabled)
        want = distortion_only_releaser(hypers[1], BatchStream(data, 1), DistortionSpec(spec))
        assert_same_weights(outcomes[1].releaser, want)

    @pytest.mark.parametrize("data, hyper, spec, si_enabled", IDLE_CASES)
    def test_lone_run_keeps_its_initial_adversary(self, data, hyper, spec, si_enabled):
        system = train(hyper, BatchStream(data, 4), DistortionSpec(spec), si_enabled)
        d_in = data.y.shape[-1] + (data.s.shape[-1] if si_enabled else 0)
        initial = _two_layer_net(hyper.num_steps, d_in, int(data.x.max()) + 1, "softmax",
                                 _derive_seed(hyper.seed, "adversary"))
        assert_same_weights(system.adversary, initial)
        doc = system.to_dict()
        assert doc["adversary_history"] == [] and doc["updates"]["adversary"] == 0

    def test_idle_model_between_adversaries_equals_its_lone_run(self):
        # the idle model sits between two adversary models, and the utility
        # network trains every model: each member's document and log lines
        # must be those of its lone run
        hyper = HyperParams(**QUICK, seed=23, average_tail=0.5)
        hypers = [replace(hyper, lam=lam, seed=hyper.seed + i)
                  for i, lam in enumerate([3.0, 0.0, 20.0])]
        data, spec = clusters_data(), DistortionSpec("composite_img")
        group_log, logs = io.StringIO(), [io.StringIO() for _ in hypers]
        group = train_group(hypers, [BatchStream(data, i) for i in range(3)], spec,
                            utility_enabled=True, log_stream=group_log)
        alone = [train(h, BatchStream(data, i), spec, False, True, logs[i])
                 for i, h in enumerate(hypers)]
        assert [s.to_dict() for s in group] == [s.to_dict() for s in alone]
        lone_lines = [log.getvalue().splitlines() for log in logs]
        in_stack_order = [line for lines in zip(*lone_lines) for line in lines]
        assert group_log.getvalue().splitlines() == in_stack_order
        assert len(in_stack_order) == 3 * hyper.iterations
        assert all("adversary_loss=nan" in line for line in lone_lines[1])


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
                            iterations=19, batch_size=8, adversary_steps=2)
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

        want = [first_error(m, 3, 19, ["adversary", "adversary", "releaser"]) for m in range(6)]
        want_attack = [first_error(1000 + m, 1, 19, ["attacker"]) for m in trained]
        got = [str(o) if isinstance(o, DivergenceError) else None for o in group + attackers]
        assert got == want + want_attack
        assert {w.split()[0] for w in want + want_attack if w} == {"adversary", "releaser", "attacker"}
        assert None in want_attack

    def test_diverged_models_leave_tail_average_utility_and_log_untouched(self):
        # the same infinite row under the composite distortion: the
        # survivors' tail-averaged releasers and utility networks, and the
        # log lines they write, must be those of their lone runs
        data = clusters_data(total=400, seed=4)
        data.y[0] = np.inf
        hyper = HyperParams(momentum=0.0, lr_releaser=0.02, lr_adversary=0.1,
                            iterations=20, batch_size=8, adversary_steps=2,
                            average_tail=0.5)
        hypers = [replace(hyper, seed=m, lam=0.5 * m) for m in range(6)]
        spec = DistortionSpec("composite_img")
        group_log, logs = io.StringIO(), [io.StringIO() for _ in hypers]
        with np.errstate(all="ignore"):
            group = train_group(hypers, [BatchStream(data, m) for m in range(6)], spec,
                                utility_enabled=True, log_stream=group_log)
            alone = [outcome_of(train, h, BatchStream(data, m), spec, False, True, logs[m])
                     for m, h in enumerate(hypers)]
        assert all(same_outcome(g, a) for g, a in zip(group, alone))
        assert [m for m, o in enumerate(group) if isinstance(o, DivergenceError)] == [2, 4, 5]
        lone_lines = [log.getvalue().splitlines() for log in logs]
        interleaved = [
            line for iteration in range(hyper.iterations) for lines in lone_lines
            for line in lines if line.startswith(f"iteration={iteration} ")
        ]
        assert group_log.getvalue().splitlines() == interleaved
        assert len(interleaved) == 74

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
        [("lr_decay", -1.0), ("batch_size", 0), ("adversary_steps", 0), ("iterations", 0),
         ("num_steps", 0), ("alpha", 0.0), ("average_tail", 1.0),
         ("lam", float("nan")), ("lam", -1.0), ("lam", "0.1"), ("lr_releaser", 0.0),
         ("lr_releaser", float("inf")), ("lr_adversary", float("nan")),
         ("lr_decay", float("inf")), ("momentum", float("nan")), ("momentum", -0.5),
         ("seed", -1), ("seed", 1.5), ("seed", None)],
    )
    def test_out_of_range_values_are_typed_errors(self, field, value):
        with pytest.raises(ValidationError, match=field):
            HyperParams(**{field: value})

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
        rows = data.take(BatchStream(data, 9).draw(nbatch, count=steps))
        z_rows, _ = releaser.forward(assemble_observed(rows.y, rows.x, rows.u, mode))
        single = BatchStream(data, 9)
        for step in range(steps):
            batch = data.take(single.draw(nbatch))
            z, _ = releaser.forward(assemble_observed(batch.y, batch.x, batch.u, mode))
            np.testing.assert_array_equal(z_rows[step * nbatch:(step + 1) * nbatch], z)


class TestGroupDraw:
    @pytest.mark.parametrize("make_data, nbatch, count", [
        (lambda: clusters_data(total=300, seed=5), 32, 1),
        (lambda: clusters_data(total=300, seed=5), 16, 10),
        (lambda: markov_data(total=90, seed=6, num_steps=5), 12, 4),
    ])
    def test_equals_the_per_stream_draws_bit_for_bit(self, make_data, nbatch, count):
        # clusters carry c but no s, markov data s but no c
        data = make_data()
        group = [BatchStream(data, seed) for seed in (3, 8, 21)]
        lone = [BatchStream(data, seed) for seed in (3, 8, 21)]
        for _ in range(2):  # the second draw starts where the first left off
            got = _draw(group, nbatch, count=count)
            want = [data.take(stream.draw(nbatch, count=count)) for stream in lone]
            for name in ("y", "x", "u", "s", "c"):
                parts = [getattr(batch, name) for batch in want]
                if parts[0] is None:
                    assert getattr(got, name) is None
                    continue
                stacked = getattr(got, name)
                assert stacked.dtype == parts[0].dtype and stacked.flags.c_contiguous
                np.testing.assert_array_equal(stacked, np.stack(parts))
        for a, b in zip(group, lone):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestParameterFreezing:
    def test_adversary_frozen_during_releaser_step_and_vice_versa(self):
        # one iteration with k = 1: replay the same alternation by hand and
        # verify each network only moves in its own step
        data = clusters_data(total=32, seed=31)
        # at lambda > 0, where the releaser step reads the adversary
        hyper = HyperParams(momentum=0.0, lr_releaser=0.05, lr_adversary=0.1, lam=1.0,
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
        batch = data.take(stream.draw(8))
        w = assemble_observed(batch.y, batch.x, batch.u, "y_only")
        theta_before = [l.w.copy() for l in manual_rel.layers]
        z, _ = manual_rel.forward(w)
        probs, tr = manual_adv.forward(z)
        loss = adversary_loss(probs, batch.x)
        grads, _ = manual_adv.backward(loss.grad_posteriors, tr)
        opt_a.step(grads)
        for before, layer in zip(theta_before, manual_rel.layers):
            np.testing.assert_array_equal(before, layer.w)
        # releaser step: phi must not move
        batch = data.take(stream.draw(8))
        w = assemble_observed(batch.y, batch.x, batch.u, "y_only")
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
