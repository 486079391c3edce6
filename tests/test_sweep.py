"""Tests for the trade-off sweep harness and SI calibration."""

import concurrent.futures
import io
import json
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from alphaprivacy.datasets import (
    BatchStream,
    DatasetBatch,
    SynthConfig,
    _derive_seed,
    train_eval_split,
)
from alphaprivacy.errors import ValidationError
from alphaprivacy.losses import DistortionSpec
from alphaprivacy.metrics import balanced_accuracy
from alphaprivacy import sweep as sweep_module
from alphaprivacy.sweep import (
    TradeoffPoint,
    _chunks,
    calibrate_si_correlation,
    load_results,
    measure_si_floor,
    run_group,
    run_point,
    save_results,
    si_only_accuracy,
    sweep,
)
from alphaprivacy import training
from alphaprivacy.training import HyperParams, train, train_group

from oracles import distortion_only_releaser, si_only_rule_direct

QUICK_HYPER = HyperParams(momentum=0.0, lr_releaser=0.02, lr_adversary=0.1,
                          iterations=8, batch_size=16, adversary_steps=2, seed=42)
QUICK_DATA = SynthConfig(generator="labeled_clusters", total=80, seed=4)


@pytest.fixture
def inline_pool(monkeypatch):
    """Swap the process pool for a stand-in that runs the jobs inline, so
    that no process starts.  Returns the (pool size, job count) of each
    pool a sweep makes."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            jobs = list(zip(*iterables))
            pools.append((self.max_workers, len(jobs)))
            return [fn(*job) for job in jobs]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return pools


class TestSweep:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            sweep(QUICK_HYPER, [], [1.0], QUICK_DATA)

    def test_points_cover_grid_in_sorted_order(self):
        points = sweep(QUICK_HYPER, [1.0, 0.0], [3.0, 1.0], QUICK_DATA)
        combos = [(p.alpha, p.lam) for p in points]
        assert combos == [(1.0, 0.0), (1.0, 1.0), (3.0, 0.0), (3.0, 1.0)]
        assert all(np.isfinite(p.ne) for p in points)

    def test_rerun_is_bit_identical(self):
        a = sweep(QUICK_HYPER, [0.0, 0.5], [1.0], QUICK_DATA)
        b = sweep(QUICK_HYPER, [0.0, 0.5], [1.0], QUICK_DATA)
        assert [asdict(p) for p in a] == [asdict(p) for p in b]

    def test_parallel_run_matches_sequential(self):
        seq = sweep(QUICK_HYPER, [0.0, 0.5], [1.0], QUICK_DATA, workers=1)
        par = sweep(QUICK_HYPER, [0.0, 0.5], [1.0], QUICK_DATA, workers=2)
        assert [asdict(p) for p in seq] == [asdict(p) for p in par]

    def test_pool_has_at_most_one_worker_per_job(self, monkeypatch, inline_pool):
        # on a machine with a core per requested worker
        monkeypatch.setattr(sweep_module, "_usable_cores", lambda: 64)
        pooled = sweep(QUICK_HYPER, [0.0, 0.5, 1.0], [1.0, 3.0], QUICK_DATA, workers=64)
        assert inline_pool == [(6, 6)]
        seq = sweep(QUICK_HYPER, [0.0, 0.5, 1.0], [1.0, 3.0], QUICK_DATA, workers=1)
        assert [asdict(p) for p in pooled] == [asdict(p) for p in seq]

    def test_pool_has_at_most_one_worker_per_core(self, monkeypatch, inline_pool):
        monkeypatch.setattr(sweep_module, "_usable_cores", lambda: 2)
        pooled = sweep(QUICK_HYPER, [0.0, 0.5, 1.0, 1.5], [1.0], QUICK_DATA, workers=64)
        # two workers, and two jobs for them rather than four
        assert inline_pool == [(2, 2)]
        seq = sweep(QUICK_HYPER, [0.0, 0.5, 1.0, 1.5], [1.0], QUICK_DATA, workers=1)
        assert [asdict(p) for p in pooled] == [asdict(p) for p in seq]

    def test_usable_cores_fall_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert sweep_module._usable_cores() == 3

    def test_pooled_recurrent_si_sweep_matches_sequential(self, monkeypatch):
        # two cores, so that the pool runs on any machine
        monkeypatch.setattr(sweep_module, "_usable_cores", lambda: 2)
        hyper, cfg = MARKOV_SI
        seq = sweep(hyper, [0.0, 0.5], [1.0], cfg, si_enabled=True, workers=1)
        par = sweep(hyper, [0.0, 0.5], [1.0], cfg, si_enabled=True, workers=2)
        assert [asdict(p) for p in seq] == [asdict(p) for p in par]

    def test_diverged_points_are_flagged_not_dropped(self):
        bad = replace(QUICK_HYPER, lr_releaser=1e9, lr_adversary=1e9)
        points = sweep(bad, [0.0, 1.0], [1.0], QUICK_DATA)
        assert len(points) == 2
        assert all(p.failed for p in points)
        assert all(p.error for p in points)
        assert all(np.isnan(p.ne) for p in points)

    @pytest.mark.parametrize("run", [
        lambda hyper, cfg: sweep(hyper, [0.0], [1.0], cfg),
        lambda hyper, cfg: sweep(hyper, [0.0], [1.0], cfg, workers=2),
        lambda hyper, cfg: run_group(hyper, 1.0, [0.0], cfg, DistortionSpec("p_norm", p=2.0),
                                     False, False),
    ])
    def test_a_private_label_only_the_evaluation_split_holds_is_named(self, monkeypatch, run):
        # every training label is 0 and the evaluation labels are [1, 1]
        cfg = SynthConfig(total=10, seed=362, class_bias=0.45)
        train_data, eval_data = train_eval_split(cfg)
        assert set(train_data.x.ravel()) == {0} and eval_data.x.ravel().tolist() == [1, 1]
        monkeypatch.setattr(sweep_module, "train_group", None)  # no point may train
        with pytest.raises(ValidationError, match=(
            r"^the evaluation split holds private label 1, which the training split lacks; "
            r"the training split sets the private alphabet to \[0, 1\)$"
        )):
            run(HyperParams(iterations=2, batch_size=4, adversary_steps=1), cfg)

    @pytest.mark.parametrize("run", [
        lambda hyper, cfg: sweep(hyper, [0.0], [1.0], cfg, utility_enabled=True),
        lambda hyper, cfg: sweep(hyper, [0.0], [1.0], cfg, utility_enabled=True, workers=2),
        lambda hyper, cfg: run_group(hyper, 1.0, [0.0], cfg, DistortionSpec("composite_img"),
                                     False, True),
    ])
    def test_a_utility_label_only_the_evaluation_split_holds_is_named(self, monkeypatch, run):
        # the training utility labels are 0-2 and the evaluation ones [3, 0]
        cfg = SynthConfig(total=12, seed=23, num_classes=4)
        train_data, eval_data = train_eval_split(cfg)
        assert set(train_data.c.tolist()) == {0, 1, 2} and eval_data.c.tolist() == [3, 0]
        monkeypatch.setattr(sweep_module, "train_group", None)  # no point may train
        with pytest.raises(ValidationError, match=(
            r"^the evaluation split holds utility label 3, which the training split lacks; "
            r"the training split sets the utility alphabet to \[0, 3\)$"
        )):
            run(HyperParams(iterations=2, batch_size=4, adversary_steps=1), cfg)

    def test_utility_classes_come_from_the_training_split(self):
        # the training utility labels are 0-3 and the evaluation ones [0, 0],
        # so the utility network predicts classes the evaluation split lacks
        cfg = SynthConfig(total=12, seed=2, num_classes=4)
        train_data, eval_data = train_eval_split(cfg)
        assert set(train_data.c.tolist()) == {0, 1, 2, 3} and eval_data.c.tolist() == [0, 0]
        (point,) = sweep(HyperParams(iterations=2, batch_size=4, adversary_steps=1), [0.0],
                         [1.0], cfg, utility_enabled=True)
        assert not point.failed and np.isfinite(point.utility_accuracy)

    def test_single_point_carries_seed_provenance(self):
        point = run_point(QUICK_HYPER, 1.0, 0.0, QUICK_DATA,
                          DistortionSpec("p_norm", p=2.0), False, False)
        assert not point.failed
        assert point.seed != QUICK_HYPER.seed  # derived per grid point


class TestRunGroup:
    """A group of lambda points trained as one stack equals separate
    ``run_point`` calls, bit for bit."""

    def assert_group_equals_points(self, hyper, alpha, lams, data_cfg, spec, si_enabled):
        group = run_group(hyper, alpha, lams, data_cfg, spec, si_enabled, False)
        alone = [run_point(hyper, alpha, lam, data_cfg, spec, si_enabled, False)
                 for lam in lams]
        # through JSON, which writes floats exactly and NaN comparably
        assert json.dumps([asdict(p) for p in group]) == json.dumps([asdict(p) for p in alone])
        return group

    def test_dense_static_clusters_three_points(self):
        hyper = replace(QUICK_HYPER, iterations=12, average_tail=0.5, lr_decay=0.002)
        self.assert_group_equals_points(
            hyper, 0.9, [0.0, 3.0, 20.0], QUICK_DATA, DistortionSpec("p_norm", p=2.0), False
        )

    def test_recurrent_with_side_information_two_points(self):
        data_cfg = SynthConfig(generator="markov_load", total=200, num_steps=24, d_y=1,
                               seed=5, si_correlation=0.5)
        hyper = replace(QUICK_HYPER, num_steps=24, observed_mode="concat_xy",
                        iterations=4, average_tail=0.5)
        self.assert_group_equals_points(
            hyper, 3.0, [0.0, 20.0], data_cfg, DistortionSpec("ts_l2"), True
        )

    def test_a_diverging_point_fails_alone(self):
        points = self.assert_group_equals_points(
            QUICK_HYPER, 1.0, [0.0, 1e7, 2.0], QUICK_DATA, DistortionSpec("p_norm"), False
        )
        assert [p.failed for p in points] == [False, True, False]
        assert points[1].error.startswith("releaser loss diverged at iteration 0: ")

    @pytest.mark.parametrize("count, sizes", [(1, [3]), (2, [2, 1]), (3, [1, 1, 1]),
                                              (5, [1, 1, 1])])
    def test_lambdas_split_into_near_equal_contiguous_groups(self, count, sizes):
        groups = _chunks([0.0, 3.0, 20.0], count)
        assert [len(g) for g in groups] == sizes
        assert [lam for g in groups for lam in g] == [0.0, 3.0, 20.0]

    def test_six_lambdas_over_three_workers_form_pairs(self):
        assert _chunks(list(range(6)), 3) == [[0, 1], [2, 3], [4, 5]]


def lone_points(hyper, alpha, lams, *args):
    """The points of ``lams`` at ``alpha``, each from its own ``run_point``."""
    return [run_point(hyper, alpha, lam, *args) for lam in lams]


def recorded_run_group(monkeypatch, *args):
    """``run_group(*args)`` and the outcomes of the ``train_group`` call it makes."""
    calls = []

    def recording(*call_args, **kwargs):
        calls.append(train_group(*call_args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(sweep_module, "train_group", recording)
    points = run_group(*args)
    monkeypatch.undo()
    (outcomes,) = calls
    return points, outcomes


def as_json(points):
    # JSON writes floats exactly and NaN comparably
    return json.dumps([asdict(p) for p in points])


MARKOV_SI = (
    replace(QUICK_HYPER, num_steps=24, observed_mode="concat_xy", iterations=4,
            average_tail=0.5),
    SynthConfig(generator="markov_load", total=200, num_steps=24, d_y=1, seed=5,
                si_correlation=0.5),
)


class TestIdleAdversaries:
    """A sweep point at lambda = 0 trains no adversary: its releaser is the
    distortion-only replay of its stream, and every point of a group
    equals its lone run, bit for bit."""

    @pytest.mark.parametrize("hyper, alpha, lams, data_cfg, spec, si_enabled, utility_enabled", [
        pytest.param(replace(QUICK_HYPER, iterations=12, average_tail=0.5, lr_decay=0.002),
                     0.9, [0.0, 3.0, 20.0], QUICK_DATA, DistortionSpec("p_norm"), False, False,
                     id="dense-G3-idle-first"),
        pytest.param(QUICK_HYPER, 0.9, [3.0, 0.0, 20.0], QUICK_DATA, DistortionSpec("p_norm"),
                     False, False, id="dense-G3-idle-between"),
        pytest.param(MARKOV_SI[0], 3.0, [0.0, 20.0], MARKOV_SI[1], DistortionSpec("ts_l2"),
                     True, False, id="recurrent-si-G2"),
        pytest.param(QUICK_HYPER, 1.0, [1.0, 0.0, 2.0], QUICK_DATA,
                     DistortionSpec("composite_img"), False, True, id="composite-utility"),
        pytest.param(QUICK_HYPER, 1.0, [0.0], QUICK_DATA, DistortionSpec("p_norm"), False,
                     False, id="all-idle"),
        pytest.param(QUICK_HYPER, 1.0, [0.0], QUICK_DATA, DistortionSpec("composite_img"),
                     False, True, id="all-idle-utility"),
        pytest.param(QUICK_HYPER, 1.0, [3.0, 20.0], QUICK_DATA, DistortionSpec("p_norm"),
                     False, False, id="no-idle"),
    ])
    def test_points_equal_their_lone_runs(self, monkeypatch, hyper, alpha, lams, data_cfg,
                                          spec, si_enabled, utility_enabled):
        args = (hyper, alpha, lams, data_cfg, spec, si_enabled, utility_enabled)
        points, outcomes = recorded_run_group(monkeypatch, *args)
        assert as_json(points) == as_json(lone_points(*args))
        assert not any(p.failed for p in points)
        train_data = sweep_module.train_eval_split(data_cfg)[0]
        for lam, got in zip(lams, outcomes):
            if lam > 0.0:
                assert len(got.adversary_history) == hyper.iterations * hyper.adversary_steps
                continue
            # the idle adversary is the seeded initial network, untrained
            initial = training._two_layer_net(
                hyper.num_steps, got.adversary.in_dim, got.adversary.out_dim, "softmax",
                _derive_seed(got.hyper.seed, "adversary"),
            )
            assert got.adversary.to_dict() == initial.to_dict()
            assert got.adversary_history == []
            if spec.needs_utility:
                continue  # the releaser reads the utility network
            want = distortion_only_releaser(
                got.hyper, BatchStream(train_data, _derive_seed(got.hyper.seed, "train-stream")),
                spec,
            )
            assert got.releaser.to_dict() == want.to_dict()

    def test_log_of_an_idle_model_reads_no_adversary_loss(self):
        data = train_eval_split(QUICK_DATA)[0]
        hypers = [replace(QUICK_HYPER, lam=2.0, seed=1), replace(QUICK_HYPER, lam=0.0, seed=2)]
        log = io.StringIO()
        train_group(hypers, [BatchStream(data, 1), BatchStream(data, 2)],
                    DistortionSpec("p_norm"), log_stream=log)
        lines = log.getvalue().splitlines()
        for g, hyper in enumerate(hypers):
            lone = io.StringIO()
            train(hyper, BatchStream(data, g + 1), DistortionSpec("p_norm"), log_stream=lone)
            assert lines[g::2] == lone.getvalue().splitlines()
        assert not any("adversary_loss=nan" in line for line in lines[0::2])
        assert {line.split()[1] for line in lines[1::2]} == {"adversary_loss=nan"}

    # base seeds, and the way their lambda = 0 point ends: through its
    # attacker, its releaser, or not at all
    @pytest.mark.parametrize("seed, zero_outcome", [(1, "attacker"), (6, "releaser"),
                                                    (9, None)])
    def test_a_lambda_zero_point_fails_only_through_its_releaser_or_attacker(
            self, monkeypatch, seed, zero_outcome):
        # one infinite training row, as in TestTrainGroup's divergence test:
        # models whose streams draw it diverge, each at a step of its own
        train_data, eval_data = train_eval_split(SynthConfig(generator="labeled_clusters",
                                                             total=500, seed=4))
        train_data.y[0] = np.inf
        monkeypatch.setattr(sweep_module, "train_eval_split",
                            lambda cfg: (train_data, eval_data))
        hyper = HyperParams(momentum=0.0, lr_releaser=0.02, lr_adversary=0.1, iterations=19,
                            batch_size=8, adversary_steps=2, seed=seed)
        lams = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
        args = (hyper, 1.0, lams, QUICK_DATA, DistortionSpec("p_norm"), False, False)
        with np.errstate(all="ignore"):
            points = run_group(*args)
            alone = lone_points(*args)
            pooled = sweep(hyper, lams, [1.0], QUICK_DATA, workers=2)
        assert as_json(points) == as_json(alone)
        assert "adversary" in {p.error.split()[0] for p in points[1:] if p.failed}
        assert (points[0].error and points[0].error.split()[0]) == zero_outcome
        assert as_json(pooled) == as_json(points)


class TestSiCalibration:
    def test_floor_monotone_in_correlation(self):
        cfg = SynthConfig(generator="markov_load", total=2000, num_steps=12, seed=3)
        floors = [
            measure_si_floor(replace(cfg, si_correlation=c))
            for c in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(floors[i + 1] >= floors[i] - 0.01 for i in range(4))
        assert abs(floors[0] - 0.5) < 0.03

    def test_calibration_hits_target(self):
        cfg = SynthConfig(generator="markov_load", total=2000, num_steps=12, seed=3)
        cal = calibrate_si_correlation(cfg, target=0.56, tol=0.005)
        assert abs(measure_si_floor(cal) - 0.56) <= 0.01

    def test_unreachable_target_raises(self):
        cfg = SynthConfig(generator="markov_load", total=500, num_steps=12, seed=3)
        with pytest.raises(ValidationError):
            calibrate_si_correlation(cfg, target=0.99)

    def test_wrong_generator_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_si_correlation(QUICK_DATA, target=0.55)

    def test_si_only_accuracy_requires_side_information(self):
        train_data, eval_data = train_eval_split(QUICK_DATA)
        with pytest.raises(ValidationError):
            si_only_accuracy(train_data, eval_data)

    def test_unseen_symbol_falls_back_to_the_overall_argmax(self):
        # symbol 0 favours label 1 and symbol 1 label 2, but label 0 is the
        # most common overall, so the unseen symbol 5 is predicted as 0
        train = si_pool([0] * 5 + [1] * 5, [1, 1, 1, 0, 0, 2, 2, 2, 0, 0])
        held_out = si_pool([0, 1, 5, 5], [1, 2, 0, 1])
        acc = si_only_accuracy(train, held_out)
        # recalls: label 0 1/1, label 1 1/2 (symbol 5 -> 0), label 2 1/1
        assert acc == pytest.approx((1.0 + 0.5 + 1.0) / 3)

    @pytest.mark.parametrize("seed", range(4))
    def test_markov_split_equals_the_per_symbol_rule(self, seed):
        cfg = SynthConfig(generator="markov_load", total=300, num_steps=3, seed=seed,
                          si_correlation=0.4)
        train, held_out = train_eval_split(cfg)
        preds = si_only_rule_direct(train.s[:, 0], train.x, held_out.s[:, 0])
        expected = balanced_accuracy(np.repeat(preds, held_out.num_steps), held_out.x.ravel(), 2)
        assert si_only_accuracy(train, held_out) == expected


def si_pool(symbols, labels, num_steps=2):
    """A pool of sequences whose per-step labels all equal ``labels`` and
    whose side information is ``symbols``."""
    n = len(symbols)
    x = np.repeat(np.array(labels)[:, None], num_steps, axis=1)
    s = np.array(symbols, dtype=float)[:, None]
    return DatasetBatch(y=np.zeros((n, num_steps, 1)), x=x, u=np.zeros((n, num_steps, 1)), s=s)


class TestResultsPersistence:
    def test_round_trip(self, tmp_path):
        points = [
            TradeoffPoint(alpha=1.0, lam=0.5, ne=0.1, attacker_balanced_accuracy=0.9,
                          utility_accuracy=None, seed=7),
            TradeoffPoint(alpha=3.0, lam=2.0, ne=float("nan"),
                          attacker_balanced_accuracy=float("nan"),
                          utility_accuracy=0.8, seed=8, failed=True, error="diverged"),
        ]
        path = tmp_path / "results.json"
        save_results(points, path, metadata={"grids": {"lambda": [0.5, 2.0]}})
        back, meta = load_results(path)
        assert meta["grids"]["lambda"] == [0.5, 2.0]
        assert back[0] == points[0]
        assert back[1].failed and np.isnan(back[1].ne)

    def test_failed_scores_are_written_as_null(self, tmp_path):
        points = [
            TradeoffPoint(alpha=1.0, lam=0.5, ne=0.1, attacker_balanced_accuracy=0.9,
                          utility_accuracy=None, seed=7),
            TradeoffPoint(alpha=3.0, lam=2.0, ne=float("nan"),
                          attacker_balanced_accuracy=float("nan"),
                          utility_accuracy=None, seed=8, failed=True, error="diverged"),
        ]
        path = tmp_path / "results.json"
        save_results(points, path)

        def reject(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        failed = doc["points"][1]
        assert failed["ne"] is None and failed["attacker_balanced_accuracy"] is None
        back, _ = load_results(path)
        assert back[0] == points[0]
        assert np.isnan(back[1].ne) and np.isnan(back[1].attacker_balanced_accuracy)

    def test_write_is_atomic_no_stray_temp_files(self, tmp_path):
        points = [TradeoffPoint(alpha=1.0, lam=0.0, ne=0.0,
                                attacker_balanced_accuracy=0.5,
                                utility_accuracy=None, seed=1)]
        path = tmp_path / "results.json"
        save_results(points, path)
        assert json.loads(path.read_text())["points"]
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []
