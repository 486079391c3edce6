"""Tests for the trade-off sweep harness and SI calibration."""

import json
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from alphaprivacy.datasets import SynthConfig, train_eval_split
from alphaprivacy.errors import ValidationError
from alphaprivacy.losses import DistortionSpec
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
from alphaprivacy.training import HyperParams

QUICK_HYPER = HyperParams(momentum=0.0, lr_releaser=0.02, lr_adversary=0.1,
                          iterations=8, batch_size=16, adversary_steps=2, seed=42)
QUICK_DATA = SynthConfig(generator="labeled_clusters", total=80, seed=4)


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

    def test_diverged_points_are_flagged_not_dropped(self):
        bad = replace(QUICK_HYPER, lr_releaser=1e9, lr_adversary=1e9)
        points = sweep(bad, [0.0, 1.0], [1.0], QUICK_DATA)
        assert len(points) == 2
        assert all(p.failed for p in points)
        assert all(p.error for p in points)
        assert all(np.isnan(p.ne) for p in points)

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
