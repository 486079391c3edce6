"""End-to-end tests of the command-line interface and plotting outputs."""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from alphaprivacy.cli import main
from alphaprivacy.plotting import curves_csv, tradeoff_svg
from alphaprivacy.sweep import TradeoffPoint, load_results

DATA_DIR = pathlib.Path(__file__).parent / "data"

SWEEP_CONFIG = {
    "data": {"generator": "labeled_clusters", "total": 1280, "seed": 3},
    "hyper": {
        "momentum": 0.0,
        "lr_releaser": 0.02,
        "lr_decay": 0.005,
        "lr_adversary": 0.3,
        "iterations": 300,
        "batch_size": 256,
        "adversary_steps": 3,
        "seed": 5,
    },
    "lambda_grid": [0.0],
    "alpha_grid": [1.0],
}


WORLD = {
    "axes": ["X", "W", "Y"],
    "sizes": {"X": 2, "W": 2, "Y": 2, "Z": 2},
    "joint": [0.5, 0, 0, 0, 0, 0, 0, 0.5],
    "distortion": [[0, 1], [1, 0]],
}


def write_joint(path, probs=((0.4, 0.1), (0.1, 0.4))):
    doc = {"axes": ["X", "Z"], "shape": [2, 2], "probs": list(np.ravel(probs))}
    path.write_text(json.dumps(doc))


class TestMeasuresCommand:
    def test_reports_fixture_values(self, tmp_path, capsys):
        joint = tmp_path / "joint.json"
        write_joint(joint)
        rc = main(["measures", "--joint", str(joint), "--alpha", "0.9,1,3",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.192745" in out  # Shannon mutual information of the fixture
        records = json.loads((tmp_path / "measures.json").read_text())["measures"]
        assert [r["alpha"] for r in records] == [0.9, 1.0, 3.0]
        assert records[1]["mutual_information_x_z"] == pytest.approx(
            0.19274475702175742, abs=1e-9
        )

    def test_independent_joint_reports_zero_information(self, tmp_path, capsys):
        joint = tmp_path / "joint.json"
        write_joint(joint, probs=np.outer([0.3, 0.7], [0.6, 0.4]))
        rc = main(["measures", "--joint", str(joint), "--alpha", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        records = json.loads((tmp_path / "measures.json").read_text())["measures"]
        assert records[0]["mutual_information_x_z"] == pytest.approx(0.0, abs=1e-12)

    def test_malformed_joint_is_a_data_error(self, tmp_path):
        joint = tmp_path / "joint.json"
        joint.write_text("{not json")
        assert main(["measures", "--joint", str(joint)]) == 2

    def test_missing_file_is_a_data_error(self, tmp_path):
        assert main(["measures", "--joint", str(tmp_path / "nope.json")]) == 2

    def test_unnormalized_joint_is_a_data_error(self, tmp_path):
        joint = tmp_path / "joint.json"
        write_joint(joint, probs=((0.9, 0.9), (0.1, 0.1)))
        assert main(["measures", "--joint", str(joint)]) == 2


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["measures"]) == 1

    def test_bad_alpha_list(self, tmp_path):
        joint = tmp_path / "joint.json"
        write_joint(joint)
        assert main(["measures", "--joint", str(joint), "--alpha", "a,b"]) == 1


class TestOptimizeCommand:
    def test_writes_channel_document(self, tmp_path):
        world = {
            "axes": ["X", "W", "Y"],
            "sizes": {"X": 2, "W": 2, "Y": 2, "Z": 2},
            "joint": [0.5, 0, 0, 0, 0, 0, 0, 0.5],
            "distortion": [[0, 1], [1, 0]],
        }
        path = tmp_path / "world.json"
        path.write_text(json.dumps(world))
        rc = main(["optimize", "--world", str(path), "--alpha", "2", "--lambda", "0",
                   "--seed", "1", "--max-iters", "200", "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "channel.json").read_text())
        assert doc["expected_distortion"] < 1e-3
        rows = np.asarray(doc["channel"])
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        trace = doc["trace"]
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))


    @pytest.mark.parametrize("field, value", [
        ("joint", [0.5, 0, 0, 0, 0, 0, 0, "half"]),
        ("distortion", [[0, 1], [1]]),
    ])
    def test_malformed_world_is_a_one_line_data_error(self, tmp_path, capsys, field, value):
        world = {
            "axes": ["X", "W", "Y"],
            "sizes": {"X": 2, "W": 2, "Y": 2, "Z": 2},
            "joint": [0.5, 0, 0, 0, 0, 0, 0, 0.5],
            "distortion": [[0, 1], [1, 0]],
            field: value,
        }
        path = tmp_path / "world.json"
        path.write_text(json.dumps(world))
        rc = main(["optimize", "--world", str(path), "--alpha", "2", "--lambda", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: ")
        assert captured.err.count("\n") == 1


class TestSweepCommand:
    def test_single_zero_lambda_point_reaches_full_utility(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(SWEEP_CONFIG))
        rc = main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        points, meta = load_results(tmp_path / "results.json")
        assert len(points) == 1
        assert not points[0].failed
        assert points[0].ne < 0.05
        assert meta["config_sha256"]

    def test_grid_produces_all_rows(self, tmp_path):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        config["hyper"]["iterations"] = 2
        config["hyper"]["batch_size"] = 16
        config["data"]["total"] = 80
        config["lambda_grid"] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        config["alpha_grid"] = [0.9, 1.0, 3.0]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        rc = main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        points, _ = load_results(tmp_path / "results.json")
        assert len(points) == 18
        csv_lines = (tmp_path / "results.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 19  # header + rows

    def test_rerun_is_identical_modulo_timestamp(self, tmp_path):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        config["hyper"]["iterations"] = 5
        config["hyper"]["batch_size"] = 16
        config["data"]["total"] = 80
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(out_b)]) == 0
        doc_a = json.loads((out_a / "results.json").read_text())
        doc_b = json.loads((out_b / "results.json").read_text())
        doc_a["metadata"].pop("created")
        doc_b["metadata"].pop("created")
        assert doc_a == doc_b
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    def test_flag_overrides_and_worker_pool(self, tmp_path):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        config["hyper"]["iterations"] = 5
        config["hyper"]["batch_size"] = 16
        config["data"]["total"] = 80
        del config["lambda_grid"]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        rc = main(["sweep", "--config", str(cfg), "--lambda-grid", "0,0.5",
                   "--alpha", "1", "--workers", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
        points, _ = load_results(tmp_path / "results.json")
        assert [(p.alpha, p.lam) for p in points] == [(1.0, 0.0), (1.0, 0.5)]

    def test_missing_lambda_grid_is_usage_error(self, tmp_path):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        del config["lambda_grid"]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1

    def test_unwritable_out_dir_fails(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(SWEEP_CONFIG))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(blocker)]) == 3

    def test_out_dir_env_var_is_honored(self, tmp_path, monkeypatch):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        config["hyper"]["iterations"] = 2
        config["hyper"]["batch_size"] = 16
        config["data"]["total"] = 80
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        target = tmp_path / "from_env"
        monkeypatch.setenv("ALPHAPRIVACY_OUT_DIR", str(target))
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert (target / "results.json").exists()


class TestTrainCommand:
    def test_writes_checkpoint_and_parseable_log(self, tmp_path):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        config["hyper"]["iterations"] = 10
        config["hyper"]["batch_size"] = 16
        config["data"]["total"] = 80
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(config))
        rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        from alphaprivacy.training import TrainedSystem

        system = TrainedSystem.from_json(tmp_path / "system.json")
        assert len(system.releaser_history) == 10
        lines = (tmp_path / "train_log.txt").read_text().strip().split("\n")
        assert len(lines) == 10
        assert lines[0].startswith("iteration=0 ")

    @pytest.mark.parametrize("field, value", [("lr_decay", -1), ("hidden_releaser", 0),
                                              ("attacker_iterations", 0),
                                              ("attacker_iterations", -5),
                                              ("attacker_iterations", 2.5)])
    def test_out_of_range_hyper_is_a_one_line_data_error(self, tmp_path, capsys, field, value):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        config["hyper"][field] = value
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and field in err
        assert err.count("\n") == 1


class TestSweepHyperValidation:
    @pytest.mark.parametrize("field, value", [("batch_size", 16.5), ("iterations", 2.5)])
    def test_non_integer_count_is_a_one_line_data_error(self, tmp_path, capsys, field, value):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        config["hyper"][field] = value
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and field in err
        assert err.count("\n") == 1

    def test_non_integer_data_size_is_a_one_line_data_error(self, tmp_path, capsys):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        config["data"]["total"] = 1280.5
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "total" in err
        assert err.count("\n") == 1


class TestInternalErrors:
    def test_unexpected_exception_is_one_line_exit_3(self, tmp_path, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("simulated defect")

        monkeypatch.setattr("alphaprivacy.cli.cmd_measures", broken)
        joint = tmp_path / "joint.json"
        write_joint(joint)
        assert main(["measures", "--joint", str(joint)]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: simulated defect\n"


def assert_one_line_error(capsys, prefix, *words):
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert err.count("\n") == 1, err
    for word in words:
        assert word in err, err


def sweep_config_file(tmp_path, **changes):
    config = json.loads(json.dumps(SWEEP_CONFIG))
    config.update(changes)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    return cfg


class TestNonFiniteSettings:
    @pytest.mark.parametrize("flag, field", [("--lambda", "lam"), ("--step-size", "step_size")])
    def test_optimize_rejects_nan(self, tmp_path, capsys, flag, field):
        path = tmp_path / "world.json"
        path.write_text(json.dumps(WORLD))
        rc = main(["optimize", "--world", str(path), flag, "nan", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert_one_line_error(capsys, "data error: ", field)

    def test_train_rejects_nan_lambda(self, tmp_path, capsys):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        config["hyper"]["lam"] = float("nan")
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(config))  # json writes the NaN token, Python reads it back
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", "lam")

    def test_sweep_rejects_nan_in_lambda_grid(self, tmp_path, capsys):
        cfg = sweep_config_file(tmp_path)
        rc = main(["sweep", "--config", str(cfg), "--lambda-grid", "nan,0.5",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert_one_line_error(capsys, "data error: ", "lambda_grid")
        assert not (tmp_path / "results.json").exists()


class TestSweepGridsAndWorkers:
    @pytest.mark.parametrize("field, value", [
        ("lambda_grid", 0.5), ("lambda_grid", ["x"]), ("lambda_grid", []),
        ("lambda_grid", [0.0, float("inf")]), ("alpha_grid", "1.0"), ("alpha_grid", [0.0]),
        ("workers", "two"), ("workers", 0), ("workers", 1.5),
    ])
    def test_bad_config_entries_are_one_line_data_errors(self, tmp_path, capsys, field, value):
        cfg = sweep_config_file(tmp_path, **{field: value})
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", field)

    @pytest.mark.parametrize("workers", ["-2", "0"])
    def test_workers_below_one_is_a_usage_error(self, tmp_path, capsys, workers):
        cfg = sweep_config_file(tmp_path)
        rc = main(["sweep", "--config", str(cfg), "--workers", workers,
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert_one_line_error(capsys, "usage error: ", "--workers")


class TestPlotInputErrors:
    @pytest.mark.parametrize("text", [
        "{not json", "[]", '{"points": {}}', '{"metadata": {}}',
        '{"points": [{"alpha": 1.0, "lam": 0.0}]}',
        '{"points": [{"alpha": 1.0, "lam": 0.0, "ne": 0.1, "attacker_balanced_accuracy": 0.9,'
        ' "utility_accuracy": null, "seed": 1, "colour": "red"}]}',
        '{"points": [[1.0, 0.0]]}',
    ])
    def test_malformed_results_are_one_line_data_errors(self, tmp_path, capsys, text):
        results = tmp_path / "results.json"
        results.write_text(text)
        assert main(["plot", "--results", str(results), "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", str(results))

    @pytest.mark.parametrize("field, value", [
        ("ne", "abc"), ("alpha", None), ("lam", True), ("attacker_balanced_accuracy", [0.5]),
        ("utility_accuracy", "0.8"), ("seed", 1.5), ("seed", -1), ("failed", 0), ("error", 3),
    ])
    def test_mistyped_point_field_is_a_one_line_data_error(self, tmp_path, capsys, field, value):
        record = {"alpha": 1.0, "lam": 0.0, "ne": 0.1, "attacker_balanced_accuracy": 0.9,
                  "utility_accuracy": None, "seed": 1, "failed": False, "error": None}
        good = dict(record, seed=2)
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"points": [good, dict(record, **{field: value})]}))
        assert main(["plot", "--results", str(results), "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", str(results), f"point 1: {field} must be")

    def test_missing_results_file_is_a_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["plot", "--results", str(missing), "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", "no such file")


class TestPlotCommand:
    def test_golden_svg_and_reference_line(self, tmp_path):
        rc = main(["plot", "--results", str(DATA_DIR / "fixture_results.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        svg = (tmp_path / "put_curves.svg").read_text()
        assert svg == (DATA_DIR / "golden_put.svg").read_text()
        assert "full privacy (0.5)" in svg
        csv = (tmp_path / "put_curves.csv").read_text()
        assert csv.startswith("alpha,ne,attacker_balanced_accuracy")

    def test_single_point_draws_marker_without_curve(self):
        point = TradeoffPoint(alpha=1.0, lam=0.0, ne=0.1,
                              attacker_balanced_accuracy=0.9,
                              utility_accuracy=None, seed=1)
        svg = tradeoff_svg([point])
        assert "<circle" in svg
        assert "<polyline" not in svg
        assert "full privacy (0.5)" in svg

    def test_empty_results_fail_with_data_error(self, tmp_path):
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"metadata": {}, "points": []}))
        assert main(["plot", "--results", str(results), "--out-dir", str(tmp_path)]) == 2

    def test_failed_points_are_skipped_in_curves(self):
        points = [
            TradeoffPoint(alpha=1.0, lam=0.0, ne=0.1,
                          attacker_balanced_accuracy=0.9, utility_accuracy=None, seed=1),
            TradeoffPoint(alpha=1.0, lam=1.0, ne=float("nan"),
                          attacker_balanced_accuracy=float("nan"),
                          utility_accuracy=None, seed=2, failed=True, error="x"),
        ]
        assert "nan" not in curves_csv(points)


class TestConsoleEntryPoint:
    def test_module_invocation_reports_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "alphaprivacy", "no-such-command"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "usage error" in proc.stderr
