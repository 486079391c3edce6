"""End-to-end tests of the command-line interface and plotting outputs."""

import json
import os
import pathlib
import subprocess
import sys
from argparse import Namespace
from dataclasses import fields

import numpy as np
import pytest

from alphaprivacy.channel import ChannelOptConfig, ReleaseChannel, WorldModel, releaser_objective
from alphaprivacy.cli import _build_run_pieces, build_parser, main
from alphaprivacy.datasets import SynthConfig
from alphaprivacy.losses import DistortionSpec
from alphaprivacy.plotting import curves_csv, tradeoff_svg
from alphaprivacy.sweep import TradeoffPoint, load_results
from alphaprivacy.training import HyperParams

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

    @pytest.mark.parametrize("shape", [[2.9, 2], [2, 2.0], [True, 4], ["2", 2], [0, 2]])
    def test_shape_sizes_must_be_counts(self, tmp_path, capsys, shape):
        joint = tmp_path / "joint.json"
        joint.write_text(json.dumps({"axes": ["X", "Z"], "shape": shape,
                                     "probs": [0.25, 0.25, 0.25, 0.25]}))
        assert main(["measures", "--joint", str(joint), "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: ") and "must be an integer >= 1" in captured.err
        assert captured.err.count("\n") == 1

    def test_non_string_axis_label_is_a_data_error(self, tmp_path, capsys):
        joint = tmp_path / "joint.json"
        joint.write_text(json.dumps({"axes": [["X"], "Z"], "shape": [2, 2],
                                     "probs": [0.4, 0.1, 0.1, 0.4]}))
        assert main(["measures", "--joint", str(joint), "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: ") and "must be strings" in captured.err
        assert captured.err.count("\n") == 1

    def test_side_information_table_is_pinned(self, tmp_path, capsys):
        # X and Z are nearly independent, but strongly dependent given S
        doc = {"axes": ["X", "Z", "S"], "shape": [2, 3, 2],
               "probs": [v / 32 for v in (8, 1, 1, 4, 2, 2, 1, 6, 3, 1, 2, 1)]}
        joint = tmp_path / "joint.json"
        joint.write_text(json.dumps(doc))
        rc = main(["measures", "--joint", str(joint), "--alpha", "0.5,1,3,10",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out == (
            "       alpha        H_a(X)      H_a(X|Z)      I_a(X;Z)    I_a(X;Z|S)\n"
            "         0.5      0.689218      0.689186      0.000032      0.106150\n"
            "           1      0.685314      0.685251      0.000063      0.186165\n"
            "           3      0.670242      0.670076      0.000167      0.297256\n"
            "          10      0.630638      0.630464      0.000174      0.300152\n"
            f"wrote {tmp_path / 'measures.json'}\n"
        )
        records = json.loads((tmp_path / "measures.json").read_text())["measures"]
        assert list(records[0]) == [
            "alpha", "renyi_entropy_x", "conditional_entropy_x_given_z",
            "mutual_information_x_z", "mutual_information_x_z_given_s",
        ]


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

    def test_objective_is_the_last_trace_value(self, tmp_path):
        # |Z| * |S| = 9 cells: the objective of the winner scored alone has
        # the bits it had in the optimizer's stack
        rng = np.random.default_rng(0)
        joint = rng.random((2, 3, 3, 3)) + 0.05
        world = {
            "axes": ["X", "W", "Y", "S"],
            "sizes": {"X": 2, "W": 3, "Y": 3, "S": 3, "Z": 3},
            "joint": (joint / joint.sum()).ravel().tolist(),
            "distortion": (np.ones((3, 3)) - np.eye(3)).tolist(),
        }
        path = tmp_path / "world.json"
        path.write_text(json.dumps(world))
        rc = main(["optimize", "--world", str(path), "--alpha", "2", "--lambda", "0.7",
                   "--seed", "1", "--max-iters", "100", "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "channel.json").read_text())
        assert doc["objective"] == doc["trace"][-1]
        cfg = ChannelOptConfig(alpha=2.0, lam=0.7)
        channel = ReleaseChannel(doc["channel"])
        assert releaser_objective(WorldModel.from_json(path), channel, cfg) == doc["objective"]

    def test_defaults_are_the_optimizer_config_defaults(self, capsys):
        args = build_parser().parse_args(["optimize", "--world", "world.json"])
        defaults = ChannelOptConfig()
        assert (args.alpha_value, args.lam, args.step_size, args.max_iters) == (
            defaults.alpha, defaults.lam, defaults.step_size, defaults.max_iters
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize", "--help"])
        usage = capsys.readouterr().out
        assert f"(default {defaults.step_size:g})" in usage
        assert f"(default {defaults.max_iters})" in usage

    @pytest.mark.parametrize("field, value", [
        ("joint", [0.5, 0, 0, 0, 0, 0, 0, "half"]),
        ("distortion", [[0, 1], [1]]),
        ("distortion", 5),
        ("sizes", {"X": 2.9, "W": 2, "Y": 2, "Z": 2}),
        ("sizes", {"X": 2, "W": 2, "Y": 2, "Z": 2.9}),
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

    def test_overflowing_step_is_a_one_line_data_error(self, tmp_path):
        # lambda * step_size * gradient overflows: exit 2 with one line that
        # names both settings, and no NumPy warning lines
        rng = np.random.default_rng(23)
        table = rng.random((3, 2, 2, 2)) + 0.05
        world = {
            "axes": ["X", "W", "Y", "S"],
            "sizes": {"X": 3, "W": 2, "Y": 2, "S": 2, "Z": 2},
            "joint": list(np.ravel(table / table.sum())),
            "distortion": [[0, 1], [1, 0]],
        }
        path = tmp_path / "world.json"
        path.write_text(json.dumps(world))
        src = str(pathlib.Path(__file__).parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "alphaprivacy", "optimize", "--world", str(path),
             "--alpha", "10", "--lambda", "1.7e308", "--step-size", "64",
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith("data error: lambda = 1.7e+308 with step_size = 64 ")
        assert not (tmp_path / "channel.json").exists()


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
        doc = json.loads((tmp_path / "system.json").read_text())
        assert set(doc) == {
            "hyper", "distortion", "si_enabled", "utility_enabled", "num_private", "releaser",
            "adversary", "utility", "releaser_history", "adversary_history",
            "utility_history", "updates",
        }
        assert len(doc["releaser_history"]) == 10
        # W is y (3 features) plus one noise column; two private classes
        shapes = {role: [np.shape(layer["w"]) for layer in doc[role]["layers"]]
                  for role in ("releaser", "adversary")}
        assert shapes == {"releaser": [(4, 16), (16, 3)], "adversary": [(3, 16), (16, 2)]}
        assert doc["utility"] is None
        lines = (tmp_path / "train_log.txt").read_text().strip().split("\n")
        assert len(lines) == 10
        assert lines[0].startswith("iteration=0 ")

    @pytest.mark.parametrize("field, value", [("lr_decay", -1), ("batch_size", 0),
                                              ("adversary_steps", 0), ("iterations", 0),
                                              ("momentum", -0.5)])
    def test_out_of_range_hyper_is_a_one_line_data_error(self, tmp_path, capsys, field, value):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        config["hyper"][field] = value
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and field in err
        assert err.count("\n") == 1


def small_train_config(tmp_path, **hyper):
    config = json.loads(json.dumps(SWEEP_CONFIG))
    config["hyper"].update(iterations=10, batch_size=16, **hyper)
    config["data"]["total"] = 80
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(config))
    return cfg


class TestTrainLog:
    """``train_log.txt`` is replaced atomically: a run that returns or
    diverges publishes the lines of the iterations it ran, and any other
    failure leaves the previous log and no temp file."""

    def test_diverged_run_publishes_the_iterations_it_ran(self, tmp_path, capsys):
        # the releaser's step is so large that its loss leaves the ceiling
        # at iteration 1
        cfg = small_train_config(tmp_path, lr_releaser=1e6)
        log = tmp_path / "train_log.txt"
        log.write_text("old\n")
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
        assert_one_line_error(capsys, "runtime failure: releaser loss diverged at iteration 1:")
        lines = log.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("iteration=0 ")
        assert sorted(os.listdir(tmp_path)) == ["train.json", "train_log.txt"]

    @pytest.mark.parametrize("error", [RuntimeError("crash"), KeyboardInterrupt()],
                             ids=["crash", "interrupt"])
    def test_crash_leaves_the_previous_log(self, tmp_path, monkeypatch, error):
        def train_then_fail(*args, log_stream, **kwargs):
            log_stream.write("iteration=0 adversary_loss=0.1 releaser_loss=0.2 ne=0.3\n")
            raise error

        monkeypatch.setattr("alphaprivacy.cli.train", train_then_fail)
        cfg = small_train_config(tmp_path)
        log = tmp_path / "train_log.txt"
        log.write_text("old\n")
        argv = ["train", "--config", str(cfg), "--out-dir", str(tmp_path)]
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 3
        assert log.read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["train.json", "train_log.txt"]


class TestNonUtf8Input:
    @pytest.mark.parametrize("command, flag", [
        ("measures", "--joint"), ("plot", "--results"), ("optimize", "--world"),
        ("train", "--config"), ("sweep", "--config"),
    ])
    def test_is_a_one_line_data_error(self, tmp_path, capsys, command, flag):
        path = tmp_path / "input.json"
        path.write_bytes(b'{"axes": "\xff"}')
        assert main([command, flag, str(path), "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", str(path), "not UTF-8")


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
        ("lambda_grid", [0.0, float("inf")]), ("lambda_grid", None), ("alpha_grid", "1.0"),
        ("alpha_grid", [0.0]), ("alpha_grid", None), ("alpha_grid", {}),
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


class TestSeedsAndDataSettings:
    def test_train_rejects_negative_seed(self, tmp_path, capsys):
        cfg = sweep_config_file(tmp_path)
        assert main(["train", "--config", str(cfg), "--seed", "-1",
                     "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", "seed", "-1")

    def test_optimize_rejects_negative_seed(self, tmp_path, capsys):
        path = tmp_path / "world.json"
        path.write_text(json.dumps(WORLD))
        assert main(["optimize", "--world", str(path), "--seed", "-1",
                     "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", "seed", "-1")

    @pytest.mark.parametrize("field, value", [
        ("seed", -2), ("seed", 1.5), ("load_noise", "abc"), ("separation", float("nan")),
        ("class_bias", float("inf")),
    ])
    def test_bad_data_settings_are_one_line_data_errors(self, tmp_path, capsys, field, value):
        data = {**SWEEP_CONFIG["data"], field: value}
        cfg = sweep_config_file(tmp_path, data=data)  # json writes NaN as a token
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", field)
        assert not (tmp_path / "results.json").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_hyper_horizon_that_conflicts_with_the_data_is_a_data_error(self, tmp_path, capsys,
                                                                        command):
        cfg = sweep_config_file(
            tmp_path,
            hyper={"num_steps": 4, "iterations": 2, "batch_size": 8},
            data={"generator": "markov_load", "num_steps": 24, "total": 40},
            distortion={"kind": "ts_l2"},
        )
        assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", "hyper.num_steps is 4",
                              "data.num_steps is 24")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]

    @pytest.mark.parametrize("hyper", [{}, {"num_steps": 24}])
    def test_hyper_horizon_is_the_data_horizon(self, hyper):
        args = Namespace(si=False, utility_net=False, seed=None)
        config = {"hyper": hyper, "data": {"generator": "markov_load", "num_steps": 24}}
        _, hyper_params, *_ = _build_run_pieces(args, config)
        assert hyper_params == HyperParams(num_steps=24)


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
        ("ne", float("inf")), ("alpha", float("nan")),  # json writes Infinity and NaN
        ("alpha", float("-inf")), ("lam", float("inf")), ("lam", float("nan")),
        ("attacker_balanced_accuracy", float("inf")), ("utility_accuracy", float("-inf")),
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
        # the package is importable from the source tree, installed or not
        src = str(pathlib.Path(__file__).parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "alphaprivacy", "no-such-command"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 1
        assert "usage error" in proc.stderr


def real_fields(cls):
    return [f.name for f in fields(cls) if f.type in (float, "float")]


# every real-valued setting of a run config, with the config section it lives in
REAL_SETTINGS = (
    [("hyper", name) for name in real_fields(HyperParams)]
    + [("data", name) for name in real_fields(SynthConfig)]
    + [("distortion", name) for name in real_fields(DistortionSpec)]
)


# every settable value of the four config dataclasses; a new field fails
# the pin below until it is declared here
CONFIG_FIELDS = {
    HyperParams: (
        "alpha", "lam", "batch_size", "adversary_steps", "iterations", "num_steps",
        "lr_releaser", "lr_adversary", "lr_decay", "average_tail", "momentum", "seed",
        "observed_mode",
    ),
    SynthConfig: (
        "generator", "total", "num_steps", "d_y", "noise_dim", "seed", "num_classes",
        "separation", "class_bias", "stay_prob", "occupancy_bump", "load_noise",
        "si_correlation",
    ),
    DistortionSpec: ("kind", "p"),
    ChannelOptConfig: ("alpha", "lam", "step_size", "max_iters", "restarts"),
}

# settings that are constants of the code, one per (config section, key)
REMOVED_SETTINGS = [
    ("hyper", "hidden_releaser", 16), ("hyper", "hidden_adversary", 16),
    ("hyper", "hidden_utility", 16), ("hyper", "lr_utility", 0.05),
    ("hyper", "attacker_iterations", 2), ("distortion", "utility_weight", 1.0),
    ("data", "class_spread", 3.0), ("data", "cluster_scale", 1.0),
    ("data", "base_load", 1.0),
]


class TestRunConfigTypes:
    def test_config_surface_is_pinned(self):
        got = {cls: tuple(f.name for f in fields(cls)) for cls in CONFIG_FIELDS}
        assert got == CONFIG_FIELDS
        assert sum(map(len, got.values())) == 33

    @pytest.mark.parametrize("section, key, value", REMOVED_SETTINGS)
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_removed_setting_is_a_one_line_data_error(self, tmp_path, capsys, section, key,
                                                      value, command):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        config["hyper"]["iterations"] = 2
        config.setdefault(section, {})[key] = value
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", key)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_every_real_setting_is_listed(self):
        assert len(REAL_SETTINGS) == 14
        assert ("hyper", "alpha") in REAL_SETTINGS and ("distortion", "p") in REAL_SETTINGS

    @pytest.mark.parametrize("section, field", REAL_SETTINGS)
    @pytest.mark.parametrize("value", ["2", True, 10**400])
    def test_mistyped_real_is_a_one_line_data_error(self, tmp_path, capsys, section, field,
                                                    value):
        config = json.loads(json.dumps(SWEEP_CONFIG))
        config.setdefault(section, {})[field] = value
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", f"{field} must be a finite number")
        assert not (tmp_path / "system.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("si", "false"), ("si", 1), ("si", None), ("utility_net", "no"), ("utility_net", 0),
        ("hyper", "ab"), ("hyper", [["lam", 1]]), ("data", None), ("distortion", "p_norm"),
    ])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_mistyped_flag_or_section_is_a_one_line_data_error(self, tmp_path, capsys, key,
                                                                value, command):
        cfg = sweep_config_file(tmp_path, **{key: value})
        assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert_one_line_error(capsys, "data error: ", f"config: {key} must be")

    @pytest.mark.parametrize("config, si, utility", [
        ({}, False, False), ({"si": True}, True, False), ({"si": False}, False, False),
        ({"utility_net": True, "si": False}, False, True),
    ])
    def test_flags_are_json_booleans_and_absent_means_false(self, config, si, utility):
        args = Namespace(si=False, utility_net=False, seed=None)
        *_, si_enabled, utility_enabled = _build_run_pieces(args, config)
        assert (si_enabled, utility_enabled) == (si, utility)

    def test_command_line_flags_still_switch_on(self):
        args = Namespace(si=True, utility_net=True, seed=None)
        *_, si_enabled, utility_enabled = _build_run_pieces(args, {"si": False})
        assert si_enabled is True and utility_enabled is True

    def test_absent_distortion_follows_the_utility_flag(self):
        args = Namespace(si=False, utility_net=False, seed=None)
        _, _, spec, _, _ = _build_run_pieces(args, {"utility_net": True})
        assert spec.kind == "composite_img"
        _, _, spec, _, _ = _build_run_pieces(args, {"utility_net": True, "distortion": {}})
        assert spec.kind == "p_norm"
