"""Command-line entry point.

Subcommands: ``measures`` (exact information measures of a stored joint),
``optimize`` (exact channel optimizer), ``train`` (one adversarial run),
``sweep`` (privacy-utility grid) and ``plot`` (SVG/CSV curves from sweep
results).  All outputs are plain text (JSON/CSV/SVG) written atomically.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime failure
(including any unexpected exception, reported as one line).
Failed sweep points are recorded in the results, not an exit condition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import partial

import numpy as np

from .channel import ChannelOptConfig, WorldModel, expected_distortion, optimize_channel
from .datasets import BatchStream, SynthConfig, train_eval_split
from .errors import DataFormatError, DivergenceError, ValidationError, check_count, is_count
from .fileio import atomic_text_writer, read_json, write_text_atomic
from .losses import DistortionSpec
from .measures import (
    JointPmf,
    alpha_mutual_information,
    arimoto_conditional_entropy,
    conditional_alpha_mi_given_s,
    renyi_entropy,
)
from .metrics import normalized_error
from .plotting import curves_csv, tradeoff_svg
from .sweep import default_distortion, load_results, save_results, sweep
from .training import HyperParams, train

OUT_DIR_ENV = "ALPHAPRIVACY_OUT_DIR"
DEFAULT_ALPHAS = (0.9, 1.0, 3.0)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _float_list(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated list of numbers, got {text!r}")
    if not values:
        raise UsageError(f"empty list: {text!r}")
    return values


def _out_dir(args):
    out = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _load_joint(path):
    doc = read_json(path)
    try:
        axes = tuple(doc["axes"])
        shape = tuple(check_count(f"shape[{i}]", n) for i, n in enumerate(doc["shape"]))
        probs = np.asarray(doc["probs"], dtype=np.float64).reshape(shape)
        return JointPmf(probs, axes)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad joint document ({exc})") from None


# --- subcommands ---------------------------------------------------------


def cmd_measures(args):
    joint = _load_joint(args.joint)
    if "X" not in joint.axis_labels or "Z" not in joint.axis_labels:
        raise ValidationError("joint must carry axes X and Z")
    has_si = "S" in joint.axis_labels
    alphas = _float_list(args.alpha) if args.alpha else list(DEFAULT_ALPHAS)
    xz = joint.marginal(("X", "Z")) if has_si else joint
    # (header, record key, measure of alpha), one per table column
    columns = [
        ("H_a(X)", "renyi_entropy_x", partial(renyi_entropy, joint.marginal(("X",)))),
        ("H_a(X|Z)", "conditional_entropy_x_given_z", partial(arimoto_conditional_entropy, xz)),
        ("I_a(X;Z)", "mutual_information_x_z", partial(alpha_mutual_information, xz)),
    ]
    if has_si:
        columns.append(("I_a(X;Z|S)", "mutual_information_x_z_given_s",
                        partial(conditional_alpha_mi_given_s, joint)))
    records = [{"alpha": alpha, **{key: measure(alpha) for _, key, measure in columns}}
               for alpha in alphas]
    print("  ".join(f"{h:>12}" for h in ["alpha"] + [h for h, _, _ in columns]))
    for rec in records:
        print("  ".join([f"{rec['alpha']:>12g}"] + [f"{rec[key]:>12.6f}" for _, key, _ in columns]))
    out = os.path.join(_out_dir(args), "measures.json")
    write_text_atomic(out, json.dumps({"joint": args.joint, "measures": records}, indent=2))
    print(f"wrote {out}")
    return 0


def cmd_optimize(args):
    world = WorldModel.from_json(args.world)
    cfg = ChannelOptConfig(
        alpha=args.alpha_value,
        lam=args.lam,
        step_size=args.step_size,
        max_iters=args.max_iters,
    )
    result = optimize_channel(world, cfg, seed=args.seed)
    objective = result.trace[-1]
    doc = {
        "alpha": cfg.alpha,
        "lambda": cfg.lam,
        "seed": args.seed,
        "converged": result.converged,
        "objective": objective,
        "expected_distortion": expected_distortion(world, result.channel),
        "channel": result.channel.probs.tolist(),
        "trace": result.trace,
    }
    out = os.path.join(_out_dir(args), "channel.json")
    write_text_atomic(out, json.dumps(doc, indent=2))
    status = "converged" if result.converged else "hit max_iters"
    print(
        f"objective {objective:.6f} (E[d] {doc['expected_distortion']:.6f}) "
        f"after {len(result.trace) - 1} steps, {status}"
    )
    print(f"wrote {out}")
    return 0


def _config_from_file(args):
    config = read_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise DataFormatError(f"{args.config}: expected a JSON object")
    return config


_CONFIG_KINDS = {bool: "true or false", dict: "a JSON object", list: "a non-empty list of numbers"}


def _config_entry(config, key, kind, default=None):
    """``config[key]``, or ``default`` when the key is absent; a value that
    is not a ``kind``, or is an empty list, is a data error naming ``key``.
    A grid's numbers are checked by :func:`sweep`."""
    if key not in config:
        return default
    value = config[key]
    if not isinstance(value, kind) or value == []:
        raise DataFormatError(f"config: {key} must be {_CONFIG_KINDS[kind]}, got {value!r}")
    return value


def _build_run_pieces(args, config):
    si_enabled = _config_entry(config, "si", bool, False) or args.si
    utility_enabled = _config_entry(config, "utility_net", bool, False) or args.utility_net
    distortion = _config_entry(config, "distortion", dict, None)
    try:
        data_cfg = SynthConfig(**_config_entry(config, "data", dict, {}))
        hyper_doc = dict(_config_entry(config, "hyper", dict, {}))
        if args.seed is not None:
            hyper_doc["seed"] = args.seed
        hyper_doc.setdefault("num_steps", data_cfg.num_steps)
        hyper = HyperParams(**hyper_doc)
        spec = (
            DistortionSpec(**distortion)
            if distortion is not None
            else default_distortion(utility_enabled)
        )
    except TypeError as exc:
        raise DataFormatError(f"config: {exc}") from None
    if hyper.num_steps != data_cfg.num_steps:
        raise ValidationError(f"config: hyper.num_steps is {hyper.num_steps} but "
                              f"data.num_steps is {data_cfg.num_steps}")
    return data_cfg, hyper, spec, si_enabled, utility_enabled


def cmd_train(args):
    config = _config_from_file(args)
    data_cfg, hyper, spec, si_enabled, utility_enabled = _build_run_pieces(args, config)
    out_dir = _out_dir(args)
    train_data, eval_data = train_eval_split(data_cfg)
    log_path = os.path.join(out_dir, "train_log.txt")
    with atomic_text_writer(log_path) as log_stream:
        try:
            system = train(
                hyper,
                BatchStream(train_data, hyper.seed),
                spec,
                si_enabled=si_enabled,
                utility_enabled=utility_enabled,
                log_stream=log_stream,
            )
        except DivergenceError as exc:  # its log keeps the iterations it ran
            system = exc
    if isinstance(system, DivergenceError):
        raise system
    checkpoint = os.path.join(out_dir, "system.json")
    system.to_json(checkpoint)
    ne = normalized_error(system.release(eval_data), eval_data.y)
    print(f"final releaser loss {system.releaser_history[-1]:.6f}, held-out NE {ne:.6f}")
    print(f"wrote {checkpoint} and {log_path}")
    return 0


def _points_csv(points):
    lines = ["alpha,lambda,ne,attacker_balanced_accuracy,utility_accuracy,seed,failed"]
    for p in points:
        utility = "" if p.utility_accuracy is None else repr(float(p.utility_accuracy))
        lines.append(
            f"{p.alpha!r},{p.lam!r},{p.ne!r},{p.attacker_balanced_accuracy!r},"
            f"{utility},{p.seed},{int(p.failed)}"
        )
    return "\n".join(lines) + "\n"


def cmd_sweep(args):
    config = _config_from_file(args)
    data_cfg, hyper, spec, si_enabled, utility_enabled = _build_run_pieces(args, config)
    lambdas = _float_list(args.lambda_grid) if args.lambda_grid else _config_entry(
        config, "lambda_grid", list
    )
    alphas = _float_list(args.alpha) if args.alpha else _config_entry(
        config, "alpha_grid", list, list(DEFAULT_ALPHAS)
    )
    if lambdas is None:
        raise UsageError("sweep needs --lambda-grid or a lambda_grid config entry")
    if args.workers is not None and args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    workers = config.get("workers", 1) if args.workers is None else args.workers
    if not is_count(workers):
        raise DataFormatError(f"config: workers must be an integer >= 1, got {workers!r}")
    out_dir = _out_dir(args)
    points = sweep(
        hyper,
        lambdas,
        alphas,
        data_cfg,
        si_enabled=si_enabled,
        utility_enabled=utility_enabled,
        distortion=spec,
        workers=workers,
    )
    for p in points:
        flag = "  FAILED" if p.failed else ""
        print(
            f"alpha={p.alpha:g} lambda={p.lam:g} ne={p.ne:.4f} "
            f"attacker={p.attacker_balanced_accuracy:.4f}{flag}"
        )
    config_blob = json.dumps(config, sort_keys=True)
    metadata = {
        "config": config,
        "config_sha256": hashlib.sha256(config_blob.encode()).hexdigest(),
        "lambda_grid": sorted(float(v) for v in lambdas),
        "alpha_grid": sorted(float(v) for v in alphas),
        "base_seed": hyper.seed,
        "si": si_enabled,
        "utility_net": utility_enabled,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    results_path = os.path.join(out_dir, "results.json")
    save_results(points, results_path, metadata=metadata)
    write_text_atomic(os.path.join(out_dir, "results.csv"), _points_csv(points))
    failed = sum(p.failed for p in points)
    print(f"wrote {results_path} ({len(points)} points, {failed} failed)")
    return 0


def cmd_plot(args):
    points, _ = load_results(args.results)
    out_dir = _out_dir(args)
    svg_path = os.path.join(out_dir, "put_curves.svg")
    csv_path = os.path.join(out_dir, "put_curves.csv")
    write_text_atomic(svg_path, tradeoff_svg(points))
    write_text_atomic(csv_path, curves_csv(points))
    print(f"wrote {svg_path} and {csv_path}")
    return 0


# --- argument wiring -----------------------------------------------------


def build_parser():
    parser = _Parser(prog="alphaprivacy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="exact alpha-information measures of a joint")
    p.add_argument("--joint", required=True, help="joint distribution JSON")
    p.add_argument("--alpha", help="comma-separated alpha values (default 0.9,1,3)")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_measures)

    defaults = ChannelOptConfig()
    p = sub.add_parser("optimize", help="exact release-channel optimization")
    p.add_argument("--world", required=True, help="world model JSON")
    p.add_argument("--alpha", dest="alpha_value", type=float, default=defaults.alpha)
    p.add_argument("--lambda", dest="lam", type=float, default=defaults.lam)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-size", type=float, default=defaults.step_size,
                   help="start step of the first iteration, and of any iteration "
                        "whose adaptive step is undefined, in log units; later "
                        "start steps are capped at a fixed multiple of it "
                        "(default %(default)g)")
    p.add_argument("--max-iters", type=int, default=defaults.max_iters,
                   help="iterations per restart (default %(default)d)")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("train", help="one adversarial training run")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--si", action="store_true", help="expose side information")
    p.add_argument("--utility-net", action="store_true")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="privacy-utility trade-off grid")
    p.add_argument("--config", help="sweep configuration JSON")
    p.add_argument("--alpha", help="comma-separated alpha grid")
    p.add_argument("--lambda-grid", help="comma-separated lambda grid")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--si", action="store_true")
    p.add_argument("--utility-net", action="store_true")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="render PUT curves from sweep results")
    p.add_argument("--results", required=True, help="results JSON from sweep")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, DataFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect, not a bad input: one line, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
