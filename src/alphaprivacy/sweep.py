"""Privacy-utility trade-off sweeps over the (alpha, lambda) grid.

Each grid point trains a full adversarial system plus a distinct post-hoc
attacker, then reports held-out metrics as a TradeoffPoint.  Points that
diverge during training are kept with a ``failed`` flag instead of being
dropped, since instability at particular (alpha, lambda) combinations is
itself a finding.  The lambda points of one alpha are trained in groups,
each group as one stack of models, and give the same points as separate
runs.  Sweeps are deterministic given the base seed and may fan groups out
over a process pool.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .datasets import BatchStream, SynthConfig, _derive_seed, train_eval_split
from .errors import DataFormatError, DivergenceError, ValidationError, check_real
from .fileio import read_json, write_text_atomic
from .losses import DistortionSpec
from .metrics import balanced_accuracy
# ``train`` and ``train_attacker`` are not called here: they stay importable
# under this module's name, where perfbench's traced run hooks them
from .training import (  # noqa: F401
    HyperParams,
    TrainedSystem,
    evaluate_system,
    train,
    train_attacker,
    train_attacker_group,
    train_group,
)


@dataclass
class TradeoffPoint:
    """One (alpha, lambda) experiment outcome."""

    alpha: float
    lam: float
    ne: float
    attacker_balanced_accuracy: float
    utility_accuracy: Optional[float]
    seed: int
    failed: bool = False
    error: Optional[str] = None


def default_distortion(utility_enabled: bool) -> DistortionSpec:
    if utility_enabled:
        return DistortionSpec("composite_img")
    return DistortionSpec("p_norm", p=2.0)


def _point_seed(base_seed, alpha, lam):
    return _derive_seed(base_seed, f"point:{alpha!r}:{lam!r}")


def run_point(
    base_hyper: HyperParams,
    alpha: float,
    lam: float,
    data_cfg: SynthConfig,
    spec: DistortionSpec,
    si_enabled: bool,
    utility_enabled: bool,
) -> TradeoffPoint:
    """Train, attack and evaluate a single grid point."""
    (point,) = run_group(
        base_hyper, alpha, [lam], data_cfg, spec, si_enabled, utility_enabled
    )
    return point


def run_group(
    base_hyper: HyperParams,
    alpha: float,
    lams,
    data_cfg: SynthConfig,
    spec: DistortionSpec,
    si_enabled: bool,
    utility_enabled: bool,
):
    """The :func:`run_point` outcomes of every lambda in ``lams`` at one
    alpha, trained and attacked as one stack; each point keeps its own
    seeds, and a diverged one fails alone."""
    seeds = [_point_seed(base_hyper.seed, alpha, lam) for lam in lams]
    train_data, eval_data = train_eval_split(data_cfg)
    outcomes = train_group(
        [replace(base_hyper, alpha=alpha, lam=lam, seed=seed) for lam, seed in zip(lams, seeds)],
        [BatchStream(train_data, _derive_seed(seed, "train-stream")) for seed in seeds],
        spec,
        si_enabled=si_enabled,
        utility_enabled=utility_enabled,
    )
    trained = [i for i, o in enumerate(outcomes) if isinstance(o, TrainedSystem)]
    attackers = train_attacker_group(
        [outcomes[i] for i in trained],
        [BatchStream(train_data, _derive_seed(seeds[i], "attacker-stream")) for i in trained],
        si_enabled,
        [_derive_seed(seeds[i], "attacker-init") for i in trained],
    ) if trained else []
    attacker_of = dict(zip(trained, attackers))
    points = []
    for i, (lam, seed) in enumerate(zip(lams, seeds)):
        # a point that failed training has its training error here
        attacker = attacker_of.get(i, outcomes[i])
        if isinstance(attacker, DivergenceError):
            points.append(TradeoffPoint(
                alpha=alpha, lam=lam, ne=float("nan"),
                attacker_balanced_accuracy=float("nan"), utility_accuracy=None,
                seed=seed, failed=True, error=str(attacker),
            ))
            continue
        scores = evaluate_system(outcomes[i], attacker, eval_data, si_enabled)
        points.append(TradeoffPoint(
            alpha=alpha,
            lam=lam,
            ne=scores["ne"],
            attacker_balanced_accuracy=scores["attacker_accuracy"],
            utility_accuracy=scores["utility_accuracy"],
            seed=seed,
        ))
    return points


def _chunks(values, count):
    """``values`` cut into ``count`` contiguous runs whose lengths differ
    by at most one, the longer runs first (never an empty run)."""
    count = min(count, len(values))
    size, extra = divmod(len(values), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


def sweep(
    base_hyper: HyperParams,
    lambdas,
    alphas,
    data_cfg: SynthConfig,
    si_enabled: bool = False,
    utility_enabled: bool = False,
    distortion: Optional[DistortionSpec] = None,
    workers: int = 1,
):
    """All (alpha, lambda) grid points, sorted by (alpha, lambda).

    Each alpha's sorted lambdas are split into ``ceil(workers / len(alphas))``
    near-equal contiguous groups, so that a pool has at least one job per
    worker; each group is one :func:`run_group` job.  With ``workers > 1``
    the jobs run in a process pool and are merged back in grid order.
    """
    lambdas = sorted(float(check_real("lambda_grid entry", v, 0.0)) for v in lambdas)
    alphas = sorted(float(check_real("alpha_grid entry", v, 0.0, strict=True)) for v in alphas)
    if not lambdas or not alphas:
        raise ValidationError("sweep needs non-empty alpha and lambda grids")
    spec = distortion or default_distortion(utility_enabled)
    jobs = [
        (base_hyper, alpha, group, data_cfg, spec, si_enabled, utility_enabled)
        for alpha in alphas
        for group in _chunks(lambdas, max(1, -(-workers // len(alphas))))
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(run_group, *zip(*jobs)))
    else:
        groups = [run_group(*job) for job in jobs]
    return [point for group in groups for point in group]


# --- side-information calibration -------------------------------------------


def si_only_accuracy(train_data, eval_data, num_private=2) -> float:
    """Balanced accuracy of a classifier that sees only the SI symbol.

    Fits the empirical argmax rule x_hat(s) on the training pool and scores
    it on held-out per-step labels.
    """
    if train_data.s is None or eval_data.s is None:
        raise ValidationError("datasets carry no side information")
    train_s = train_data.s[:, 0].astype(np.int64)
    rule = {}
    for sym in np.unique(train_s):
        mask = train_s == sym
        labels = train_data.x[mask].ravel()
        counts = np.bincount(labels, minlength=num_private)
        rule[int(sym)] = int(counts.argmax())
    eval_s = eval_data.s[:, 0].astype(np.int64)
    fallback = int(np.bincount(train_data.x.ravel(), minlength=num_private).argmax())
    preds_per_seq = np.array([rule.get(int(sym), fallback) for sym in eval_s])
    preds = np.repeat(preds_per_seq[:, None], eval_data.num_steps, axis=1)
    return balanced_accuracy(preds.ravel(), eval_data.x.ravel(), num_private)


def measure_si_floor(data_cfg: SynthConfig) -> float:
    train_data, eval_data = train_eval_split(data_cfg)
    num_private = int(max(train_data.x.max(), eval_data.x.max())) + 1
    return si_only_accuracy(train_data, eval_data, num_private)


def calibrate_si_correlation(
    data_cfg: SynthConfig, target: float, tol: float = 0.005, max_rounds: int = 25
) -> SynthConfig:
    """Bisection on ``si_correlation`` until the SI-only classifier's
    balanced accuracy hits ``target`` within ``tol``.

    The accuracy is monotone in the correlation, 0.5 at zero; an
    unreachable target raises instead of silently under-delivering.
    """
    if data_cfg.generator != "markov_load":
        raise ValidationError("SI calibration applies to the markov_load generator")
    lo, hi = 0.0, 1.0
    top = measure_si_floor(replace(data_cfg, si_correlation=hi))
    if target > top + tol:
        raise ValidationError(
            f"target {target} is above the reachable SI accuracy {top:.3f}"
        )
    best_cfg, best_gap = data_cfg, float("inf")
    for _ in range(max_rounds):
        mid = 0.5 * (lo + hi)
        cfg = replace(data_cfg, si_correlation=mid)
        acc = measure_si_floor(cfg)
        gap = abs(acc - target)
        if gap < best_gap:
            best_cfg, best_gap = cfg, gap
        if gap <= tol:
            return cfg
        if acc < target:
            lo = mid
        else:
            hi = mid
    if best_gap <= 2 * tol:
        return best_cfg
    raise ValidationError(
        f"calibration did not reach {target} within {max_rounds} rounds "
        f"(best gap {best_gap:.4f})"
    )


# --- results persistence -----------------------------------------------------


# scores a failed point holds as NaN, stored as JSON null
_NULLABLE_SCORES = ("ne", "attacker_balanced_accuracy")


def save_results(points, path, metadata=None):
    """Write the sweep outcome as JSON, atomically (temp file + rename).

    A failed point's NaN scores are written as ``null``, not as the
    non-standard ``NaN`` token."""
    records = [asdict(p) for p in points]
    for rec in records:
        for key in _NULLABLE_SCORES:
            if math.isnan(rec[key]):
                rec[key] = None
    doc = {"metadata": metadata or {}, "points": records}
    write_text_atomic(path, json.dumps(doc, indent=2, allow_nan=True))


def _real(value):
    return isinstance(value, Real) and not isinstance(value, bool)


def _real_or_null(value):
    return value is None or _real(value)


# the JSON type each stored point field must have: (description, rule)
_FIELD_TYPES = {
    "alpha": ("a number", _real),
    "lam": ("a number", _real),
    "ne": ("a number or null", _real_or_null),
    "attacker_balanced_accuracy": ("a number or null", _real_or_null),
    "utility_accuracy": ("a number or null", _real_or_null),
    # is_count's rule, but from 0: a derived seed may be 0
    "seed": ("an integer >= 0",
             lambda v: isinstance(v, Integral) and not isinstance(v, bool) and v >= 0),
    "failed": ("true or false", lambda v: isinstance(v, bool)),
    "error": ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def load_results(path):
    """Read what :func:`save_results` wrote; a document that is not a
    ``points`` list of complete, well-typed point records is a
    DataFormatError."""
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise DataFormatError(f"{path}: expected an object with a 'points' list")
    points = []
    for i, rec in enumerate(doc["points"]):
        try:
            point = TradeoffPoint(**rec)
        except TypeError as exc:
            raise DataFormatError(f"{path}: point {i}: {exc}") from None
        for name, (kind, rule) in _FIELD_TYPES.items():
            value = getattr(point, name)
            if not rule(value):
                raise DataFormatError(f"{path}: point {i}: {name} must be {kind}, got {value!r}")
        for key in _NULLABLE_SCORES:
            if getattr(point, key) is None:
                setattr(point, key, float("nan"))
        points.append(point)
    return points, doc.get("metadata", {})
