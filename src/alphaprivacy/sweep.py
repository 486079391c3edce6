"""Privacy-utility trade-off sweeps over the (alpha, lambda) grid.

Each grid point trains a full adversarial system plus a distinct post-hoc
attacker, then reports held-out metrics as a TradeoffPoint.  Points that
diverge during training are kept with a ``failed`` flag instead of being
dropped, since instability at particular (alpha, lambda) combinations is
itself a finding.  Sweeps are deterministic given the base seed and may
fan points out over a process pool.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .datasets import BatchStream, SynthConfig, _derive_seed, train_eval_split
from .errors import DataFormatError, DivergenceError, ValidationError, check_real
from .fileio import read_json, write_text_atomic
from .losses import DistortionSpec
from .metrics import balanced_accuracy
from .training import HyperParams, evaluate_system, train, train_attacker


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
    seed = _point_seed(base_hyper.seed, alpha, lam)
    hyper = replace(base_hyper, alpha=alpha, lam=lam, seed=seed)
    train_data, eval_data = train_eval_split(data_cfg)
    try:
        system = train(
            hyper,
            BatchStream(train_data, _derive_seed(seed, "train-stream")),
            spec,
            si_enabled=si_enabled,
            utility_enabled=utility_enabled,
        )
        attacker = train_attacker(
            system,
            BatchStream(train_data, _derive_seed(seed, "attacker-stream")),
            si_enabled,
            _derive_seed(seed, "attacker-init"),
        )
    except DivergenceError as exc:
        return TradeoffPoint(
            alpha=alpha, lam=lam, ne=float("nan"),
            attacker_balanced_accuracy=float("nan"), utility_accuracy=None,
            seed=seed, failed=True, error=str(exc),
        )
    scores = evaluate_system(system, attacker, eval_data, si_enabled)
    return TradeoffPoint(
        alpha=alpha,
        lam=lam,
        ne=scores["ne"],
        attacker_balanced_accuracy=scores["attacker_accuracy"],
        utility_accuracy=scores["utility_accuracy"],
        seed=seed,
    )


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

    Points are independent jobs; with ``workers > 1`` they run in a process
    pool and are merged back in grid order.
    """
    lambdas = sorted(float(check_real("lambda_grid entry", v, 0.0)) for v in lambdas)
    alphas = sorted(float(check_real("alpha_grid entry", v, 0.0, strict=True)) for v in alphas)
    if not lambdas or not alphas:
        raise ValidationError("sweep needs non-empty alpha and lambda grids")
    spec = distortion or default_distortion(utility_enabled)
    jobs = [
        (base_hyper, alpha, lam, data_cfg, spec, si_enabled, utility_enabled)
        for alpha in alphas
        for lam in lambdas
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_point, *zip(*jobs)))
    return [run_point(*job) for job in jobs]


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


def load_results(path):
    """Read what :func:`save_results` wrote; a document that is not a
    ``points`` list of complete point records is a DataFormatError."""
    doc = read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise DataFormatError(f"{path}: expected an object with a 'points' list")
    points = []
    for i, rec in enumerate(doc["points"]):
        try:
            point = TradeoffPoint(**rec)
        except TypeError as exc:
            raise DataFormatError(f"{path}: point {i}: {exc}") from None
        for key in _NULLABLE_SCORES:
            if getattr(point, key) is None:
                setattr(point, key, float("nan"))
        points.append(point)
    return points, doc.get("metadata", {})
