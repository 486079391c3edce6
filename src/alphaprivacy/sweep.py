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
import os
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .datasets import BatchStream, SynthConfig, _derive_seed, train_eval_split
from .errors import DataFormatError, DivergenceError, ValidationError, check_real, is_count, is_finite
from .fileio import read_json, write_text_atomic
from .losses import DistortionSpec
from .measures import check_alpha
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
    seeds, and a diverged one fails alone.

    A lambda = 0 point trains no adversary (see :func:`train_group`), so
    it fails only through its releaser or its attacker.

    The private alphabet, and the utility one when the utility network is
    on, is the training split's, so an evaluation label beyond it is a
    ValidationError, raised before any point trains."""
    seeds = [_point_seed(base_hyper.seed, alpha, lam) for lam in lams]
    train_data, eval_data = train_eval_split(data_cfg)
    alphabets = [("private", train_data.x, eval_data.x)]
    if utility_enabled and train_data.c is not None:
        alphabets.append(("utility", train_data.c, eval_data.c))
    for kind, train_labels, eval_labels in alphabets:
        size = int(train_labels.max()) + 1
        missing = sorted(set(eval_labels[eval_labels >= size].tolist()))
        if missing:
            raise ValidationError(
                f"the evaluation split holds {kind} label {', '.join(map(str, missing))}, "
                f"which the training split lacks; "
                f"the training split sets the {kind} alphabet to [0, {size})"
            )
    outcomes = train_group(
        [replace(base_hyper, alpha=alpha, lam=lam, seed=seed) for lam, seed in zip(lams, seeds)],
        [BatchStream(train_data, _derive_seed(seed, "train-stream")) for seed in seeds],
        spec, si_enabled, utility_enabled,
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


def _usable_cores():
    """The CPUs this process may run on (all of them where the platform
    cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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

    ``workers`` is first capped at the number of usable cores, since
    workers beyond them cannot run at once.  Each alpha's sorted lambdas
    are then split into ``ceil(workers / len(alphas))`` near-equal
    contiguous groups, so that a pool has at least one job per worker;
    each group is one :func:`run_group` job, and every job checks the
    data's split before it trains.  With ``workers > 1`` the jobs run in a
    process pool of at most one worker per job and are merged back in grid
    order.  The points do not depend on ``workers``.
    """
    lambdas = sorted(float(check_real("lambda_grid entry", v, 0.0)) for v in lambdas)
    alphas = sorted(check_alpha(v, "alpha_grid entry") for v in alphas)
    if not lambdas or not alphas:
        raise ValidationError("sweep needs non-empty alpha and lambda grids")
    spec = distortion or default_distortion(utility_enabled)
    workers = min(workers, _usable_cores())
    jobs = [
        (base_hyper, alpha, group, data_cfg, spec, si_enabled, utility_enabled)
        for alpha in alphas
        for group in _chunks(lambdas, max(1, -(-workers // len(alphas))))
    ]
    if workers > 1:
        # imported here, not at the top: every set-up and CLI command
        # imports this module, and a sequential sweep never needs the pool
        from concurrent.futures import ProcessPoolExecutor
        # fork starts every worker at the first submit, needed or not
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            groups = list(pool.map(run_group, *zip(*jobs)))
    else:
        groups = [run_group(*job) for job in jobs]
    return [point for group in groups for point in group]


# --- side-information calibration -------------------------------------------

SI_CALIBRATION_ROUNDS = 25


def si_only_accuracy(train_data, eval_data) -> float:
    """Balanced accuracy of a classifier that sees only the SI symbol.

    Fits the empirical argmax rule x_hat(s) on the training pool and scores
    it on held-out per-step labels; a symbol the pool never shows gets the
    pool's overall argmax.  The private alphabet is the pool's, as the
    adversary's is, so a held-out label beyond it is a ValidationError.
    """
    if train_data.s is None or eval_data.s is None:
        raise ValidationError("datasets carry no side information")
    symbols = np.concatenate([train_data.s[:, 0], eval_data.s[:, 0]]).astype(np.int64)
    _, index = np.unique(symbols, return_inverse=True)
    train_s, eval_s = index[:train_data.size], index[train_data.size:]
    counts = np.zeros((index.max() + 1, train_data.x.max() + 1), dtype=np.int64)
    np.add.at(counts, (train_s[:, None], train_data.x), 1)  # (symbol, label) pairs
    rule = np.where(counts.any(axis=1), counts.argmax(axis=1), counts.sum(axis=0).argmax())
    preds = np.repeat(rule[eval_s][:, None], eval_data.num_steps, axis=1)
    return balanced_accuracy(preds.ravel(), eval_data.x.ravel(), counts.shape[1])


def measure_si_floor(data_cfg: SynthConfig) -> float:
    return si_only_accuracy(*train_eval_split(data_cfg))


def calibrate_si_correlation(
    data_cfg: SynthConfig, target: float, tol: float = 0.005
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
    for _ in range(SI_CALIBRATION_ROUNDS):
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
        f"calibration did not reach {target} within {SI_CALIBRATION_ROUNDS} rounds "
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


def _score(value):
    """A stored score: a finite number, or a missing one, which is null or,
    in files written before scores were nulled, NaN (plotting skips both)."""
    return value is None or is_finite(value) or (isinstance(value, float) and math.isnan(value))


# the JSON type each stored point field must have: (description, rule)
_FIELD_TYPES = {
    "alpha": ("a finite number", is_finite),
    "lam": ("a finite number", is_finite),
    "ne": ("a finite number, NaN or null", _score),
    "attacker_balanced_accuracy": ("a finite number, NaN or null", _score),
    "utility_accuracy": ("a finite number, NaN or null", _score),
    # from 0: a derived seed may be 0
    "seed": ("an integer >= 0", lambda v: is_count(v, 0)),
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
