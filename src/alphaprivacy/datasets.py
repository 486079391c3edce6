"""Synthetic data generation and batch containers.

Two generators mirror the experiment shapes this project targets:

* ``labeled_clusters`` — static (T = 1) Gaussian clusters with a utility
  class label and a binary private attribute that shifts the cluster mean
  along a fixed direction; the analogue of an annotated image corpus.
* ``markov_load`` — a binary occupancy Markov chain driving a load signal
  over T steps, with a categorical side-information symbol correlated with
  the sequence's dominant occupancy state; the analogue of metered power
  data with calendar side information.

Both are fully determined by their seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ValidationError, check_count, check_real

# radius of the circle the labeled_clusters class means sit on
CLASS_SPREAD = 3.0

# share of a config's samples that train_eval_split holds out
EVAL_FRACTION = 0.2


@dataclass
class DatasetBatch:
    """Aligned sample arrays: useful data ``y`` (B, T, d_y), private labels
    ``x`` (B, T), input noise ``u`` (B, T, d_u), optional side information
    ``s`` (B, d_s) and optional utility labels ``c`` (B,)."""

    y: np.ndarray
    x: np.ndarray
    u: np.ndarray
    s: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.x = np.asarray(self.x, dtype=np.int64)
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.y.ndim != 3 or self.x.ndim != 2 or self.u.ndim != 3:
            raise ValidationError(
                f"batch shapes must be y (B,T,d), x (B,T), u (B,T,d): got "
                f"{self.y.shape}, {self.x.shape}, {self.u.shape}"
            )
        nbatch, nsteps = self.y.shape[0], self.y.shape[1]
        if self.x.shape != (nbatch, nsteps) or self.u.shape[:2] != (nbatch, nsteps):
            raise ValidationError("inconsistent batch/time dimensions across fields")
        if self.x.min(initial=0) < 0:
            raise ValidationError("private labels must be non-negative integers")
        if self.u.size and (self.u.min() < 0.0 or self.u.max() > 1.0):
            raise ValidationError("noise entries must lie in [0, 1]")
        if self.s is not None:
            self.s = np.asarray(self.s, dtype=np.float64)
            if self.s.ndim != 2 or self.s.shape[0] != nbatch:
                raise ValidationError(f"side information must be (B, d_s), got {self.s.shape}")
        if self.c is not None:
            self.c = np.asarray(self.c, dtype=np.int64)
            if self.c.shape != (nbatch,):
                raise ValidationError(f"utility labels must be (B,), got {self.c.shape}")

    @property
    def size(self):
        return self.y.shape[0]

    @property
    def num_steps(self):
        return self.y.shape[1]

    def take(self, idx):
        """The rows at ``idx``, an integer array whose shape leads every
        field's: a sub-batch for 1-D indices, a stack of sub-batches (a
        leading model axis) for a 2-D block.

        Rows of a validated batch are valid, so the result is built
        without re-running ``__post_init__``.
        """
        sub = object.__new__(DatasetBatch)
        for name in ("y", "x", "u", "s", "c"):
            rows = getattr(self, name)
            setattr(sub, name, None if rows is None else rows.take(idx, axis=0))
        return sub


class BatchStream:
    """Draws fresh mini-batches from a dataset with its own RNG stream."""

    def __init__(self, data: DatasetBatch, seed: int):
        self.data = data
        self.rng = np.random.default_rng(seed)

    def draw(self, nbatch: int, count: int = 1) -> np.ndarray:
        """Row indices into ``data`` of ``count`` successive mini-batches of
        ``nbatch`` rows, concatenated; ``data.take`` gathers the rows.

        Each mini-batch is sampled without replacement by its own RNG call,
        so the indices equal those of ``count`` separate ``draw(nbatch)``
        calls.
        """
        if nbatch < 1 or nbatch > self.data.size:
            raise ValidationError(
                f"cannot draw {nbatch} samples from a pool of {self.data.size}"
            )
        if count < 1:
            raise ValidationError(f"count must be >= 1, got {count}")
        return np.concatenate([self.rng.choice(self.data.size, size=nbatch, replace=False)
                               for _ in range(count)])


@dataclass
class SynthConfig:
    """Knobs for the synthetic generators; unused fields are ignored by the
    generator that does not own them."""

    generator: str = "labeled_clusters"
    total: int = 2048
    num_steps: int = 1
    d_y: int = 3
    noise_dim: int = 1
    seed: int = 0
    # labeled_clusters
    num_classes: int = 4
    separation: float = 4.0
    class_bias: float = 0.1
    # markov_load
    stay_prob: float = 0.8
    occupancy_bump: float = 1.0
    load_noise: float = 0.25
    si_correlation: float = 0.0

    def __post_init__(self):
        if self.generator not in ("labeled_clusters", "markov_load"):
            raise ValidationError(f"unknown generator {self.generator!r}")
        for name in ("total", "num_steps", "d_y", "noise_dim", "num_classes"):
            check_count(name, getattr(self, name))
        check_count("seed", self.seed, 0)
        # stay_prob is bounded by the generator that uses it
        for name in ("class_bias", "stay_prob", "occupancy_bump", "load_noise"):
            check_real(name, getattr(self, name))
        check_real("separation", self.separation, 0.0)
        if not 0.0 <= check_real("si_correlation", self.si_correlation) <= 1.0:
            raise ValidationError("si_correlation must lie in [0, 1]")


def generate(cfg: SynthConfig) -> DatasetBatch:
    if cfg.generator == "labeled_clusters":
        return gen_labeled_clusters(cfg)
    return gen_markov_load(cfg)


def _class_means(cfg):
    """Base mean per utility class, spread over the leading coordinates."""
    means = np.zeros((cfg.num_classes, cfg.d_y))
    angles = 2.0 * np.pi * np.arange(cfg.num_classes) / cfg.num_classes
    means[:, 0] = CLASS_SPREAD * np.cos(angles)
    if cfg.d_y > 1:
        means[:, 1] = CLASS_SPREAD * np.sin(angles)
    return means


def _private_shift(cfg):
    """Mean shift of the private bit: total length ``separation``, spread
    with geometrically decaying strength over the trailing coordinates so
    the private signal has strong and subtle components rather than a
    single knife-edge direction."""
    width = min(3, cfg.d_y)
    weights = 0.5 ** np.arange(width)[::-1]  # weakest first
    shift = np.zeros(cfg.d_y)
    shift[cfg.d_y - width :] = weights / np.linalg.norm(weights) * cfg.separation
    return shift


def gen_labeled_clusters(cfg: SynthConfig) -> DatasetBatch:
    """Static Gaussian clusters: utility class drawn uniformly, private bit
    with a class-dependent bias, emission mean depending on both."""
    if cfg.generator != "labeled_clusters":
        raise ValidationError("config is not for labeled_clusters")
    rng = np.random.default_rng(cfg.seed)
    n = cfg.total
    c = rng.integers(0, cfg.num_classes, size=n)
    # odd classes tilt towards X = 1, even classes away
    p_one = np.clip(0.5 + cfg.class_bias * np.where(c % 2 == 1, 1.0, -1.0), 0.0, 1.0)
    x = (rng.random(n) < p_one).astype(np.int64)
    means = _class_means(cfg)[c]
    y = (
        means
        + x[:, None] * _private_shift(cfg)
        + rng.normal(size=(n, cfg.d_y))
    )
    u = rng.random((n, 1, cfg.noise_dim))
    return DatasetBatch(y=y[:, None, :], x=x[:, None], u=u, s=None, c=c)


def gen_markov_load(cfg: SynthConfig) -> DatasetBatch:
    """Binary occupancy chain emitting a noisy load level, plus a binary
    side-information symbol tied to the dominant occupancy state."""
    if cfg.generator != "markov_load":
        raise ValidationError("config is not for markov_load")
    if not 0.0 <= cfg.stay_prob <= 1.0:
        raise ValidationError("stay_prob must lie in [0, 1] (invalid transition matrix)")
    rng = np.random.default_rng(cfg.seed)
    n, nsteps = cfg.total, cfg.num_steps
    x = np.empty((n, nsteps), dtype=np.int64)
    x[:, 0] = rng.integers(0, 2, size=n)
    for t in range(1, nsteps):
        stay = rng.random(n) < cfg.stay_prob
        x[:, t] = np.where(stay, x[:, t - 1], 1 - x[:, t - 1])
    y = (
        1.0
        + cfg.occupancy_bump * x[:, :, None]
        + cfg.load_noise * rng.normal(size=(n, nsteps, cfg.d_y))
    )
    majority = (x.mean(axis=1) > 0.5).astype(np.int64)
    honest = rng.random(n) < (1.0 + cfg.si_correlation) / 2.0
    s = np.where(honest, majority, 1 - majority).astype(np.float64)[:, None]
    u = rng.random((n, nsteps, cfg.noise_dim))
    return DatasetBatch(y=y, x=x, u=u, s=s, c=None)


def train_eval_split(cfg: SynthConfig):
    """Two independently generated datasets from seed-derived streams.

    The evaluation set, ``EVAL_FRACTION`` of the samples, uses a disjoint
    RNG stream of the base seed, so the split is reproducible and the
    held-out samples are fresh draws.
    """
    n_eval = max(1, int(round(cfg.total * EVAL_FRACTION)))
    n_train = cfg.total - n_eval
    if n_train < 1:
        raise ValidationError("split leaves no training samples")
    train_cfg = replace(cfg, total=n_train, seed=cfg.seed)
    eval_cfg = replace(cfg, total=n_eval, seed=_derive_seed(cfg.seed, "eval"))
    return generate(train_cfg), generate(eval_cfg)


def _derive_seed(seed: int, tag: str) -> int:
    """Stable derived seed for an independent RNG stream."""
    h = 1469598103934665603
    for ch in f"{seed}:{tag}".encode():
        h = (h ^ ch) * 1099511628211 % (1 << 63)
    return h
