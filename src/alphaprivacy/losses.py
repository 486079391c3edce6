"""Training losses: distortion measures, adversary cross-entropy, and the
releaser's distortion-minus-weighted-alpha-entropy objective.

Scalars are batch means in nats (cross-entropies) or data units
(distortions); gradients carry the same batch normalization so they can be
fed straight into the network backward passes.

The training losses also take the batches of a stack of G models with a
leading model axis, (G, B, T, ...), and then return one value per model
(an array of shape (G,)) computed as that model's batch alone would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError, check_real
from .measures import (
    ZERO_PROB,
    _check_alpha,
    _per_model,
    batch_sequence_arimoto_entropy_grad,
)

DISTORTION_KINDS = ("p_norm", "composite_img", "ts_l2")


@dataclass
class DistortionSpec:
    """Which release-vs-original distortion to charge the releaser.

    ``p_norm`` is the per-sample (1/T) p-norm of the flattened difference;
    ``composite_img`` adds the utility classifier's cross-entropy to an L1
    norm; ``ts_l2``, the time-series name, is read as ``p_norm`` with
    p = 2.  ``utility_weight`` scales the classifier term of the composite.
    """

    kind: str = "p_norm"
    p: float = 2.0
    utility_weight: float = 1.0

    def __post_init__(self):
        if self.kind not in DISTORTION_KINDS:
            raise ValidationError(f"unknown distortion kind {self.kind!r}")
        check_real("p", self.p, 1.0)
        check_real("utility_weight", self.utility_weight, 0.0)
        if self.kind == "ts_l2":
            self.kind, self.p = "p_norm", 2.0
        elif self.kind == "composite_img":
            self.p = 1.0

    @property
    def needs_utility(self):
        return self.kind == "composite_img"


def _norm_distortion(spec, released, target, grad=False):
    """Batch mean of the per-sample (1/T) p-norm of ``released - target``.

    With ``grad`` the result is ``(value, d value / d released)``;
    zero-difference samples get a zero (sub)gradient.
    """
    released = np.asarray(released, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if released.shape != target.shape or released.ndim not in (3, 4):
        raise ValidationError(
            f"released/target must share a (B, T, d) shape, got "
            f"{released.shape} vs {target.shape}"
        )
    nbatch, nsteps = released.shape[-3], released.shape[-2]
    flat = (released - target).reshape(*released.shape[:-2], -1)
    mag = np.abs(flat)
    p = spec.p
    norms = (mag**p).sum(axis=-1) ** (1.0 / p)
    value = _per_model(norms.mean(axis=-1) / nsteps)
    if not grad:
        return value
    safe = np.where(norms > 0.0, norms, 1.0)
    g = np.sign(flat) * mag ** (p - 1.0) / safe[..., None] ** (p - 1.0)
    g[norms == 0.0] = 0.0
    return value, g.reshape(released.shape) * (1.0 / (nbatch * nsteps))


def _utility_term(spec, utility_loss):
    """The composite's weighted utility cross-entropy, 0 for the norms; the
    loss is required for the composite and rejected elsewhere."""
    if spec.needs_utility and utility_loss is None:
        raise ValidationError("composite_img distortion requires utility_loss")
    if not spec.needs_utility and utility_loss is not None:
        raise ValidationError(f"{spec.kind} distortion does not take utility_loss")
    if not spec.needs_utility:
        return 0.0
    return spec.utility_weight * _per_model(np.asarray(utility_loss, dtype=np.float64))


def compute_distortion(spec: DistortionSpec, released, target, utility_loss=None):
    """Batch-mean distortion between released and original data.

    For the composite measure the caller supplies the utility network's
    cross-entropy as ``utility_loss``.
    """
    return _norm_distortion(spec, released, target) + _utility_term(spec, utility_loss)


def norm_distortion_grad(spec: DistortionSpec, released, target):
    """Gradient of the norm part of the distortion w.r.t. ``released``."""
    return _norm_distortion(spec, released, target, grad=True)[1]


@dataclass
class LossValue:
    """A scalar loss plus the gradients the caller chains onward."""

    value: float
    grad_released: Optional[np.ndarray] = None
    grad_posteriors: Optional[np.ndarray] = None
    clamped: int = 0


def adversary_loss(posterior_probs, labels) -> LossValue:
    """Mean negative log-likelihood of the true private labels.

    ``posterior_probs`` is the adversary's (B, T, |X|) softmax output and
    ``labels`` the (B, T) integers (both with a leading model axis for a
    stack).  Probabilities of true labels are clamped at 1e-15 (counted in
    ``clamped``, over the whole stack) rather than erroring, so an
    overconfident adversary keeps a finite loss.  The returned gradient is
    w.r.t. the posterior probabilities; push it back through the softmax.
    """
    probs = np.asarray(posterior_probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim not in (3, 4) or labels.shape != probs.shape[:-1]:
        raise ValidationError(
            f"posteriors (B, T, K) and labels (B, T) mismatch: "
            f"{probs.shape} vs {labels.shape}"
        )
    nbatch, nsteps, nclass = probs.shape[-3:]
    if labels.min() < 0 or labels.max() >= nclass:
        raise ValidationError("labels outside the private alphabet")
    # flat index of each true label's probability
    true = np.arange(0, probs.size, nclass)
    true += labels.reshape(-1)
    picked = probs.reshape(-1)[true]
    clamped = int((picked < ZERO_PROB).sum())
    safe = np.maximum(picked, ZERO_PROB)
    # each model's mean is one contiguous row of the log-likelihoods
    value = _per_model(-np.log(safe).reshape(*probs.shape[:-3], -1).mean(axis=-1))
    grad = np.zeros(probs.shape)
    grad.reshape(-1)[true] = -1.0 / (safe * nbatch * nsteps)
    return LossValue(value=value, grad_posteriors=grad, clamped=clamped)


def releaser_loss(
    released,
    target,
    posterior_probs,
    spec: DistortionSpec,
    lam,
    alpha,
    utility_loss=None,
) -> LossValue:
    """Distortion minus lambda times the adversary's sequence alpha-entropy.

    Returns the scalar plus two gradient pieces: ``grad_released`` covers
    the norm distortion term directly, ``grad_posteriors`` the entropy
    term.  The entropy gradient must be chained through the adversary
    network into the release (and the composite's utility term through the
    utility network) by the caller, since those paths depend on networks
    this function never sees.

    For a stack, ``lam`` holds one weight per model.  A model with
    lambda = 0 gets the distortion as its value and a zero entropy
    gradient, exactly as a lone lambda = 0 batch does, which never
    evaluates the entropy.
    """
    for weight in (lam,) if np.ndim(lam) == 0 else lam:
        check_real("lam", weight, 0.0)
    lam = np.asarray(lam, dtype=np.float64)
    alpha = _check_alpha(alpha)
    probs = np.asarray(posterior_probs, dtype=np.float64)
    value, grad_released = _norm_distortion(spec, released, target, grad=True)
    value += _utility_term(spec, utility_loss)
    if not lam.any():
        return LossValue(value=value, grad_released=grad_released,
                         grad_posteriors=np.zeros_like(probs))
    entropy, dentropy = batch_sequence_arimoto_entropy_grad(probs, alpha)
    active = lam != 0.0
    return LossValue(
        value=_per_model(np.where(active, value - lam * entropy, value)),
        grad_released=grad_released,
        grad_posteriors=np.where(active[..., None, None, None],
                                 -lam[..., None, None, None] * dentropy, 0.0),
    )
