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

from .errors import ValidationError, check_nonempty, check_real
from .measures import (
    ZERO_PROB,
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
    p = 2.
    """

    kind: str = "p_norm"
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in DISTORTION_KINDS:
            raise ValidationError(f"unknown distortion kind {self.kind!r}")
        check_real("p", self.p, 1.0)
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
    check_nonempty("released", released.shape, ("batch", "time", "feature"))
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


def _utility_term(spec, utility_loss, released_shape):
    """The composite's utility cross-entropy, 0 for the norms; the
    loss is required for the composite and rejected elsewhere.  It holds
    one value per model of the release of shape ``released_shape``: a
    scalar for a single batch, (G,) for a stack."""
    if spec.needs_utility and utility_loss is None:
        raise ValidationError("composite_img distortion requires utility_loss")
    if not spec.needs_utility and utility_loss is not None:
        raise ValidationError(f"{spec.kind} distortion does not take utility_loss")
    if not spec.needs_utility:
        return 0.0
    utility = np.asarray(utility_loss, dtype=np.float64)
    if utility.shape != released_shape[:-3]:
        raise ValidationError(
            f"utility_loss {utility.shape} must hold one value per model of the release "
            f"{released_shape}"
        )
    return _per_model(utility)


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
    check_nonempty("adversary_loss", probs.shape)
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

    For a stack, ``lam`` holds one weight per model.  Posteriors None
    mean the distortion alone, with ``grad_posteriors`` None; that needs
    every lambda to be 0.  Otherwise the value is the distortion less
    ``lam`` times the entropy, and ``grad_posteriors`` is ``-lam`` times
    the entropy's gradient.  The posteriors must describe the release's
    batch: the same (G,) B and T axes.
    """
    for weight in (lam,) if np.ndim(lam) == 0 else lam:
        check_real("lam", weight, 0.0)
    lam = np.asarray(lam, dtype=np.float64)
    check_real("alpha", alpha, 0.0, strict=True)
    probs = None
    if posterior_probs is not None:
        probs = np.asarray(posterior_probs, dtype=np.float64)
        check_nonempty("releaser_loss", probs.shape)
    elif lam.any():
        raise ValidationError("releaser_loss needs the posteriors when a lam is > 0")
    value, grad_released = _norm_distortion(spec, released, target, grad=True)
    if probs is not None and probs.shape[:-1] != grad_released.shape[:-1]:
        raise ValidationError(
            f"posteriors {probs.shape} do not describe the release {grad_released.shape}: "
            f"their (G,) B, T axes differ"
        )
    if lam.ndim and lam.shape != grad_released.shape[:-3]:
        raise ValidationError(
            f"lam {lam.shape} must hold one weight per model of the release "
            f"{grad_released.shape}"
        )
    value += _utility_term(spec, utility_loss, grad_released.shape)
    if probs is None:
        return LossValue(value=value, grad_released=grad_released)
    entropy, dentropy = batch_sequence_arimoto_entropy_grad(probs, alpha)
    return LossValue(
        value=_per_model(value - lam * entropy),
        grad_released=grad_released,
        grad_posteriors=-lam[..., None, None, None] * dentropy,
    )
