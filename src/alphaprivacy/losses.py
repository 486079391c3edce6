"""Training losses: distortion measures, adversary cross-entropy, and the
releaser's distortion-minus-weighted-alpha-entropy objective.

Scalars are batch means in nats (cross-entropies) or data units
(distortions); gradients carry the same batch normalization so they can be
fed straight into the network backward passes.

The training losses also take the batches of a stack of G models with a
leading model axis, (G, B, T, ...), and then return one value per model
(an array of shape (G,)) computed as that model's batch alone would give.

Inputs may have any layout, such as a network's output, which is a
batch-major view of a time-major array (see :mod:`.nets`); every sum runs
in batch-major order and every value is a float64 result.  The
distortion and the entropy term read their inputs as float64 and return
float64 gradients.  ``adversary_loss`` casts only the picked
probabilities, and returns its gradient in the posteriors' dtype and the
network's layout, which ``Network.backward`` takes with no copy.
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
    check_alpha,
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
    # C order: a network's output is a view of a time-major array, and
    # the norms must sum in batch-major order whatever the layout
    released = np.asarray(released, dtype=np.float64, order="C")
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
    ``labels`` the (B, T) integers or booleans (both with a leading model
    axis for a stack).  Probabilities of true labels are clamped at 1e-15
    (counted in ``clamped``, over the whole stack) rather than erroring, so
    an overconfident adversary keeps a finite loss.  The returned gradient
    is w.r.t. the posterior probabilities; push it back through the
    softmax.

    The posteriors are read in their own dtype and through the network's
    layout: a batch-major view of a time-major array is used as it is,
    anything else is made one first.  Only the picked true-label
    probabilities are cast to float64, and they are clamped, logged and
    averaged in batch-major order.  The gradient is a batch-major view of
    a time-major array in the posteriors' dtype, so it enters
    :meth:`.nets.Network.backward` with no copy; its float64 entries are
    rounded once, just before they are scattered.
    """
    probs = np.asarray(posterior_probs)
    labels = np.asarray(labels)
    if probs.ndim not in (3, 4) or labels.shape != probs.shape[:-1]:
        raise ValidationError(
            f"posteriors (B, T, K) and labels (B, T) mismatch: "
            f"{probs.shape} vs {labels.shape}"
        )
    if labels.dtype.kind not in "biu":
        raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
    check_nonempty("adversary_loss", probs.shape)
    nbatch, nsteps, nclass = probs.shape[-3:]
    if labels.min() < 0 or labels.max() >= nclass:
        raise ValidationError("labels outside the private alphabet")
    dtype = probs.dtype if probs.dtype.kind == "f" else np.float64
    by_time = np.asarray(probs.swapaxes(-3, -2), dtype=dtype, order="C")
    # flat index into by_time of each true label's probability, (..., B, T)
    true = np.empty(labels.shape, np.intp)
    start = np.arange(0, by_time.size, nclass).reshape(by_time.shape[:-1])
    np.add(start.swapaxes(-2, -1), labels, out=true, casting="unsafe")
    picked = by_time.reshape(-1)[true].astype(np.float64, copy=False)
    clamped = int((picked < ZERO_PROB).sum())
    safe = np.maximum(picked, ZERO_PROB)
    # each model's mean is one contiguous row of the log-likelihoods
    value = _per_model(-np.log(safe).reshape(*probs.shape[:-3], -1).mean(axis=-1))
    grad = np.zeros(by_time.shape, dtype)
    # cast before the scatter: the same one rounding, and a float32 scatter
    # of float64 values costs more than the cast
    grad.reshape(-1)[true] = (-1.0 / (safe * nbatch * nsteps)).astype(dtype, copy=False)
    return LossValue(value=value, grad_posteriors=grad.swapaxes(-3, -2), clamped=clamped)


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
    check_alpha(alpha)
    probs = None
    if posterior_probs is not None:
        # C order, so the entropy sums run as over a batch-major array
        probs = np.asarray(posterior_probs, dtype=np.float64, order="C")
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
