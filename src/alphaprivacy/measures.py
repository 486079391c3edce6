"""Exact alpha-order information measures on discrete distributions.

Implements the Renyi entropy, Arimoto's conditional alpha-entropy, the
Arimoto alpha-mutual information (with and without a side-information
axis), and the batched per-time-step estimator of the sequence conditional
alpha-entropy used inside the training losses.

All quantities are returned in nats.  alpha = 1 is handled by a dedicated
Shannon branch; every other positive alpha goes through a log-space
alpha-norm (log-sum-exp over alpha * log p with zero masking) so that
large alpha on near-one-hot distributions does not underflow.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Probabilities at or below this threshold are treated as exact zeros in
# entropy sums (the 0 * log 0 = 0 convention).
ZERO_PROB = 1e-15

# Allowed absolute deviation of a distribution's total mass from 1.
NORMALIZATION_TOL = 1e-12


def _check_alpha(alpha):
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise ValidationError(f"alpha must be a positive finite real, got {alpha}")
    return alpha


def _check_prob_array(probs, name):
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size == 0:
        raise ValidationError(f"{name}: empty probability table")
    if not np.all(np.isfinite(probs)):
        raise ValidationError(f"{name}: non-finite entries")
    if np.any(probs < 0.0):
        raise ValidationError(f"{name}: negative entries (min {probs.min():g})")
    return probs


class Pmf:
    """A probability mass function over a finite alphabet.

    Entries must be non-negative and sum to 1 within ``NORMALIZATION_TOL``.
    """

    def __init__(self, probs):
        probs = _check_prob_array(probs, "Pmf")
        if probs.ndim != 1:
            raise ValidationError(f"Pmf: expected a 1-D array, got shape {probs.shape}")
        total = probs.sum()
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(f"Pmf: entries sum to {total!r}, not 1")
        self.probs = probs

    def __repr__(self):
        return f"Pmf({self.probs!r})"


class JointPmf:
    """A dense joint distribution over the product of 2 to 4 finite alphabets.

    Axes are tagged with labels (e.g. ("X", "Z") or ("X", "Z", "S")) so that
    the measures can locate the private-variable axis regardless of storage
    order.
    """

    def __init__(self, probs, axis_labels):
        probs = _check_prob_array(probs, "JointPmf")
        axis_labels = tuple(axis_labels)
        if probs.ndim < 2 or probs.ndim > 4:
            raise ValidationError(
                f"JointPmf: expected 2-4 axes, got shape {probs.shape}"
            )
        if len(axis_labels) != probs.ndim:
            raise ValidationError(
                f"JointPmf: {probs.ndim} axes but {len(axis_labels)} labels"
            )
        if len(set(axis_labels)) != len(axis_labels):
            raise ValidationError(f"JointPmf: duplicate axis labels {axis_labels}")
        total = probs.sum()
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(f"JointPmf: entries sum to {total!r}, not 1")
        self.probs = probs
        self.axis_labels = axis_labels

    def axis(self, label):
        """Index of the axis carrying ``label``."""
        try:
            return self.axis_labels.index(label)
        except ValueError:
            raise ValidationError(
                f"JointPmf: no axis {label!r} in {self.axis_labels}"
            ) from None

    def marginal(self, keep_labels):
        """Marginalize onto the given axes (order follows ``keep_labels``).

        Returns a ``Pmf`` for a single kept axis, else a ``JointPmf``.
        """
        keep_labels = tuple(keep_labels)
        axes = [self.axis(lbl) for lbl in keep_labels]
        drop = tuple(i for i in range(self.probs.ndim) if i not in axes)
        table = self.probs.sum(axis=drop) if drop else self.probs
        # reorder the surviving axes to match keep_labels
        surviving = [lbl for lbl in self.axis_labels if lbl in keep_labels]
        perm = [surviving.index(lbl) for lbl in keep_labels]
        table = np.transpose(table, perm)
        if len(keep_labels) == 1:
            return Pmf(table)
        return JointPmf(table, keep_labels)

    def __repr__(self):
        return f"JointPmf(shape={self.probs.shape}, axes={self.axis_labels})"


class PosteriorBatch:
    """Per-sample, per-time-step posteriors p(X_t | z^t [, s]).

    ``probs`` has shape (B, T, |X|) and every (b, t) slice must be a valid
    distribution.
    """

    def __init__(self, probs):
        probs = _check_prob_array(probs, "PosteriorBatch")
        if probs.ndim != 3:
            raise ValidationError(
                f"PosteriorBatch: expected shape (B, T, |X|), got {probs.shape}"
            )
        if probs.shape[0] < 1:
            raise ValidationError("PosteriorBatch: empty batch")
        sums = probs.sum(axis=2)
        worst = np.abs(sums - 1.0).max()
        if worst > NORMALIZATION_TOL:
            raise ValidationError(
                f"PosteriorBatch: slice normalization off by {worst:g}"
            )
        self.probs = probs


def _masked_log(p):
    """log p with entries <= ZERO_PROB mapped to -inf (excluded from sums)."""
    out = np.full(p.shape, -np.inf)
    mask = p > ZERO_PROB
    np.log(p, out=out, where=mask)
    return out


def _logsumexp(a, axis=-1):
    """Stable log(sum(exp(a))) along ``axis``; tolerates -inf entries."""
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    s = np.sum(np.exp(a - amax), axis=axis)
    with np.errstate(divide="ignore"):
        return np.log(s) + np.squeeze(amax, axis=axis)


def _shannon(p, axis=None, logp=None):
    """Shannon entropy -sum p log p in nats, zeros masked; ``logp`` may pass
    in ``_masked_log(p)`` when the caller already has it."""
    if logp is None:
        logp = _masked_log(p)
    terms = np.zeros_like(p)
    np.multiply(p, logp, out=terms, where=np.isfinite(logp))
    return -np.sum(terms, axis=axis)


def _arimoto_entropy(table, alpha, grad=False):
    """Arimoto conditional alpha-entropy of X given the conditioning cells,
    one value per batch element, for a table laid out ``(X, cells, *batch)``.

    The table need not be normalized (a sub-table of a joint works), by

        sum_c p(c) ||p_{X|c}||_alpha  =  sum_c ||J(., c)||_alpha

    so cells with zero mass drop out.  With the private axis first, both
    log-sum-exp reductions (over X, then over the cells) run over leading
    axes of a C-ordered array, i.e. as sums of contiguous slabs that are
    vectorized across the trailing batch.

    With ``grad`` the result is ``(value, dH/dtable)``.  Boundary
    convention: entries whose mass is zero get gradient 0 (they are flat
    from inside the feasible set for alpha >= 1 and are pinned for
    alpha < 1 as well).
    """
    logj = _masked_log(table)
    if alpha == 1.0:
        # H(X | cells) = H(joint) - H(cells)
        cond = table.sum(axis=0)
        log_cond = _masked_log(cond)
        value = _shannon(table, axis=(0, 1), logp=logj) - _shannon(cond, axis=0, logp=log_cond)
        if not grad:
            return value
        finite = np.isfinite(logj)
        dj = np.zeros_like(table)
        np.subtract(np.broadcast_to(log_cond, table.shape), logj, out=dj, where=finite)
        return value, dj
    log_norms = _logsumexp(alpha * logj, axis=0) / alpha  # (cells, *batch)
    log_total = _logsumexp(log_norms, axis=0)
    value = alpha / (1.0 - alpha) * log_total
    if not grad:
        return value
    finite = np.isfinite(logj)
    logj_safe = np.where(finite, logj, 0.0)
    norms_safe = np.where(np.isfinite(log_norms), log_norms, 0.0)
    expo = (1.0 - alpha) * norms_safe + (alpha - 1.0) * logj_safe - log_total
    dj = np.zeros_like(table)
    np.exp(expo, out=dj, where=finite)
    dj *= alpha / (1.0 - alpha)
    return value, dj


def _sequence_entropy(p, logp, alpha, grad=False):
    """Batch estimate of the sequence conditional alpha-entropy of (B, T, |X|)
    per-step posteriors ``p`` whose logs are ``logp``.

    Uses the product decomposition of the per-step posteriors, under which
    the alpha-norm of the length-T sequence posterior factorizes into the
    product of per-step alpha-norms:

        (1/T) * alpha/(1-alpha) * log[ (1/B) sum_b prod_t ||p_{bt}||_alpha ]

    and, at alpha = 1, the batch-mean Shannon conditional entropy rate (its
    zeros masked by :func:`_shannon`, whatever ``logp`` holds).  The batch
    mean plays the role of the expectation over released sequences and is
    exact as B grows.  With ``grad`` the result is ``(value, dH/dp)``,
    which needs every ``logp`` finite.

    Posteriors of a stack of models carry a leading model axis, and the
    value is then one per model.  Every sum runs along a trailing axis of
    one model's batch, so each model's value and gradient are those of its
    batch alone.
    """
    nbatch, nsteps = p.shape[-3], p.shape[-2]
    if alpha == 1.0:
        rates = _shannon(p, axis=-1)
        value = _per_model(rates.reshape(*rates.shape[:-2], -1).mean(axis=-1))
        if not grad:
            return value
        return value, -(logp + 1.0) / (nbatch * nsteps)
    log_step_sums = _logsumexp(alpha * logp, axis=-1)  # (B, T): log sum_x p^alpha
    log_seq_norms = log_step_sums.sum(axis=-1) / alpha  # (B,): log prod_t ||p_bt||_alpha
    log_total = _logsumexp(log_seq_norms, axis=-1)
    value = _per_model(alpha / (1.0 - alpha) * (log_total - np.log(nbatch)) / nsteps)
    if not grad:
        return value
    # d value / d p_btx = (1/T) * alpha/(1-alpha) * w_b * p^(alpha-1) / S_bt
    # with w_b the batch softmax of the per-sequence log norms.
    w = np.exp(log_seq_norms - log_total[..., None])  # sums to 1
    coeff = alpha / (1.0 - alpha) / nsteps
    return value, coeff * w[..., None, None] * np.exp(
        (alpha - 1.0) * logp - log_step_sums[..., None]
    )


def _per_model(value):
    """A float for a single batch, the (G,) array for a stack of models."""
    return float(value) if np.ndim(value) == 0 else value


def _x_first(joint: JointPmf):
    """The joint's table as (X, cells): private axis first, the rest flat."""
    table = np.moveaxis(joint.probs, joint.axis("X"), 0)
    return table.reshape(table.shape[0], -1)


def renyi_entropy(p: Pmf, alpha) -> float:
    """Renyi entropy of order alpha in nats: H_alpha(X) given one trivial cell.

    Equals (alpha / (1 - alpha)) * log ||p||_alpha for alpha != 1, and the
    Shannon entropy for alpha = 1.
    """
    alpha = _check_alpha(alpha)
    return float(_arimoto_entropy(p.probs[:, None], alpha))


def arimoto_conditional_entropy(joint: JointPmf, alpha) -> float:
    """Arimoto's conditional alpha-entropy H^A_alpha(X | Z) in nats.

    ``joint`` must carry axes X and Z; conditioning cells with zero
    probability contribute nothing.
    """
    alpha = _check_alpha(alpha)
    if set(joint.axis_labels) != {"X", "Z"}:
        raise ValidationError(
            f"arimoto_conditional_entropy: expected axes X and Z, got {joint.axis_labels}"
        )
    return float(_arimoto_entropy(_x_first(joint), alpha))


def alpha_mutual_information(joint: JointPmf, alpha) -> float:
    """Arimoto alpha-mutual information I^A_alpha(X; Z) = H_alpha(X) - H^A_alpha(X|Z)."""
    alpha = _check_alpha(alpha)
    h_x = renyi_entropy(joint.marginal(("X",)), alpha)
    return h_x - float(_arimoto_entropy(_x_first(joint), alpha))


def conditional_alpha_mi_given_s(joint: JointPmf, alpha) -> float:
    """Side-information-conditioned alpha-MI
    I^A_alpha(X; Z | S) = H^A_alpha(X | S) - H^A_alpha(X | Z, S).
    """
    alpha = _check_alpha(alpha)
    if set(joint.axis_labels) != {"X", "Z", "S"}:
        raise ValidationError(
            f"conditional_alpha_mi_given_s: expected axes X, Z, S, got {joint.axis_labels}"
        )
    h_x_given_s = _arimoto_entropy(joint.marginal(("X", "S")).probs, alpha)
    return float(h_x_given_s - _arimoto_entropy(_x_first(joint), alpha))


def batch_sequence_arimoto_entropy(posteriors: PosteriorBatch, alpha) -> float:
    """Per-time-step batch estimate of the sequence conditional alpha-entropy
    (see :func:`_sequence_entropy`), with exact zeros masked."""
    alpha = _check_alpha(alpha)
    p = posteriors.probs
    return _sequence_entropy(p, _masked_log(p), alpha)


def batch_sequence_arimoto_entropy_grad(probs, alpha):
    """Value and gradient of the batch sequence alpha-entropy w.r.t. the
    posterior probabilities.

    ``probs`` is the raw (B, T, |X|) array (assumed valid; training code
    feeds softmax outputs).  Returns ``(value, grad)`` with ``grad`` the
    same shape as ``probs``.  Probabilities are floored at ``ZERO_PROB``
    before differentiation, so every log is finite.
    """
    alpha = _check_alpha(alpha)
    q = np.maximum(np.asarray(probs, dtype=np.float64), ZERO_PROB)
    return _sequence_entropy(q, np.log(q), alpha, grad=True)
