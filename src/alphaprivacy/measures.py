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

from .errors import ValidationError, check_nonempty, check_real

# Probabilities at or below this threshold are treated as exact zeros in
# entropy sums (the 0 * log 0 = 0 convention).
ZERO_PROB = 1e-15

# Allowed absolute deviation of a distribution's total mass from 1.
NORMALIZATION_TOL = 1e-12


def _check_distributions(probs, name, axis=None):
    """``probs`` as a float64 array if it is non-empty, finite, non-negative
    and sums to 1 within ``NORMALIZATION_TOL`` along ``axis`` (over all
    entries when ``axis`` is None), else a ValidationError naming ``name``."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.size == 0:
        raise ValidationError(f"{name}: empty probability table")
    if not np.isfinite(probs).all() or (probs < 0.0).any():
        raise ValidationError(f"{name}: entries must be non-negative and finite")
    worst = np.abs(probs.sum(axis=axis) - 1.0).max()
    if worst > NORMALIZATION_TOL:
        raise ValidationError(f"{name}: normalization off by {worst:g}")
    return probs


class Pmf:
    """A probability mass function over a finite alphabet.

    Entries must be non-negative and sum to 1 within ``NORMALIZATION_TOL``.
    """

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValidationError(f"Pmf: expected a 1-D array, got shape {probs.shape}")
        self.probs = _check_distributions(probs, "Pmf")

    def __repr__(self):
        return f"Pmf({self.probs!r})"


class JointPmf:
    """A dense joint distribution over the product of 2 to 4 finite alphabets.

    Axes are tagged with labels (e.g. ("X", "Z") or ("X", "Z", "S")) so that
    the measures can locate the private-variable axis regardless of storage
    order.
    """

    def __init__(self, probs, axis_labels):
        probs = np.asarray(probs, dtype=np.float64)
        axis_labels = tuple(axis_labels)
        if probs.ndim < 2 or probs.ndim > 4:
            raise ValidationError(
                f"JointPmf: expected 2-4 axes, got shape {probs.shape}"
            )
        if len(axis_labels) != probs.ndim:
            raise ValidationError(
                f"JointPmf: {probs.ndim} axes but {len(axis_labels)} labels"
            )
        if not all(isinstance(label, str) for label in axis_labels):
            raise ValidationError(f"JointPmf: axis labels must be strings, got {axis_labels}")
        if len(set(axis_labels)) != len(axis_labels):
            raise ValidationError(f"JointPmf: duplicate axis labels {axis_labels}")
        self.probs = _check_distributions(probs, "JointPmf")
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
        table = _marginal_table(self, keep_labels)
        if len(keep_labels) == 1:
            return Pmf(table)
        return JointPmf(table, keep_labels)

    def __repr__(self):
        return f"JointPmf(shape={self.probs.shape}, axes={self.axis_labels})"


def _marginal_table(joint: JointPmf, keep_labels):
    """The joint's table summed onto the axes ``keep_labels``, in that
    order, as a raw array (no validation: a sum of valid masses)."""
    axes = [joint.axis(lbl) for lbl in keep_labels]
    kept = sorted(set(axes))
    if len(kept) < len(axes):
        repeated = next(lbl for lbl in keep_labels if keep_labels.count(lbl) > 1)
        raise ValidationError(f"JointPmf: axis {repeated!r} repeated in {keep_labels}")
    drop = tuple(i for i in range(joint.probs.ndim) if i not in axes)
    table = np.add.reduce(joint.probs, axis=drop) if drop else joint.probs
    # the kept axes survive in storage order; reorder them to match keep_labels
    return table.transpose([kept.index(i) for i in axes])


class PosteriorBatch:
    """Per-sample, per-time-step posteriors p(X_t | z^t [, s]).

    ``probs`` has shape (B, T, |X|) and every (b, t) slice must be a valid
    distribution.
    """

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 3:
            raise ValidationError(
                f"PosteriorBatch: expected shape (B, T, |X|), got {probs.shape}"
            )
        if probs.shape[0] < 1:
            raise ValidationError("PosteriorBatch: empty batch")
        self.probs = _check_distributions(probs, "PosteriorBatch", axis=2)


def _masked_log(p, out=None):
    """log p with entries <= ZERO_PROB (and NaN) mapped to -inf (excluded
    from sums), written to ``out`` when given."""
    out = np.empty(p.shape) if out is None else out
    out.fill(-np.inf)
    return np.log(p, out=out, where=p > ZERO_PROB)


def _logsumexp(a, axis=-1, out=None):
    """Stable log(sum(exp(a))) along ``axis``; tolerates -inf entries.  The
    shifted exponentials go to ``out`` (which may be ``a`` itself), else to
    a new array.  A slice of only -inf entries takes log 0 = -inf: the
    caller suppresses that divide-by-zero warning, once per evaluation."""
    amax = np.maximum.reduce(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    shifted = np.subtract(a, amax, out=out)
    s = np.add.reduce(np.exp(shifted, out=shifted), axis=axis)
    return np.log(s) + amax.reshape(np.shape(s))


def _shannon(p, axis=None, logp=None):
    """Shannon entropy -sum p log p in nats, zeros masked.  ``logp`` may
    pass in ``_masked_log(p)`` when the caller already has it; it then
    holds the terms p log p afterwards."""
    terms = _masked_log(p) if logp is None else logp
    finite = np.isfinite(terms)
    np.multiply(p, terms, out=terms, where=finite)
    terms[~finite] = 0.0
    return -np.add.reduce(terms, axis=axis)


def _arimoto_entropy(table, alpha, grad=False, work=None):
    """Arimoto conditional alpha-entropy of X given the conditioning cells,
    one value per batch element, for a table laid out ``(X, cells, *batch)``.

    The table need not be normalized (a sub-table of a joint works), by

        sum_c p(c) ||p_{X|c}||_alpha  =  sum_c ||J(., c)||_alpha

    so cells with zero mass drop out.  With the private axis first, both
    log-sum-exp reductions (over X, then over the cells) run over leading
    axes of a C-ordered array, i.e. as sums of contiguous slabs that are
    vectorized across the trailing batch.

    The table-sized work (masked log, times alpha, minus the max over X,
    exp) runs in place in one buffer: ``work``, a float64 array of the
    table's shape that the caller may pass to reuse across calls, else a
    new one.  The table itself is only read.

    With ``grad`` the result is ``(value, dH/dtable)``.  Boundary
    convention: entries whose mass is zero get gradient 0, the limit from
    inside the feasible set for alpha > 1.  For alpha <= 1 the slope of
    such an entry is infinite when its cell holds other mass; the channel
    optimizer's multiplicative steps keep its iterates interior, so a zero
    reaches it only where an entry's exp underflowed.  With large start
    steps such underflow is routine: of 400 seeded optimizer worlds, 102
    ended with an exact zero in the channel, against 63 with the start
    capped at 64 times the step size.

    A batched table gets the same value and gradient, bit for bit, alone
    as in any batch.  NumPy sums a batch's reductions entry by entry but
    the contiguous reductions of a one-element batch pairwise, so such a
    batch is scored as a pair of copies.
    """
    if table.ndim > 2 and table[0, 0].size == 1:
        out = _arimoto_entropy(np.concatenate((table, table), axis=-1), alpha, grad)
        return (out[0][..., :1], out[1][..., :1]) if grad else out[..., :1]
    logj = _masked_log(table, out=work)
    if alpha == 1.0:
        # H(X | cells) = H(joint) - H(cells)
        cond = table.sum(axis=0)
        log_cond = _masked_log(cond)
        if grad:
            dj = np.zeros(table.shape)
            np.subtract(log_cond, logj, out=dj, where=np.isfinite(logj))
        value = _shannon(table, axis=(0, 1), logp=logj) - _shannon(cond, axis=0, logp=log_cond)
        return (value, dj) if grad else value
    if grad:
        finite = np.isfinite(logj)
        logj_safe = np.where(finite, logj, 0.0)
    np.multiply(logj, alpha, out=logj)
    with np.errstate(divide="ignore"):  # a cell, or table, of zero mass
        log_norms = _logsumexp(logj, axis=0, out=logj)  # (cells, *batch)
        log_norms /= alpha
        # over one cell, log-sum-exp returns its input to the bit; a copy,
        # since the gradient path edits log_norms
        log_total = log_norms[0].copy() if len(log_norms) == 1 else _logsumexp(log_norms, axis=0)
    value = alpha / (1.0 - alpha) * log_total
    if not grad:
        return value
    # expo = (1 - alpha) * safe log norms + (alpha - 1) * safe log J - log_total
    log_norms[~np.isfinite(log_norms)] = 0.0
    log_norms *= 1.0 - alpha
    expo = np.multiply(logj_safe, alpha - 1.0, out=logj_safe)
    expo += log_norms
    expo -= log_total
    dj = np.zeros(table.shape)
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
    # no errstate: a step's largest posterior entry is far above ZERO_PROB
    # (and the gradient path floors every entry), so each log-sum-exp here
    # sums at least exp(0) = 1 and never takes log 0
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


def _x_first(joint: JointPmf, name, labels=("X", "Z")):
    """The joint's table as (X, cells): private axis first, the rest flat.
    A ValidationError naming ``name`` unless the joint's axes are ``labels``."""
    if set(joint.axis_labels) != set(labels):
        raise ValidationError(
            f"{name}: expected axes {', '.join(labels)}, got {joint.axis_labels}"
        )
    table, axis = joint.probs, joint.axis("X")
    if axis:
        table = np.moveaxis(table, axis, 0)
    return table.reshape(table.shape[0], -1)


def renyi_entropy(p: Pmf, alpha) -> float:
    """Renyi entropy of order alpha in nats: H_alpha(X) given one trivial cell.

    Equals (alpha / (1 - alpha)) * log ||p||_alpha for alpha != 1, and the
    Shannon entropy for alpha = 1.
    """
    alpha = float(check_real("alpha", alpha, 0.0, strict=True))
    return float(_arimoto_entropy(p.probs[:, None], alpha))


def arimoto_conditional_entropy(joint: JointPmf, alpha) -> float:
    """Arimoto's conditional alpha-entropy H^A_alpha(X | Z) in nats.

    ``joint`` must carry axes X and Z; conditioning cells with zero
    probability contribute nothing.
    """
    alpha = float(check_real("alpha", alpha, 0.0, strict=True))
    return float(_arimoto_entropy(_x_first(joint, "arimoto_conditional_entropy"), alpha))


def alpha_mutual_information(joint: JointPmf, alpha) -> float:
    """Arimoto alpha-mutual information I^A_alpha(X; Z) = H_alpha(X) - H^A_alpha(X|Z).

    Both entropies come from one kernel call over a batch of two tables:
    the joint, and the X-marginal as a table whose mass sits in cell 0
    (its zero cells drop out, so it scores H_alpha(X))."""
    alpha = float(check_real("alpha", alpha, 0.0, strict=True))
    table = _x_first(joint, "alpha_mutual_information")
    tables = np.zeros(table.shape + (2,))
    tables[..., 0] = table
    tables[:, 0, 1] = _marginal_table(joint, ("X",))
    h_x_given_z, h_x = _arimoto_entropy(tables, alpha).tolist()
    return h_x - h_x_given_z


def conditional_alpha_mi_given_s(joint: JointPmf, alpha) -> float:
    """Side-information-conditioned alpha-MI
    I^A_alpha(X; Z | S) = H^A_alpha(X | S) - H^A_alpha(X | Z, S).
    """
    alpha = float(check_real("alpha", alpha, 0.0, strict=True))
    table = _x_first(joint, "conditional_alpha_mi_given_s", ("X", "Z", "S"))
    h_x_given_s = _arimoto_entropy(_marginal_table(joint, ("X", "S")), alpha)
    return float(h_x_given_s - _arimoto_entropy(table, alpha))


def batch_sequence_arimoto_entropy(posteriors: PosteriorBatch, alpha) -> float:
    """Per-time-step batch estimate of the sequence conditional alpha-entropy
    (see :func:`_sequence_entropy`), with exact zeros masked."""
    alpha = float(check_real("alpha", alpha, 0.0, strict=True))
    p = posteriors.probs
    return _sequence_entropy(p, _masked_log(p), alpha)


def batch_sequence_arimoto_entropy_grad(probs, alpha):
    """Value and gradient of the batch sequence alpha-entropy w.r.t. the
    posterior probabilities.

    ``probs`` is the raw (B, T, |X|) array (assumed valid, but for an empty
    axis, which is a ValidationError; training code feeds softmax outputs).
    Returns ``(value, grad)`` with ``grad`` the same shape as ``probs``.
    Probabilities are floored at ``ZERO_PROB`` before differentiation, so
    every log is finite.
    """
    alpha = float(check_real("alpha", alpha, 0.0, strict=True))
    probs = np.asarray(probs, dtype=np.float64)
    check_nonempty("batch_sequence_arimoto_entropy_grad", probs.shape)
    q = np.maximum(probs, ZERO_PROB)
    return _sequence_entropy(q, np.log(q), alpha, grad=True)
