"""Evaluation metrics: normalized error, balanced accuracy, rank correlation."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def normalized_error(released, target) -> float:
    """Energy-normalized squared error between released and original data:

        NE = sum ||z - y||^2 / sum ||y||^2

    so NE = 0 means a perfect copy and NE = 1 is the all-zero release.
    """
    released = np.asarray(released, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if released.shape != target.shape:
        raise ValidationError(
            f"shape mismatch: {released.shape} vs {target.shape}"
        )
    energy = float((target**2).sum())
    if energy == 0.0:
        raise ValidationError("normalized_error undefined for an all-zero target")
    return float(((released - target) ** 2).sum()) / energy


def balanced_accuracy(predictions, labels, num_classes) -> float:
    """Mean per-class recall; classes absent from ``labels`` are skipped."""
    predictions = np.asarray(predictions).ravel()
    labels = np.asarray(labels).ravel()
    if predictions.size == 0 or predictions.shape != labels.shape:
        raise ValidationError("predictions and labels must be equal-length and non-empty")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValidationError("labels outside [0, num_classes)")
    if predictions.min() < 0 or predictions.max() >= num_classes:
        raise ValidationError("predictions outside [0, num_classes)")
    recalls = []
    for k in range(num_classes):
        mask = labels == k
        if mask.any():
            recalls.append(float((predictions[mask] == k).mean()))
    return float(np.mean(recalls))


def _average_ranks(values):
    """1-based ranks of ``values``; a tie group shares the mean of the
    ranks it spans, its cumulative count minus (count - 1) / 2."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


def spearman_rho(a, b) -> float:
    """Spearman rank correlation with average ranks for ties."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.size < 2:
        raise ValidationError("need two equal-length sequences of at least 2 points")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValidationError("rank correlation needs finite values")
    ra, rb = _average_ranks(a), _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra**2).sum() * (rb**2).sum())
    if denom == 0.0:
        raise ValidationError("rank correlation undefined for constant sequences")
    return float((ra * rb).sum() / denom)
