"""Evaluation metrics: normalized error and balanced accuracy."""

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
