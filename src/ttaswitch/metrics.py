"""Evaluation metric: per-class mean intersection-over-union."""
from __future__ import annotations

import numpy as np


def compute_miou(gts, preds) -> float:
    """Mean IoU over the classes present in ground truth or prediction.

    Classes absent from both are excluded from the mean, so the score never
    rewards agreement about classes that do not occur.
    """
    gts = np.asarray(gts)
    preds = np.asarray(preds)
    if gts.size == 0:
        raise ValueError("compute_miou: empty input")
    if gts.shape != preds.shape:
        raise ValueError(f"compute_miou: shape mismatch {gts.shape} vs {preds.shape}")
    if not (np.issubdtype(gts.dtype, np.integer) and np.issubdtype(preds.dtype, np.integer)):
        raise ValueError("compute_miou: labels must be integers")
    if gts.min() < 0 or preds.min() < 0:
        raise ValueError("compute_miou: labels must be nonnegative")
    classes = np.union1d(np.unique(gts), np.unique(preds))
    ious = []
    for c in classes:
        inter = np.count_nonzero((gts == c) & (preds == c))
        union = np.count_nonzero((gts == c) | (preds == c))
        ious.append(inter / union)
    return float(np.mean(ious))

