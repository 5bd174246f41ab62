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
    n = int(max(gts.max(), preds.max())) + 1
    gts, preds = gts.ravel().astype(np.int64), preds.ravel().astype(np.int64)
    inter = np.bincount(gts[gts == preds], minlength=n)
    union = np.bincount(gts, minlength=n) + np.bincount(preds, minlength=n) - inter
    present = union > 0
    return float(np.mean(inter[present] / union[present]))

