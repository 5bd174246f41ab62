"""Correctness checks on the program's outputs, run outside the timed region.

Each check takes what a round captured and returns None when it holds or a
one-line reason when it does not. The checks rest on properties the method
must have and on the benchmark's own computations (its confusion-matrix
mIoU, its constant-class baseline, central finite differences), never on
stored copies of earlier output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MIOU_TOL = 1e-12
FD_STEP = 1e-7   # small, so a step rarely crosses a ReLU or |x| kink
FD_ATOL = 1e-7
FD_RTOL = 1e-4


def confusion_miou(gt, pred, num_classes: int) -> float:
    """Mean IoU over the classes present in ground truth or prediction."""
    gt = np.asarray(gt, np.int64)
    pred = np.asarray(pred, np.int64)
    cm = np.bincount(gt * num_classes + pred,
                     minlength=num_classes * num_classes).reshape(num_classes, num_classes)
    inter = np.diag(cm)
    union = cm.sum(axis=0) + cm.sum(axis=1) - inter
    present = union > 0
    return float(np.mean(inter[present] / union[present]))


def best_constant_miou(gts, num_classes: int) -> float:
    """Mean mIoU of the best single-class predictor over a set of label maps."""
    return max(float(np.mean([confusion_miou(g, np.full_like(g, c), num_classes)
                              for g in gts]))
               for c in range(num_classes))


@dataclass
class StreamCapture:
    """What one `run_experiment` round produced, as the benchmark saw it."""
    mode: str
    num_classes: int
    expected: int                  # instances the stream should yield
    domains: list = field(default_factory=list)     # per instance, stream order
    gts: list = field(default_factory=list)         # ground-truth patch labels
    preds: list = field(default_factory=list)       # evaluated predictions
    decisions: list = field(default_factory=list)   # program's per-instance rows
    row_mious: list = field(default_factory=list)
    mean_miou: float = math.nan
    forward_count: int = 0                          # the program's own count
    encode_calls: int = 0                           # `model.encode` calls seen
    probes: list = field(default_factory=list)      # (decision, before, after)


def check_decided(c: StreamCapture):
    allowed = {"NA"} if c.mode == "no-adapt" else {"FT", "ET", "SKIP"}
    if len(c.decisions) != c.expected or len(c.preds) != c.expected:
        return (f"{len(c.decisions)} rows and {len(c.preds)} predictions "
                f"for {c.expected} instances")
    bad = [d for d in c.decisions if d not in allowed]
    if bad:
        return f"undecided or unknown decision {bad[0]!r}"
    return None


def check_forwards(c: StreamCapture):
    per = 1 if c.mode == "no-adapt" else 2
    if c.encode_calls != per * c.expected:
        return f"{c.encode_calls} encoder calls for {c.expected} instances, expected {per} each"
    if c.forward_count != c.encode_calls:
        return f"the program counted {c.forward_count} forwards, the benchmark {c.encode_calls}"
    return None


def check_ft_only(c: StreamCapture):
    if c.mode == "ft-only" and any(d != "FT" for d in c.decisions):
        return "ft-only made a decision other than FT"
    return None


def check_hybrid_switching(c: StreamCapture):
    if c.mode != "hybrid":
        return None
    opening = False   # in a domain run, before its first instance that was not skipped
    for t, domain in enumerate(c.domains):
        opening = opening or t == 0 or domain != c.domains[t - 1]
        if opening and c.decisions[t] != "SKIP":
            opening = False
            if c.decisions[t] != "FT":
                return f"instance {t} opens a {domain} run but was decided {c.decisions[t]}"
    ft = sum(d == "FT" for d in c.decisions)
    if not 0 < ft < len(c.decisions):
        return f"hybrid made {ft} FT decisions out of {len(c.decisions)}"
    return None


def check_et_frozen(c: StreamCapture):
    et = [(before, after) for decision, before, after in c.probes if decision == "ET"]
    if c.mode == "hybrid" and not et:
        return "no ET step was sampled"
    for before, after in et:
        if before != after:
            return "an ET step changed a non-adapter parameter"
    return None


def check_miou_recomputed(c: StreamCapture):
    """Skipped instances (no prediction) must score NaN and stay out of the mean."""
    for t, (gt, pred, got) in enumerate(zip(c.gts, c.preds, c.row_mious)):
        if pred is None:
            if not math.isnan(got):
                return f"instance {t} has no prediction but mIoU {got!r}"
            continue
        own = confusion_miou(gt, pred, c.num_classes)
        if not abs(own - got) <= MIOU_TOL:
            return f"instance {t}: program mIoU {got!r}, recomputed {own!r}"
    scored = [x for x in c.row_mious if not math.isnan(x)]
    own_mean = float(np.mean(scored)) if scored else math.nan
    if not abs(own_mean - c.mean_miou) <= MIOU_TOL:
        return f"mean mIoU {c.mean_miou!r} is not the mean of its rows {own_mean!r}"
    return None


def check_above_constant(c: StreamCapture):
    floor = best_constant_miou(c.gts, c.num_classes)
    if not c.mean_miou > floor:
        return f"mean mIoU {c.mean_miou:.4f} not above constant predictor {floor:.4f}"
    return None


STREAM_CHECKS = (check_decided, check_forwards, check_ft_only, check_hybrid_switching,
                 check_et_frozen, check_miou_recomputed, check_above_constant)


@dataclass
class SourceCapture:
    """What one `train_source` round produced, as the benchmark saw it."""
    steps_per_epoch: int
    losses: list = field(default_factory=list)     # loss_total per source step
    saved: dict = field(default_factory=dict)      # name -> bytes handed to save
    reloaded: dict = field(default_factory=dict)   # name -> bytes read back
    gradients: list = field(default_factory=list)  # (entry, tape, finite difference)


def check_losses_finite(c: SourceCapture):
    if not c.losses or not all(math.isfinite(x) for x in c.losses):
        return "missing or non-finite source loss"
    return None


def check_loss_decreases(c: SourceCapture):
    k = c.steps_per_epoch
    if len(c.losses) < 2 * k:
        return f"{len(c.losses)} steps is fewer than two epochs of {k}"
    first, last = np.mean(c.losses[:k]), np.mean(c.losses[-k:])
    if not last < first:
        return f"last epoch loss {last:.4f} not below first {first:.4f}"
    return None


def check_checkpoint_reload(c: SourceCapture):
    if not c.saved or c.saved.keys() != c.reloaded.keys():
        return "reloaded checkpoint holds other parameter names"
    for name, raw in c.saved.items():
        if c.reloaded[name] != raw:
            return f"reloaded {name} differs from the saved parameters"
    return None


def check_gradients(c: SourceCapture):
    if not c.gradients:
        return "no gradient entries checked"
    for entry, tape, fd in c.gradients:
        if not abs(tape - fd) <= FD_ATOL + FD_RTOL * abs(fd):
            return f"{entry}: tape gradient {tape!r}, finite difference {fd!r}"
    return None


SOURCE_CHECKS = (check_losses_finite, check_loss_decreases, check_checkpoint_reload,
                 check_gradients)


def failures(checks, capture) -> list[str]:
    """Reasons of every check that does not hold, prefixed by its name."""
    out = []
    for check in checks:
        reason = check(capture)
        if reason is not None:
            out.append(f"{check.__name__}: {reason}")
    return out
