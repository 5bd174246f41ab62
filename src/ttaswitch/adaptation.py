"""Continual test-time adaptation with instance-wise full/efficient tuning.

For every stream instance the engine runs exactly two encoder forwards:

1. the EMA teacher sees the unmasked image and emits hard per-patch
   pseudo-labels;
2. the student sees a masked copy and is trained on `model.masked_losses`,
   the objective of source training with pseudo-labels in place of true
   labels: cross-entropy plus masked L1 reconstruction of the original
   pixels.

The tuning mode is chosen per instance *before* any state changes, by
dynamic domain shift detection on the input sequence. The detector keeps
exponential moving averages (factor alpha_l) of the mean and variance of a
few cheap image statistics: per-channel mean and standard deviation, and
the mean absolute horizontal and vertical neighbour difference. An instance
whose statistics sit more than SHIFT_Z standard deviations from their
running mean marks a domain shift; the very first instance always does.
A shift starts a burst of full tuning (all parameter groups) over
1 / (1 - alpha_l) instances, the EMA's effective memory; outside a burst
only the lightweight adapters are updated. The detector reads pixels only,
so it costs no model forward.

The teacher-student loss also feeds a running threshold tau, an EMA of past
losses starting at zero. It is reported per instance, and an injected
`decision_fn(loss, tau)` (for example `decide_shift`, which picks full
tuning iff the loss is strictly above tau) replaces the input detector.
A `fixed_decision` (FT or ET) replaces it with a constant, as the ft-only
and et-only baselines need.

Per-instance step order (fixed; tests rely on it):

    teacher forward -> mask draw -> shift detection (the decision)
    -> student forward (both heads) [-> decision_fn, when injected]
    -> backward + optimizer step
    -> threshold and detector update -> teacher EMA update + counters

With the input detector or a fixed decision, the decision comes before
the student forward. An ET step then records that forward over a store in
which every parameter outside ET_GROUPS is a gradient-free alias of the
student's array, so the tape holds only what depends on the adapters and
backward computes no gradient the optimizer would discard. An injected
`decision_fn` needs the student's loss, so it decides after the forward,
and the whole forward is recorded.

A non-finite loss anywhere in the step quarantines the instance: no
parameter, optimizer, threshold, detector, or teacher state changes, the
decision is recorded as "SKIP", and the adapted-step counter does not
advance. Its report gives the unchanged tau as tau_before and tau_after
and leaves loss_seg and loss_rec at their default NaN and teacher_labels
at None.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as m
from .autodiff import NonFiniteError, Optimizer, Tape
from .params import ParamStore

FT = "FT"      # full tuning: every parameter group
ET = "ET"      # efficient tuning: the ET_GROUPS only
SKIP = "SKIP"  # quarantined non-finite instance; no state change

ET_GROUPS = ("adapter",)
TEACHER_GROUPS = ("backbone", "adapter", "seg_head")

SHIFT_Z = 4.0  # z-score of an input statistic that marks a domain shift


def ema_update(teacher: ParamStore, student: ParamStore, alpha: float) -> None:
    """In-place teacher <- alpha * teacher + (1 - alpha) * student."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("ema alpha must lie in [0, 1]")
    for name in teacher.names():
        t = teacher[name].data
        t *= alpha
        t += (1.0 - alpha) * student[name].data


def update_threshold(tau: float, loss: float, alpha_l: float) -> float:
    """Running loss threshold: alpha_l * tau + (1 - alpha_l) * loss."""
    if not 0.0 <= alpha_l <= 1.0:
        raise ValueError("alpha_l must lie in [0, 1]")
    if not math.isfinite(loss):
        raise NonFiniteError("threshold update from non-finite loss")
    return alpha_l * float(tau) + (1.0 - alpha_l) * float(loss)


def decide_shift(loss: float, tau: float) -> bool:
    """True (full tuning) iff loss is STRICTLY above the threshold."""
    if not math.isfinite(loss) or not math.isfinite(tau):
        raise NonFiniteError("shift decision on non-finite values")
    return bool(loss > tau)


def input_statistics(image) -> np.ndarray:
    """Per-image summary the shift detector tracks: 8 statistics.

    Per-channel mean and standard deviation, then the mean absolute
    horizontal and vertical neighbour differences (a texture cue that tells
    apart corruptions with similar colour statistics).
    """
    x = np.asarray(image, dtype=np.float64)
    return np.concatenate([x.mean(axis=(1, 2)), x.std(axis=(1, 2)),
                           [np.abs(np.diff(x, axis=2)).mean(),
                            np.abs(np.diff(x, axis=1)).mean()]])


def ft_window(alpha_l: float) -> float:
    """Full-tuning instances per detected shift: round(1 / (1 - alpha_l)).

    The shift instance is the first of them. At alpha_l = 1 the statistics
    never forget and the window is unbounded (math.inf): every instance takes
    full tuning, as it would under a loss threshold frozen at zero.
    """
    if not 0.0 <= alpha_l <= 1.0:
        raise ValueError("alpha_l must lie in [0, 1]")
    if alpha_l == 1.0:
        return math.inf
    return round(1.0 / (1.0 - alpha_l))


@dataclass(frozen=True)
class ShiftState:
    mean: np.ndarray    # EMA of input_statistics
    var: np.ndarray     # EMA variance of input_statistics
    since_shift: int    # instances since the last detected shift (0: this one)


def detect_shift(state: ShiftState | None, image,
                 alpha_l: float) -> tuple[bool, ShiftState]:
    """Input-sequence shift detection; returns (full_tuning, next_state).

    `state` is None before the first instance, which always counts as a
    shift. Otherwise a shift is any statistic with |x - mean| > SHIFT_Z * std
    against the state *before* this instance (compared squared, so a zero
    variance flags any change and none on an identical input). The EMAs then
    take the instance with factor alpha_l. Pure: `state` is not modified.
    """
    stats = input_statistics(image)
    if not np.isfinite(stats).all():
        raise NonFiniteError("shift detection on non-finite input")
    if state is None:
        shift, mean, var = True, stats, np.zeros_like(stats)
    else:
        diff = stats - state.mean
        shift = bool(np.any(diff * diff > SHIFT_Z * SHIFT_Z * state.var))
        incr = (1.0 - alpha_l) * diff
        mean = state.mean + incr
        var = alpha_l * (state.var + diff * incr)
    since = 0 if shift else state.since_shift + 1
    return since < ft_window(alpha_l), ShiftState(mean, var, since)


@dataclass(frozen=True)
class StepReport:
    t: int                      # caller-supplied stream position
    domain: str
    decision: str               # FT | ET | SKIP
    wall_ms: float
    loss_seg: float = math.nan
    loss_rec: float = math.nan
    tau_before: float = math.nan
    tau_after: float = math.nan
    teacher_labels: np.ndarray | None = None   # hard pseudo-labels [num_patches]


class AdaptationEngine:
    """Holds student, EMA teacher, optimizer, loss threshold, and shift detector.

    The student store is the source checkpoint. It must fit the config's
    parameter layout, adapters included; a store that does not is refused
    with ValueError before anything else is built, by subclasses too. The
    teacher is a deep copy of the backbone, adapter, and segmentation-head
    entries only. By default the tuning mode comes from `detect_shift` on the
    input sequence. `fixed_decision` (FT or ET) replaces it with a constant,
    the ft-only/et-only behaviour. `decision_fn(loss_seg, tau) -> bool` may
    be injected instead to decide from the loss: `decide_shift` gives the
    loss-threshold rule. The detector state (`shift_state`) and tau are
    tracked either way.
    """

    def __init__(self, params: ParamStore, config: m.ModelConfig, *, lr: float = 1e-4,
                 alpha: float = 0.999, alpha_l: float = 0.9,
                 optimizer_kind: str = "adam", decision_fn=None,
                 fixed_decision: str | None = None, mask_seed: int = 0,
                 clock=time.perf_counter):
        m.check_layout(params.entries(), config)
        if not 0.0 <= alpha <= 1.0 or not 0.0 <= alpha_l <= 1.0:
            raise ValueError("alpha and alpha_l must lie in [0, 1]")
        if fixed_decision not in (None, FT, ET):
            raise ValueError(f"fixed_decision must be {FT!r}, {ET!r} or None, "
                             f"got {fixed_decision!r}")
        if fixed_decision is not None and decision_fn is not None:
            raise ValueError("give decision_fn or fixed_decision, not both")
        self.student = params
        self.config = config
        self.lr = float(lr)
        self.alpha = float(alpha)
        self.alpha_l = float(alpha_l)
        self.ft_groups = tuple(params.groups_present())
        self.decision_fn = decision_fn
        self.fixed_decision = fixed_decision
        self.mask_seed = int(mask_seed)
        self.clock = clock
        self.optimizer = Optimizer(optimizer_kind)
        teacher_names = [n for n in params.names()
                         if params.group_of(n) in TEACHER_GROUPS]
        self.teacher = params.subset(teacher_names).clone()
        self.tau = 0.0
        self.shift_state: ShiftState | None = None
        self.ft_count = 0
        self.et_count = 0
        self.skipped = 0
        self.forward_count = 0   # encoder forwards, teacher and student alike

    @property
    def t(self) -> int:
        """Number of instances that actually produced an update."""
        return self.ft_count + self.et_count

    def pseudo_label(self, image) -> np.ndarray:
        """Teacher forward on the unmasked image -> hard labels [num_patches].

        Overridable; subclasses that average several augmented forwards must
        bump forward_count once per encoder pass to keep cost accounting honest.
        """
        self.forward_count += 1
        return m.predict(image, self.teacher, self.config)

    def step(self, image, t_index: int, domain: str = "") -> StepReport:
        """Adapt on one instance; returns the per-instance report."""
        start = self.clock()
        cfg = self.config
        try:
            labels = self.pseudo_label(image)
            patch_mask = m.draw_mask(cfg.num_patches, cfg.mask_ratio,
                                     self.mask_seed, t_index)
            use_ft, shift_state = detect_shift(self.shift_state, image, self.alpha_l)
            if self.fixed_decision is not None:
                use_ft = self.fixed_decision == FT
            student = self.student
            if self.decision_fn is None and not use_ft:
                student = student.frozen_except(ET_GROUPS)
            tape = Tape()
            try:
                with ad.recording(tape):
                    self.forward_count += 1
                    loss_seg, loss_rec, _ = m.masked_losses(
                        image, labels, patch_mask, student, cfg)
                    loss_total = ad.add(loss_seg, loss_rec)
                    if self.decision_fn is not None:
                        use_ft = bool(self.decision_fn(float(loss_seg.data), self.tau))
                    ad.backward(loss_total)
            finally:
                tape.nodes.clear()   # break the tape -> node -> tensor -> tape cycle now
            self.optimizer.step(self.student, self.ft_groups if use_ft else ET_GROUPS,
                                self.lr)
        except NonFiniteError:
            self.student.zero_grad()
            self.skipped += 1
            wall_ms = (self.clock() - start) * 1000.0
            return StepReport(t=t_index, domain=domain, decision=SKIP, wall_ms=wall_ms,
                              tau_before=self.tau, tau_after=self.tau)
        tau_before = self.tau
        self.tau = update_threshold(tau_before, float(loss_seg.data), self.alpha_l)
        self.shift_state = shift_state
        ema_update(self.teacher, self.student, self.alpha)
        if use_ft:
            self.ft_count += 1
        else:
            self.et_count += 1
        wall_ms = (self.clock() - start) * 1000.0
        return StepReport(t=t_index, domain=domain, decision=FT if use_ft else ET,
                          wall_ms=wall_ms, loss_seg=float(loss_seg.data),
                          loss_rec=float(loss_rec.data), tau_before=tau_before,
                          tau_after=self.tau, teacher_labels=labels)
