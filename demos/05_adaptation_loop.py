"""Test-time adaptation on a corrupted stream, instance by instance.

Trains a small source model, then walks a short cyclic stream with the
hybrid engine, printing each instance's teacher-student loss, the moving
loss threshold, the instances since the input detector last saw a domain
shift, and the resulting full/efficient tuning decision. Scoring follows
the benchmark protocol: each instance is predicted by the EMA teacher on the
unmasked image before that instance's update.
"""
import tempfile

import numpy as np

from ttaswitch import model as m
from ttaswitch.adaptation import ET, FT, SKIP, AdaptationEngine
from ttaswitch.checkpoint import load_checkpoint
from ttaswitch.metrics import compute_miou
from ttaswitch.source import train_source
from ttaswitch.streams import build_stream

cfg = m.ModelConfig(image_size=32, embed_dim=32, depth=2, heads=2,
                    adapter_dim=20)
with tempfile.TemporaryDirectory() as tmp:
    print("training a small source model (60 scenes, 12 epochs)...")
    ckpt = train_source(cfg, num_scenes=60, epochs=12, batch_size=8,
                        lr=1e-3, seed=0, out_dir=tmp)
    params, _ = load_checkpoint(ckpt)
frozen = params.clone()

stream = list(build_stream(cfg, domains=("fog", "night", "rain", "snow"),
                           per_domain=30, rounds=2, seed=5, severity=0.8))
engine = AdaptationEngine(params, cfg)  # defaults: lr 1e-4, EMA 0.999, alpha_l 0.9

print(f"\nadapting over {len(stream)} instances "
      "(FT = full tuning, ET = adapter-only tuning):")
print(f"{'t':>3} {'domain':<6} {'loss':>7} {'tau before':>10} "
      f"{'since shift':>11} {'decision':>8}")
gts, adapted_preds, frozen_preds, decisions = [], [], [], []
prev_domain = stream[0].domain
for inst in stream:
    report = engine.step(inst.image, inst.t, domain=inst.domain)
    marker = " <- domain change" if inst.domain != prev_domain else ""
    prev_domain = inst.domain
    print(f"{report.t:>3} {inst.domain:<6} {report.loss_seg:>7.4f} "
          f"{report.tau_before:>10.4f} {engine.shift_state.since_shift:>11} "
          f"{report.decision:>8}{marker}")
    decisions.append(report.decision)
    gts.append(inst.labels)
    adapted_preds.append(report.teacher_labels)
    frozen_preds.append(m.predict(inst.image, frozen, cfg))

print(f"\ndecisions: {decisions.count(FT)} FT, {decisions.count(ET)} ET, "
      f"{decisions.count(SKIP)} quarantined; "
      f"{engine.forward_count} encoder forwards = 2 per instance")
print("the detector tracks running statistics of the input images (channel "
      "means and\nstandard deviations, neighbour-pixel differences). An "
      "image more than 4 standard\ndeviations off them marks a domain shift, "
      "as does the first image; each shift\nbuys 1 / (1 - alpha_l) = 10 "
      "instances of full tuning, then adapter-only tuning\ntakes over until "
      "the next shift. Early on the variance estimates are still\nsettling, "
      "so extra shifts can fire within the first domain. Each jump also\n"
      "inflates the variance for a few windows, so domain runs much shorter "
      "than the\n30 instances used here can hide the next shift.")

miou_adapted = compute_miou(gts, adapted_preds)
miou_frozen = compute_miou(gts, frozen_preds)
print(f"\nmean IoU over the stream: adapting teacher {miou_adapted:.4f}, "
      f"frozen model {miou_frozen:.4f}")
print("a 240-instance run is deliberately too short to separate the two - the "
      "teacher is\nan EMA that moves a fraction per step. At full scale "
      "(configs/default.cfg: full-\nwidth model, 480 instances) the hybrid "
      "engine finishes ahead of the frozen\nbaseline and both single-mode "
      "variants at seed 0, but at only 3 of seeds 0-6;\nsee the benchmark "
      "recipe in the README.")
