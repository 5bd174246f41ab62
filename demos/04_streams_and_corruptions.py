"""Synthetic scenes, the four weather corruptions, and replayable streams.

Generates a scene, applies each corruption at increasing severity, checks
that corruption moves pixels but never patch labels, then shows the cyclic
target stream and its byte-exact rebuild from the same arguments, which a
run's config_echo.cfg records.
"""
import itertools

import numpy as np

from ttaswitch.model import ModelConfig
from ttaswitch.streams import CORRUPTIONS, apply_corruption, build_stream, generate_scene

cfg = ModelConfig(image_size=32, patch_size=4, num_classes=5)   # scenes read only these
scene = generate_scene(seed=42, config=cfg)
print(f"scene: {scene.image.shape} image, {scene.labels.size} patch labels, "
      f"{len(scene.layout)} objects")
print("class histogram:", np.bincount(scene.labels, minlength=cfg.num_classes).tolist())

print("\npixel shift per corruption (mean |corrupted - clean|):")
for kind in CORRUPTIONS:
    shifts = []
    for severity in (0.2, 0.5, 0.8):
        out = apply_corruption(scene.image, kind, severity, seed=7)
        assert out.shape == scene.image.shape
        assert np.all((0.0 <= out) & (out <= 1.0))
        shifts.append(float(np.mean(np.abs(out - scene.image))))
    print(f"  {kind:<6} " + "  ".join(f"sev {s}: {v:.3f}"
                                      for s, v in zip((0.2, 0.5, 0.8), shifts)))
print("corruptions stay in [0, 1] and grow monotone with severity "
      "(appearance changes, patch labels do not)")

domains = list(CORRUPTIONS)
stream_args = dict(domains=domains, per_domain=3, rounds=2, seed=5)
instances = list(build_stream(cfg, severity=0.8, **stream_args))
print(f"\ncyclic stream: {len(instances)} instances "
      f"({stream_args['rounds']} rounds x {len(domains)} domains x "
      f"{stream_args['per_domain']} each)")
for rnd, group in itertools.groupby(instances, key=lambda i: i.round):
    seq = [i.domain for i in group]
    print(f"  round {rnd}: {' '.join(seq)}")

rebuilt = list(build_stream(cfg, severity=0.8, **stream_args))
assert len(rebuilt) == len(instances)
for a, b in zip(instances, rebuilt):
    assert a.t == b.t and a.domain == b.domain and a.scene_seed == b.scene_seed
    assert a.image.tobytes() == b.image.tobytes()
    assert np.array_equal(a.labels, b.labels)
print("rebuilding from the same arguments reproduces every instance byte for byte - "
      "a run's config_echo.cfg is its replay record")
