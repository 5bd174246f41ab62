"""A deliberately expensive pseudo-labeling stand-in used by throughput tests.

The default engine labels each instance with a single teacher forward. This
stub instead ensembles teacher predictions over 7 scales and 2 horizontal
flips (14 forwards per instance) with majority voting, mimicking
augmentation-averaged pseudo-labeling. It exists only to demonstrate the
wall-clock advantage of the single-forward design.

The model takes images of its configured size only, so each scale gets its
own teacher: the teacher's tensors under a config of that image size, with
the position embeddings bilinearly resized to the scale's grid.
"""
from dataclasses import replace

import numpy as np
from scipy import ndimage

from ttaswitch import model as m
from ttaswitch.adaptation import AdaptationEngine
from ttaswitch.autodiff import Tensor
from ttaswitch.params import ParamStore

SCALES = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
FLIPS = (False, True)


def teacher_at_size(teacher: ParamStore, cfg, target: int):
    """(store, config) that run the teacher on `target`-sized images."""
    if target == cfg.image_size:
        return teacher, cfg
    g0, d = cfg.grid, cfg.embed_dim
    z = (target // cfg.patch_size) / g0
    pos = ndimage.zoom(teacher["pos_embed"].data.reshape(g0, g0, d), (z, z, 1.0),
                       order=1, grid_mode=True, mode="nearest")
    store = ParamStore()
    for name in teacher.names():
        tensor = Tensor(pos.reshape(-1, d)) if name == "pos_embed" else teacher[name]
        store.add(name, tensor, teacher.group_of(name))
    return store, replace(cfg, image_size=target)


class MultiScaleFlipTeacher(AdaptationEngine):
    """Adaptation engine whose pseudo-labels take 14 teacher forwards."""

    def pseudo_label(self, image):
        cfg = self.config
        image = np.asarray(image, dtype=np.float64)
        g = cfg.image_size // cfg.patch_size
        votes = np.zeros((g * g, cfg.num_classes), dtype=np.int64)
        for scale in SCALES:
            target = max(int(round(cfg.image_size * scale / cfg.patch_size)), 1)
            target *= cfg.patch_size
            store, scfg = teacher_at_size(self.teacher, cfg, target)
            for flip in FLIPS:
                img = image[:, :, ::-1] if flip else image
                if target != cfg.image_size:
                    z = target / img.shape[1]
                    img = np.clip(ndimage.zoom(img, (1, z, z), order=1), 0.0, 1.0)
                if img.shape != (m.CHANNELS, target, target):
                    raise AssertionError(f"resize produced {img.shape}, wanted {target}")
                self.forward_count += 1
                labels = m.predict(np.ascontiguousarray(img), store, scfg)
                gs = target // cfg.patch_size
                grid = labels.reshape(gs, gs)
                if flip:
                    grid = grid[:, ::-1]
                idx = (np.arange(g) * gs) // g
                coarse = grid[np.ix_(idx, idx)].reshape(-1)
                votes[np.arange(g * g), coarse] += 1
        return np.argmax(votes, axis=1)
