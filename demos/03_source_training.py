"""Source-domain pretraining at smoke scale, plus a checkpoint round trip.

Trains the tiny model on a handful of synthetic scenes for a few epochs to
show the combined segmentation + masked-reconstruction loss descending, then
saves a checkpoint, reloads it, and verifies the reload is bit-exact: saving
the loaded store again writes the same bytes.
"""
import csv
import tempfile
from pathlib import Path

import numpy as np

from ttaswitch import model as m
from ttaswitch.checkpoint import load_checkpoint, save_checkpoint
from ttaswitch.model import ModelConfig
from ttaswitch.source import train_source

cfg = ModelConfig(image_size=16, embed_dim=32, depth=2, heads=2,
                  adapter_dim=20)
print(f"smoke model: {cfg.image_size} px, width {cfg.embed_dim}, "
      f"depth {cfg.depth} - small enough to train in seconds\n")

with tempfile.TemporaryDirectory() as tmp:
    ckpt = train_source(cfg, num_scenes=24, epochs=8, batch_size=8,
                        lr=1e-3, seed=0, out_dir=tmp, log_every=1)

    with (Path(tmp) / "source_log.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    first, last = float(rows[0]["loss_total"]), float(rows[-1]["loss_total"])
    print(f"\nloss over {len(rows)} epochs: {first:.4f} -> {last:.4f}")
    assert last < first, "training should reduce the total loss"

    params, cfg_loaded = load_checkpoint(ckpt)
    assert cfg_loaded == cfg
    assert all(params[name].data.dtype == np.float64 for name in params.names())
    resaved = save_checkpoint(Path(tmp) / "resaved.htta", params, cfg_loaded)
    assert resaved.read_bytes() == ckpt.read_bytes(), "save(load(file)) must equal the file"
    print(f"checkpoint {ckpt.name}: {len(list(params.names()))} arrays, "
          "reload is bit-exact and carries the model config")

    # the trained model actually segments: compare against untrained
    from ttaswitch.source import make_source_scenes
    scenes = make_source_scenes(cfg, 16, seed=99)
    fresh = m.init_params(cfg, seed=1)
    def accuracy(p):
        hit = tot = 0
        for s in scenes:
            pred = m.predict(s.image, p, cfg)
            hit += int(np.sum(pred == s.labels))
            tot += pred.size
        return hit / tot
    print(f"patch accuracy on held-out scenes: untrained {accuracy(fresh):.3f}, "
          f"trained {accuracy(params):.3f}")
