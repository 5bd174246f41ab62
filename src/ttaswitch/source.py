"""Source-domain pretraining: segmentation loss plus masked reconstruction.

Every training step masks a random subset of patches of each image and
optimizes the batch means of the masked objective `model.masked_losses`:
per-patch segmentation cross-entropy against the true labels plus the L1
reconstruction loss over the masked pixels. One `model.masked_backward`,
the engine's training step too, takes the batch as one `[B, c, h, w]`
tensor and records one tape for it. All parameter groups — backbone,
adapters, heads, and the mask token — receive updates during this stage.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as m
from .autodiff import NonFiniteError, Optimizer
from .checkpoint import save_checkpoint
from .params import GROUPS, ParamStore
from .streams import Scene, child_seed, generate_scene


@dataclass(frozen=True)
class SourceBatch:
    images: tuple          # of [c, h, w] float64 arrays
    labels: tuple          # of [num_patches] int64 arrays
    class_labels: tuple = ()   # ignored; kept so existing callers still construct batches


def make_source_scenes(config: m.ModelConfig, num_scenes: int, seed: int) -> list[Scene]:
    """Render the fixed source dataset; scene i uses child seed (seed, 41, i)."""
    return [generate_scene(child_seed(seed, 41, i), config) for i in range(num_scenes)]


def source_step(batch: SourceBatch, params: ParamStore, config: m.ModelConfig,
                optimizer: Optimizer, lr: float, mask_seed: int, step: int):
    """One optimization step over a batch; returns (loss_total, loss_seg, loss_rec).

    `step` is the run position of the batch's first image, so image i's mask
    is drawn from (mask_seed, step + i): every image of a run gets its own
    key, whatever the batch size. The total is formed by a single addition
    of the two mean loss terms.
    """
    n_img = len(batch.images)
    if n_img == 0:
        raise ValueError("source_step: empty batch")
    stacked = np.stack([m.draw_mask(config.num_patches, config.mask_ratio, mask_seed,
                                    step + i) for i in range(n_img)])
    try:
        losses = m.masked_backward(np.stack(batch.images), np.stack(batch.labels), stacked,
                                   params, config)
    except NonFiniteError as e:
        raise NonFiniteError(f"non-finite loss in the source batch from image {step}: {e}") from e
    optimizer.step(params, group_filter=GROUPS, lr=lr)
    return losses


EPOCH_LOG_COLUMNS = ("epoch", "loss_total", "loss_seg", "loss_rec")


def train_source(config: m.ModelConfig, num_scenes: int, epochs: int, batch_size: int,
                 lr: float, seed: int, out_dir, optimizer_kind: str = "adam",
                 log_every: int = 0) -> Path:
    """Train from scratch on synthetic scenes and save a checkpoint.

    Returns the checkpoint path (<out_dir>/source.htta). An epoch log CSV with
    mean losses per epoch is written alongside it. epochs=0 saves the freshly
    initialized parameters unchanged.
    """
    if num_scenes < 1 or batch_size < 1 or epochs < 0 or not 0.0 < lr < np.inf:
        raise ValueError("train_source: need num_scenes >= 1, batch_size >= 1, epochs >= 0 "
                         f"and a finite lr > 0, got lr={lr}")
    optimizer = Optimizer(optimizer_kind)   # both refuse bad input before out_dir exists
    scenes = make_source_scenes(config, num_scenes, seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = m.init_params(config, seed=seed)
    order_rng = np.random.default_rng((int(seed), 43))

    log_rows = []
    for epoch in range(epochs):
        order = order_rng.permutation(len(scenes))
        sums = np.zeros(3)
        n_batches = 0
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            batch = SourceBatch(
                images=tuple(scenes[j].image for j in idx),
                labels=tuple(scenes[j].labels for j in idx),
            )
            losses = source_step(batch, params, config, optimizer, lr,
                                 mask_seed=seed, step=epoch * len(scenes) + start)
            sums += np.asarray(losses)
            n_batches += 1
        means = sums / max(n_batches, 1)
        log_rows.append({"epoch": epoch, "loss_total": means[0],
                         "loss_seg": means[1], "loss_rec": means[2]})
        if log_every and (epoch % log_every == 0 or epoch == epochs - 1):
            print(f"epoch {epoch:3d}  total {means[0]:.4f}  "
                  f"seg {means[1]:.4f}  rec {means[2]:.4f}")

    with (out_dir / "source_log.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=EPOCH_LOG_COLUMNS)
        writer.writeheader()
        for row in log_rows:
            writer.writerow({"epoch": row["epoch"],
                             "loss_total": f"{row['loss_total']:.6f}",
                             "loss_seg": f"{row['loss_seg']:.6f}",
                             "loss_rec": f"{row['loss_rec']:.6f}"})

    ckpt_path = out_dir / "source.htta"
    save_checkpoint(ckpt_path, params, config)
    return ckpt_path
