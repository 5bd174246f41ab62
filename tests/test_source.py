import csv
import gc
import math
import platform

import numpy as np
import pytest

from helpers import TINY, track_tapes
from ttaswitch import model
from ttaswitch.autodiff import NonFiniteError, Optimizer
from ttaswitch.checkpoint import load_checkpoint
from ttaswitch.model import ModelConfig, draw_mask, init_params, masked_losses
from ttaswitch.params import GROUPS
from ttaswitch.source import (SourceBatch, make_source_scenes, source_step,
                              train_source)


def _batch(config, n, seed=3):
    scenes = make_source_scenes(config, n, seed)
    return SourceBatch(images=tuple(s.image for s in scenes),
                       labels=tuple(s.labels for s in scenes))


def test_total_is_exact_sum_of_parts():
    params = init_params(TINY, seed=0)
    total, seg, rec = source_step(_batch(TINY, 2), params, TINY, Optimizer("adam"),
                                  lr=1e-3, mask_seed=0, step=0)
    assert total == seg + rec
    assert np.isfinite([total, seg, rec]).all()
    assert seg > 0 and rec > 0


def test_step_updates_every_group():
    params = init_params(TINY, seed=0)
    before = {g: params.snapshot_bytes(params.group_names(g))
              for g in GROUPS}
    source_step(_batch(TINY, 2), params, TINY, Optimizer("adam"), lr=1e-3,
                mask_seed=0, step=0)
    for g, snap in before.items():
        assert params.snapshot_bytes(params.group_names(g)) != snap, g
    assert all(params[n].grad is None for n in params.names())


def test_batched_step_losses_are_per_image_means():
    params = init_params(TINY, seed=0)
    batch = _batch(TINY, 3)
    step = 15
    ref = np.zeros(2)
    for i, (image, labels) in enumerate(zip(batch.images, batch.labels)):
        # the reference: one image at a time, with mask (seed, step + i)
        pm = draw_mask(TINY.num_patches, TINY.mask_ratio, 9, step + i)
        seg, rec, _ = masked_losses(image, labels, pm, params, TINY)
        ref += [float(seg.data) / 3, float(rec.data) / 3]
    _, seg, rec = source_step(batch, params.clone(), TINY, Optimizer("adam"), 1e-3,
                              mask_seed=9, step=step)
    assert np.all(np.abs(np.array([seg, rec]) - ref) <= 1e-12 * ref)


def test_batched_step_gradient_matches_finite_differences():
    # one entry per parameter group: (name, index)
    entries = (("blocks.0.attn.wq", (1, 2)), ("blocks.1.adapter.up.w", (2, 1)),
               ("seg_head.w", (3, 1)), ("rec_head.w", (0, 3)), ("mask_token", (0, 1, 1)))
    params = init_params(TINY, seed=0)
    assert {params.group_of(n) for n, _ in entries} == set(GROUPS)
    batch = _batch(TINY, 2)

    def loss(store):
        return source_step(batch, store, TINY, Optimizer("sgd"), 1.0, mask_seed=0,
                           step=0)[0]

    stepped = params.clone()
    loss(stepped)   # SGD at lr 1: parameter before minus after is the gradient
    h = 1e-6
    for name, idx in entries:
        tape = params[name].data[idx] - stepped[name].data[idx]
        shifted = []
        for sign in (1.0, -1.0):
            store = params.clone()
            store[name].data[idx] += sign * h
            shifted.append(loss(store))
        fd = (shifted[0] - shifted[1]) / (2 * h)
        assert tape != 0.0, name
        assert abs(tape - fd) <= 1e-8 + 1e-5 * abs(fd), (name, tape, fd)


def test_steps_are_deterministic():
    results = []
    for _ in range(2):
        params = init_params(TINY, seed=4)
        opt = Optimizer("adam")
        batch = _batch(TINY, 2)
        losses = [source_step(batch, params, TINY, opt, 1e-3, mask_seed=4, step=s)
                  for s in range(3)]
        results.append((losses, params.snapshot_bytes()))
    assert results[0][0] == results[1][0]
    assert results[0][1] == results[1][1]


def test_empty_batch_rejected():
    params = init_params(TINY, seed=0)
    with pytest.raises(ValueError, match="empty batch"):
        source_step(SourceBatch((), ()), params, TINY, Optimizer("adam"),
                    1e-3, 0, 0)


def test_failed_step_releases_its_tape(monkeypatch):
    tapes = track_tapes(monkeypatch)
    params = init_params(TINY, seed=0)
    params["seg_head.b"].data[0] = np.inf   # the encoder records; the head overflows
    gc.disable()
    try:
        try:
            source_step(_batch(TINY, 2), params, TINY, Optimizer("adam"), 1e-3, 0, 0)
        except NonFiniteError:
            pass   # not kept: a held traceback would keep the step's frame alive
        else:
            pytest.fail("the step did not raise")
        assert tapes.created >= 1 and len(tapes.alive) == 0
    finally:
        gc.enable()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are set under glibc only")
def test_steps_reuse_freed_tape_memory():
    # Under glibc's default thresholds a batch-8 step of the default model
    # faults its freed tape memory back in: about 7,800 minor faults per step.
    import resource   # POSIX only
    config = ModelConfig()
    params = init_params(config, seed=0)
    opt = Optimizer("adam")
    batch = _batch(config, 8)
    for step in range(2):   # warm-up: Adam moments and the heap reach their size
        source_step(batch, params, config, opt, 1e-3, mask_seed=0, step=step)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for step in range(2, 7):
        source_step(batch, params, config, opt, 1e-3, mask_seed=0, step=step)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
    assert faults < 200, faults


@pytest.mark.parametrize("config, optimizer_kind, lr", [
    pytest.param(ModelConfig(num_classes=9), "adam", 1e-3,   # more classes than the palette
                 id="config0-adam"),
    pytest.param(TINY, "lion", 1e-3, id="config1-lion"),
    pytest.param(TINY, "adam", math.nan, id="lr-nan"),
    pytest.param(TINY, "adam", math.inf, id="lr-inf"),
    pytest.param(TINY, "adam", 0.0, id="lr-zero"),
    pytest.param(TINY, "adam", -1e-3, id="lr-negative"),
])
def test_train_refuses_bad_input_before_writing(tmp_path, config, optimizer_kind, lr):
    with pytest.raises(ValueError):
        train_source(config, num_scenes=2, epochs=1, batch_size=2, lr=lr, seed=0,
                     out_dir=tmp_path / "out", optimizer_kind=optimizer_kind)
    assert not (tmp_path / "out").exists()


def test_train_epochs_zero_saves_init(tmp_path):
    path = train_source(TINY, num_scenes=4, epochs=0, batch_size=2, lr=1e-3,
                        seed=7, out_dir=tmp_path)
    loaded, cfg = load_checkpoint(path)
    assert cfg == TINY
    init = init_params(TINY, seed=7)
    assert loaded.names() == init.names()
    assert loaded.snapshot_bytes() == init.snapshot_bytes()


def test_train_reduces_loss_and_logs(tmp_path):
    train_source(TINY, num_scenes=8, epochs=5, batch_size=4, lr=1e-3, seed=1,
                 out_dir=tmp_path)
    with (tmp_path / "source_log.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert list(rows[0]) == ["epoch", "loss_total", "loss_seg", "loss_rec"]
    first, last = float(rows[0]["loss_total"]), float(rows[-1]["loss_total"])
    assert last < first
    loaded, _ = load_checkpoint(tmp_path / "source.htta")
    assert loaded.snapshot_bytes() != init_params(TINY, seed=1).snapshot_bytes()


def test_train_keys_each_mask_by_its_image_position(tmp_path, monkeypatch):
    # 8 scenes at batch 3 end each epoch on a short batch of two
    keys = []
    draw = model.draw_mask

    def recording_draw(num_patches, mask_ratio, seed, step):
        keys.append(step)
        return draw(num_patches, mask_ratio, seed, step)

    monkeypatch.setattr(model, "draw_mask", recording_draw)
    train_source(TINY, num_scenes=8, epochs=2, batch_size=3, lr=1e-3, seed=2,
                 out_dir=tmp_path)
    assert keys == list(range(16))


def test_train_is_reproducible(tmp_path):
    p1 = train_source(TINY, num_scenes=4, epochs=2, batch_size=2, lr=1e-3, seed=5,
                      out_dir=tmp_path / "a")
    p2 = train_source(TINY, num_scenes=4, epochs=2, batch_size=2, lr=1e-3, seed=5,
                      out_dir=tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()


def test_source_scenes_deterministic():
    a = make_source_scenes(TINY, 3, seed=2)
    b = make_source_scenes(TINY, 3, seed=2)
    assert all(x.image.tobytes() == y.image.tobytes() for x, y in zip(a, b))
    assert a[0].image.tobytes() != a[1].image.tobytes()
