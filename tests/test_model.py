import gc

import numpy as np
import pytest

from helpers import TINY, track_tapes
from ttaswitch.autodiff import (
    NonFiniteError,
    Optimizer,
    Tensor,
    add,
    backward,
    cross_entropy,
    l1_masked,
    recording,
)
from ttaswitch.model import (
    CHANNELS,
    ModelConfig,
    adapter_fraction,
    apply_mask,
    draw_mask,
    encode,
    init_params,
    insert_adapters,
    masked_backward,
    masked_losses,
    parameter_layout,
    patchify,
    pixel_mask,
    predict,
    rec_decode,
    seg_decode,
    unpatchify,
)


def _image(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((CHANNELS, cfg.image_size, cfg.image_size))


# ---------------------------------------------------------------------------
# config and parameters
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(image_size=30, patch_size=4)
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=30, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(adapter_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(mask_ratio=1.5)
    with pytest.raises(ValueError):
        ModelConfig(num_classes=1)
    with pytest.raises(ValueError, match="adapter_scale"):
        ModelConfig(adapter_scale=float("nan"))


def test_default_adapter_budget_in_band():
    store = init_params(ModelConfig(), seed=0)
    frac = adapter_fraction(store)
    assert 0.08 <= frac <= 0.12, frac


def test_param_groups_and_names():
    cfg = TINY
    store = init_params(cfg, seed=1)
    assert store.names() == [row[0] for row in parameter_layout(cfg)]
    counts = store.count_by_group()
    assert set(counts) == {"backbone", "adapter", "seg_head", "rec_head", "mask_token"}
    assert counts["mask_token"] == CHANNELS * cfg.patch_size ** 2
    assert counts["seg_head"] == cfg.embed_dim * cfg.num_classes + cfg.num_classes
    assert counts["rec_head"] == cfg.embed_dim * cfg.patch_dim + cfg.patch_dim


def test_init_is_deterministic():
    a = init_params(TINY, seed=7)
    b = init_params(TINY, seed=7)
    assert a.snapshot_bytes() == b.snapshot_bytes()
    c = init_params(TINY, seed=8)
    assert a.snapshot_bytes() != c.snapshot_bytes()


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

def test_mask_count_and_reproducibility():
    pm = draw_mask(64, 0.75, seed=3, step=11)
    assert pm.dtype == bool and pm.shape == (64,)
    assert pm.sum() == round(0.75 * 64) == 48
    pm2 = draw_mask(64, 0.75, seed=3, step=11)
    assert np.array_equal(pm, pm2)
    pm3 = draw_mask(64, 0.75, seed=3, step=12)
    assert not np.array_equal(pm, pm3)
    assert abs(pm.mean() - 0.75) <= 1.0 / 64
    with pytest.raises(ValueError):
        draw_mask(64, 1.2, 0, 0)


def test_apply_mask_semantics():
    cfg = TINY
    store = init_params(cfg, seed=2)
    x = _image(cfg, seed=5)
    pm = draw_mask(cfg.num_patches, 0.5, seed=1, step=0)
    out = apply_mask(x, pm, store["mask_token"], cfg)

    xp = patchify(Tensor(x), cfg.patch_size).data
    op = patchify(out, cfg.patch_size).data
    tok = store["mask_token"].data.reshape(-1)
    for i in range(cfg.num_patches):
        if pm[i]:
            assert np.array_equal(op[i], tok)
        else:
            assert op[i].tobytes() == xp[i].tobytes()  # visible patches bit-equal


def test_apply_mask_ratio_edges():
    cfg = TINY
    store = init_params(cfg, seed=2)
    x = _image(cfg, seed=6)
    all_visible = apply_mask(x, draw_mask(cfg.num_patches, 0.0, 0, 0), store["mask_token"], cfg)
    assert all_visible.data.tobytes() == np.ascontiguousarray(x).tobytes()
    all_masked = apply_mask(x, draw_mask(cfg.num_patches, 1.0, 0, 0), store["mask_token"], cfg)
    op = patchify(all_masked, cfg.patch_size).data
    assert np.array_equal(op, np.tile(store["mask_token"].data.reshape(1, -1),
                                      (cfg.num_patches, 1)))


def test_mask_token_gradient_only_through_masked_positions():
    cfg = TINY
    store = init_params(cfg, seed=2)
    x = _image(cfg, seed=7)

    def rec_loss(pm):
        store.zero_grad()
        with recording():
            xt = apply_mask(x, pm, store["mask_token"], cfg)
            z = encode(xt, store, cfg)
            rec = rec_decode(z, store, cfg)
            loss = l1_masked(rec, Tensor(x), Tensor(pixel_mask(pm, cfg)))
        backward(loss)
        return store["mask_token"].grad

    g_empty = rec_loss(draw_mask(cfg.num_patches, 0.0, 0, 0))
    assert g_empty is None or np.allclose(g_empty, 0.0)
    g_half = rec_loss(draw_mask(cfg.num_patches, 0.5, 0, 1))
    assert g_half is not None and np.abs(g_half).max() > 0


def test_pixel_mask_counts():
    cfg = TINY
    pm = draw_mask(cfg.num_patches, 0.5, 0, 0)
    m = pixel_mask(pm, cfg)
    assert m.shape == (CHANNELS, cfg.image_size, cfg.image_size)
    assert m.sum() == pm.sum() * cfg.patch_size ** 2 * CHANNELS
    assert set(np.unique(m)) <= {0.0, 1.0}


def test_patchify_roundtrip_bits():
    cfg = TINY
    x = _image(cfg, seed=8)
    t = patchify(Tensor(x), cfg.patch_size)
    back = unpatchify(t, cfg.image_size, cfg.patch_size)
    assert back.data.tobytes() == np.ascontiguousarray(x).tobytes()


def test_batch_axis_masks_each_image_as_alone():
    cfg = TINY
    store = init_params(cfg, seed=2)
    xs = np.stack([_image(cfg, seed=s) for s in (5, 6, 7)])
    pms = [draw_mask(cfg.num_patches, 0.5, seed=1, step=s) for s in range(3)]
    stacked = np.stack(pms)
    out = apply_mask(xs, stacked, store["mask_token"], cfg)
    pix = pixel_mask(stacked, cfg)
    tokens = patchify(Tensor(xs), cfg.patch_size)
    assert tokens.shape == (3, cfg.num_patches, cfg.patch_dim)
    back = unpatchify(tokens, cfg.image_size, cfg.patch_size)
    assert back.data.tobytes() == xs.tobytes()
    for i, pm in enumerate(pms):
        assert out.data[i].tobytes() == apply_mask(xs[i], pm, store["mask_token"],
                                                   cfg).data.tobytes()
        assert pix[i].tobytes() == pixel_mask(pm, cfg).tobytes()
        assert tokens.data[i].tobytes() == patchify(Tensor(xs[i]),
                                                    cfg.patch_size).data.tobytes()
    with pytest.raises(ValueError, match="mask length"):
        apply_mask(xs, pms[0], store["mask_token"], cfg)
    for not_bool in (stacked.astype(np.float64), stacked.astype(np.int64)):
        with pytest.raises(ValueError, match="mask must be boolean"):   # no silent 0.5 -> True
            apply_mask(xs, not_bool, store["mask_token"], cfg)


def test_masked_losses_batch_matches_per_image_mean():
    # tolerances fixed in advance, relative to the largest reference entry
    cfg = TINY
    rng = np.random.default_rng(21)
    store = init_params(cfg, seed=8)
    # random adapters (the up-projections start at zero), so every gradient moves
    for name in store.group_names("adapter"):
        store[name].data[:] = rng.normal(0.0, 0.05, store[name].shape)
    images = np.stack([_image(cfg, seed=s) for s in (30, 31, 32)])
    labels = rng.integers(0, cfg.num_classes, size=(3, cfg.num_patches))
    masks = [draw_mask(cfg.num_patches, cfg.mask_ratio, seed=4, step=s) for s in range(3)]

    ref_losses = np.zeros(2)
    ref_grads = {n: np.zeros(store[n].shape) for n in store.names()}
    for i in range(3):     # the reference: one image at a time, then the mean
        with recording():
            seg, rec, _ = masked_losses(images[i], labels[i], masks[i], store, cfg)
            backward(add(seg, rec))
        ref_losses += [float(seg.data) / 3, float(rec.data) / 3]
        for n in store.names():
            ref_grads[n] += store[n].grad / 3
        store.zero_grad()

    stacked = np.stack(masks)
    with recording():
        seg, rec, logits = masked_losses(images, labels, stacked, store, cfg)
        backward(add(seg, rec))
    assert logits.shape == (3, cfg.num_patches, cfg.num_classes)
    got = np.array([float(seg.data), float(rec.data)])
    assert np.all(np.abs(got - ref_losses) <= 1e-12 * np.abs(ref_losses))
    scale = max(np.abs(g).max() for g in ref_grads.values())
    for n in store.names():
        got, want = store[n].grad, ref_grads[n]
        if n.endswith("attn.bk"):
            # exactly zero: a key bias shifts each score row by a constant,
            # which the softmax ignores; both sides hold rounding residue only
            assert max(np.abs(got).max(), np.abs(want).max()) <= 1e-12 * scale, n
            continue
        assert np.abs(want).max() > 0, n
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), n


def test_masked_backward_releases_its_tape(monkeypatch):
    # Both stages step through masked_backward; see helpers.track_tapes.
    tapes = track_tapes(monkeypatch)
    store = init_params(TINY, seed=0)
    image, labels = _image(TINY), np.zeros(TINY.num_patches, dtype=np.int64)
    mask = draw_mask(TINY.num_patches, TINY.mask_ratio, seed=0, step=0)
    gc.disable()
    try:
        total, seg, rec = masked_backward(image, labels, mask, store, TINY)
        assert total == seg + rec and store["patch_embed.w"].grad is not None
        assert tapes.created == 1 and len(tapes.alive) == 0
        store["seg_head.b"].data[0] = np.inf   # the encoder records; the head overflows
        with pytest.raises(NonFiniteError):
            masked_backward(image, labels, mask, store, TINY)
        assert tapes.created == 2 and len(tapes.alive) == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def test_encode_shapes_and_determinism():
    cfg = TINY
    store = init_params(cfg, seed=3)
    x = _image(cfg, seed=9)
    z1 = encode(x, store, cfg)
    z2 = encode(x, store, cfg)
    assert z1.shape == (cfg.num_patches, cfg.embed_dim)
    assert z1.data.tobytes() == z2.data.tobytes()


def test_encode_zero_image_finite():
    cfg = TINY
    store = init_params(cfg, seed=3)
    z = encode(np.zeros((CHANNELS, cfg.image_size, cfg.image_size)), store, cfg)
    assert np.all(np.isfinite(z.data))


def test_encode_nonfinite_names_block():
    cfg = TINY
    store = init_params(cfg, seed=3)
    store["blocks.1.attn.bq"].data[:] = np.inf  # simulate a blow-up mid-stack
    with pytest.raises(NonFiniteError, match="block 1"):
        encode(_image(cfg), store, cfg)


def test_encode_shape_errors():
    cfg = TINY
    store = init_params(cfg, seed=3)
    with pytest.raises(ValueError):
        encode(np.zeros((1, 8, 8)), store, cfg)
    with pytest.raises(ValueError):
        encode(np.zeros((3, 8, 12)), store, cfg)
    with pytest.raises(ValueError):
        encode(np.zeros((3, 10, 10)), store, cfg)
    # square and patch-divisible, but not the configured size: refused with or
    # without a tape
    big = np.random.default_rng(0).random((CHANNELS, 16, 16))
    with pytest.raises(ValueError, match=r"expected \[\.\.\., 3, 8, 8\], got \(3, 16, 16\)"):
        encode(big, store, cfg)
    with recording():
        with pytest.raises(ValueError, match="expected"):
            encode(big, store, cfg)


def test_decoder_shapes_and_task_guards():
    cfg = TINY
    store = init_params(cfg, seed=4)
    z = encode(_image(cfg), store, cfg)
    logits = seg_decode(z, store, cfg)
    assert logits.shape == (cfg.num_patches, cfg.num_classes)
    rec = rec_decode(z, store, cfg)
    assert rec.shape == (CHANNELS, cfg.image_size, cfg.image_size)


def test_predict_labels():
    cfg = TINY
    store = init_params(cfg, seed=6)
    labels = predict(_image(cfg), store, cfg)
    assert labels.shape == (cfg.num_patches,)
    assert labels.dtype.kind == "i"
    assert np.all((0 <= labels) & (labels < cfg.num_classes))


def test_stores_are_built_from_the_layout():
    def table(include_adapters):
        return {(n, s, g) for n, s, g, _ in parameter_layout(TINY, include_adapters)}

    bare = init_params(TINY, seed=1, include_adapters=False)
    assert set(bare.entries()) == table(False)
    assert set(insert_adapters(bare, TINY, seed=2).entries()) == table(True)
    full = init_params(TINY, seed=1)
    assert set(full.entries()) == table(True)
    for name, _, _, init in parameter_layout(TINY):
        if init != "normal":
            assert np.all(full[name].data == (1.0 if init == "ones" else 0.0)), name


# ---------------------------------------------------------------------------
# adapter identity
# ---------------------------------------------------------------------------

def test_zero_init_adapter_is_identity_until_updated():
    cfg = TINY
    plain = init_params(cfg, seed=11, include_adapters=False)
    x = _image(cfg, seed=12)
    z_before = encode(x, plain, cfg).data.copy()
    seg_before = seg_decode(encode(x, plain, cfg), plain, cfg).data.copy()

    insert_adapters(plain, cfg, seed=13)
    z_after = encode(x, plain, cfg).data
    seg_after = seg_decode(encode(x, plain, cfg), plain, cfg).data
    assert np.max(np.abs(z_after - z_before)) == 0.0
    assert np.max(np.abs(seg_after - seg_before)) == 0.0

    # one adapter-only step changes the function
    with recording():
        z = encode(x, plain, cfg)
        loss = cross_entropy(seg_decode(z, plain, cfg),
                             np.zeros(cfg.num_patches, dtype=np.int64))
    backward(loss)
    Optimizer("adam").step(plain, {"adapter"}, lr=1e-2)
    z_updated = encode(x, plain, cfg).data
    assert np.max(np.abs(z_updated - z_before)) > 0.0

    with pytest.raises(ValueError):
        insert_adapters(plain, cfg, seed=13)


def test_randomized_config_geometry():
    rng = np.random.default_rng(99)
    for _ in range(6):
        patch = int(rng.choice([2, 4]))
        grid = int(rng.integers(2, 5))
        heads = int(rng.choice([1, 2, 4]))
        cfg = ModelConfig(image_size=patch * grid, patch_size=patch,
                          embed_dim=int(heads * rng.integers(4, 9)), depth=int(rng.integers(1, 4)),
                          heads=heads, num_classes=int(rng.integers(2, 7)),
                          adapter_dim=int(rng.integers(2, 9)))
        store = init_params(cfg, seed=int(rng.integers(1000)))
        x = rng.random((CHANNELS, cfg.image_size, cfg.image_size))
        z = encode(x, store, cfg)
        assert z.shape == (cfg.num_patches, cfg.embed_dim)
        assert seg_decode(z, store, cfg).shape == (cfg.num_patches, cfg.num_classes)
        assert rec_decode(z, store, cfg).shape == (CHANNELS, cfg.image_size, cfg.image_size)
