"""Patch-token vision transformer with parallel bottleneck adapters.

The encoder embeds non-overlapping image patches, adds learnable absolute
position embeddings, and applies pre-norm transformer blocks. Each block
carries a parallel adapter branch (down-project, ReLU, up-project, scale)
added to the MLP output; the up-projection starts at zero so a freshly
inserted adapter leaves the function unchanged.

The model is segmentation-only. Two decoders share the encoder output:
per-patch segmentation logits and per-pixel reconstruction. Masking
replaces whole patches with a learnable mask token at input-pixel level.

`masked_losses` is the one training objective of both stages: source
training scores it against true labels, test-time adaptation against the
teacher's pseudo-labels. `masked_backward`, which records and backpropagates
it, is the one training step of both; each stage adds its optimizer step.

Images are `[..., c, h, w]` at the configured size, the one grid the
position embeddings cover. The masking helpers, the encoder, the
reconstruction decoder and `masked_losses` take one image `[c, h, w]` or
a batch `[B, c, h, w]` with one optional leading axis, so source training
records one tape per batch. A single image takes no op that a batch
adds (the logits flatten only for a batch); the adaptation engine always
passes one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import (  # the ten tracing.MODEL_OPS stay bound: perfbench patches them here
    NonFiniteError,
    Tensor,
    add,
    as_tensor,
    attention,
    gelu,
    layer_norm,
    linear,
    ln_affine,
    matmul,
    mul,
    relu,
    reshape,
    scalar_mul,
    softmax_lastdim,
    tape_active,
    transpose,
)
from .params import ParamStore

MLP_RATIO = 4
CHANNELS = 3   # images are RGB


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    patch_size: int = 4
    embed_dim: int = 64
    depth: int = 4
    heads: int = 4
    num_classes: int = 5
    adapter_dim: int = 45
    adapter_scale: float = 0.1
    mask_ratio: float = 0.6

    def __post_init__(self):
        # every field, a subclass's too, has the kind of its default, as the parser
        # reads it (an int is also a float, a bool neither): the checks below then
        # compare numbers, and the echoed config parses back
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise ValueError(f"{f.name} must be {kind.__name__}, got {value!r}")
        if self.image_size < 1 or self.patch_size < 1:
            raise ValueError("image_size and patch_size must be positive")
        if self.image_size % self.patch_size != 0:
            raise ValueError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.embed_dim < 1 or self.depth < 1 or self.heads < 1:
            raise ValueError("embed_dim, depth and heads must be positive")
        if self.embed_dim % self.heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.adapter_dim < 1:
            raise ValueError("adapter_dim must be >= 1 (adapters are always present)")
        if not math.isfinite(self.adapter_scale):
            raise ValueError(f"adapter_scale must be finite, got {self.adapter_scale}")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must lie in [0, 1)")

    def model_config(self) -> ModelConfig:
        """The model fields alone, as a checkpoint records them; a subclass may hold more."""
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return CHANNELS * self.patch_size * self.patch_size

    @property
    def mlp_dim(self) -> int:
        return MLP_RATIO * self.embed_dim


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

_INIT_STD = 0.02


def parameter_layout(config: ModelConfig, include_adapters: bool = True) -> list[tuple]:
    """Every parameter as (name, shape, group, init), in store order.

    `init` is "normal" (N(0, 0.02), drawn in table order), "zeros" or
    "ones". This table is the one schema of the parameters: `init_params`,
    `insert_adapters` and `checkpoint.load_checkpoint` build stores from
    it, and `check_layout` holds any other store to it.
    """
    d, f, r, pd = config.embed_dim, config.mlp_dim, config.adapter_dim, config.patch_dim
    bb = "backbone"
    rows = [("patch_embed.w", (pd, d), bb, "normal"), ("patch_embed.b", (d,), bb, "zeros"),
            ("pos_embed", (config.num_patches, d), bb, "normal")]
    for i in range(config.depth):
        pre = f"blocks.{i}."
        rows += [(pre + "ln1.g", (d,), bb, "ones"), (pre + "ln1.b", (d,), bb, "zeros")]
        for w, b in (("wq", "bq"), ("wk", "bk"), ("wv", "bv"), ("wo", "bo")):
            rows += [(pre + "attn." + w, (d, d), bb, "normal"),
                     (pre + "attn." + b, (d,), bb, "zeros")]
        rows += [(pre + "ln2.g", (d,), bb, "ones"), (pre + "ln2.b", (d,), bb, "zeros"),
                 (pre + "mlp.w1", (d, f), bb, "normal"), (pre + "mlp.b1", (f,), bb, "zeros"),
                 (pre + "mlp.w2", (f, d), bb, "normal"), (pre + "mlp.b2", (d,), bb, "zeros")]
        if include_adapters:
            # zero-initialized up-projection: a fresh adapter is the identity map
            rows += [(pre + "adapter.down.w", (d, r), "adapter", "normal"),
                     (pre + "adapter.down.b", (r,), "adapter", "zeros"),
                     (pre + "adapter.up.w", (r, d), "adapter", "zeros"),
                     (pre + "adapter.up.b", (d,), "adapter", "zeros")]
    c, p = config.num_classes, config.patch_size
    return rows + [("final_ln.g", (d,), bb, "ones"), ("final_ln.b", (d,), bb, "zeros"),
                   ("seg_head.w", (d, c), "seg_head", "normal"),
                   ("seg_head.b", (c,), "seg_head", "zeros"),
                   ("rec_head.w", (d, pd), "rec_head", "normal"),
                   ("rec_head.b", (pd,), "rec_head", "zeros"),
                   ("mask_token", (CHANNELS, p, p), "mask_token", "normal")]


def _fill(store: ParamStore, rows, seed: int) -> ParamStore:
    rng = np.random.default_rng(seed)
    for name, shape, group, init in rows:
        value = (rng.normal(0.0, _INIT_STD, size=shape) if init == "normal"
                 else np.full(shape, 1.0 if init == "ones" else 0.0))
        store.add(name, Tensor(value, requires_grad=True), group)
    return store


def check_layout(entries, config: ModelConfig, include_adapters: bool = True) -> None:
    """Raise ValueError unless the (name, shape, group) entries are the layout.

    Entries compare as a set, in any order; the message names every
    missing, unexpected and mismatched parameter.
    """
    want = {name: (tuple(shape), group)
            for name, shape, group, _ in parameter_layout(config, include_adapters)}
    got = {name: (tuple(shape), group) for name, shape, group in entries}
    missing = sorted(want.keys() - got.keys())
    unexpected = sorted(got.keys() - want.keys())
    mismatched = [f"{n} {got[n]} (expected {want[n]})"
                  for n in sorted(want.keys() & got.keys()) if got[n] != want[n]]
    if missing or unexpected or mismatched:
        raise ValueError(f"parameter layout does not fit the config: missing {missing}, "
                         f"unexpected {unexpected}, mismatched {mismatched}")


def init_params(config: ModelConfig, seed: int = 0, include_adapters: bool = True) -> ParamStore:
    """Freshly initialized parameters. Adapter up-projections start at zero."""
    return _fill(ParamStore(), parameter_layout(config, include_adapters), seed)


def insert_adapters(store: ParamStore, config: ModelConfig, seed: int = 0) -> ParamStore:
    """Add freshly initialized adapter parameters to an adapter-free store.

    Because up-projections start at zero, every model output is unchanged
    until the first optimizer step that touches the adapter group.
    """
    check_layout(store.entries(), config, include_adapters=False)
    return _fill(store, [row for row in parameter_layout(config) if row[2] == "adapter"], seed)


def adapter_fraction(store: ParamStore) -> float:
    counts = store.count_by_group()
    total = sum(counts.values())
    return counts.get("adapter", 0) / total if total else 0.0


# ---------------------------------------------------------------------------
# patch masking
# ---------------------------------------------------------------------------

def draw_mask(num_patches: int, mask_ratio: float, seed: int, step: int) -> np.ndarray:
    """Boolean [num_patches], True at round(ratio * n) distinct masked patches.

    Reproducible from (seed, step). Stack B of them for a batch's [B, n] mask.
    """
    if not 0.0 <= mask_ratio <= 1.0:
        raise ValueError("mask_ratio must lie in [0, 1]")
    if num_patches < 1:
        raise ValueError("num_patches must be positive")
    count = int(np.rint(mask_ratio * num_patches))
    rng = np.random.default_rng((int(seed), int(step)))
    chosen = rng.choice(num_patches, size=count, replace=False)
    m = np.zeros(num_patches, dtype=bool)
    m[chosen] = True
    return m


def _lead(shape, rank: int, what: str) -> tuple[int, ...]:
    """The optional batch axis in front of the trailing `rank` axes."""
    if len(shape) not in (rank, rank + 1):
        raise ValueError(f"{what}: expected rank {rank} or {rank + 1}, got {shape}")
    return tuple(shape[:-rank])


def patchify(x, patch_size: int) -> Tensor:
    """[..., c, h, w] -> [..., num_patches, c*p*p], rows row-major over the grid."""
    x = as_tensor(x)
    lead = _lead(x.shape, 3, "patchify")
    c, h, w = x.shape[-3:]
    if h % patch_size or w % patch_size:
        raise ValueError(f"patchify: {h}x{w} not divisible by patch {patch_size}")
    gh, gw = h // patch_size, w // patch_size
    k = len(lead)
    t = reshape(x, lead + (c, gh, patch_size, gw, patch_size))
    t = transpose(t, tuple(range(k)) + (k + 1, k + 3, k, k + 2, k + 4))
    return reshape(t, lead + (gh * gw, c * patch_size * patch_size))


def unpatchify(tokens, image_size: int, patch_size: int) -> Tensor:
    """Inverse of patchify for square images: [..., n, c*p*p] -> [..., c, h, w]."""
    tokens = as_tensor(tokens)
    lead = _lead(tokens.shape, 2, "unpatchify")
    g, k = image_size // patch_size, len(lead)
    t = reshape(tokens, lead + (g, g, CHANNELS, patch_size, patch_size))
    t = transpose(t, tuple(range(k)) + (k + 2, k, k + 3, k + 1, k + 4))
    return reshape(t, lead + (CHANNELS, image_size, image_size))


def apply_mask(x, patch_mask: np.ndarray, mask_token: Tensor, config: ModelConfig) -> Tensor:
    """Replace masked patches of x with the (learnable) mask token.

    x is [c, h, w] with a boolean mask of [num_patches], or [B, c, h, w]
    with one of [B, num_patches]; any other dtype is refused. Visible patches
    pass through bit-identical; gradient reaches the token only via masked
    positions.
    """
    x = as_tensor(x)
    lead = _lead(x.shape, 3, "apply_mask")
    if x.shape[-3:] != (CHANNELS, config.image_size, config.image_size):
        raise ValueError(f"apply_mask: image shape {x.shape} does not match config")
    if patch_mask.dtype != bool:
        raise ValueError(f"apply_mask: mask must be boolean, got {patch_mask.dtype}")
    if patch_mask.shape != lead + (config.num_patches,):
        raise ValueError("apply_mask: mask length does not match patch count")
    if mask_token.shape != (CHANNELS, config.patch_size, config.patch_size):
        raise ValueError(f"apply_mask: mask token shape {mask_token.shape} invalid")
    xp = patchify(x, config.patch_size)
    col = patch_mask.astype(np.float64)[..., None]
    m = Tensor(np.broadcast_to(col, xp.shape).copy())
    inv = Tensor(1.0 - m.data)
    visible = mul(xp, inv)
    token_row = reshape(mask_token, (1, config.patch_dim))
    masked = mul(token_row, m)
    return unpatchify(add(visible, masked), config.image_size, config.patch_size)


def pixel_mask(patch_mask: np.ndarray, config: ModelConfig) -> np.ndarray:
    """0/1 float mask at pixel level, [..., c, h, w]; 1 where patches are masked."""
    g, p = config.grid, config.patch_size
    lead = patch_mask.shape[:-1]
    grid = patch_mask.reshape(lead + (g, g)).astype(np.float64)
    plane = np.kron(grid, np.ones((p, p)))[..., None, :, :]
    return np.broadcast_to(plane, lead + (CHANNELS, g * p, g * p)).copy()


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def _attention(x, params: ParamStore, config: ModelConfig, pre: str) -> Tensor:
    return attention(x, *(params[pre + "attn." + n]
                          for n in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")),
                     heads=config.heads)


def _mlp(x, params: ParamStore, pre: str) -> Tensor:
    hdn = gelu(linear(x, params[pre + "mlp.w1"], params[pre + "mlp.b1"]))
    return linear(hdn, params[pre + "mlp.w2"], params[pre + "mlp.b2"])


def _adapter(x, params: ParamStore, config: ModelConfig, pre: str) -> Tensor | None:
    if pre + "adapter.down.w" not in params:
        return None
    a = relu(linear(x, params[pre + "adapter.down.w"], params[pre + "adapter.down.b"]))
    a = linear(a, params[pre + "adapter.up.w"], params[pre + "adapter.up.b"])
    return scalar_mul(a, config.adapter_scale)


def _block(x, params: ParamStore, config: ModelConfig, i: int) -> Tensor:
    pre = f"blocks.{i}."
    x = add(x, _attention(ln_affine(x, params[pre + "ln1.g"], params[pre + "ln1.b"]),
                          params, config, pre))
    n2 = ln_affine(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
    m = _mlp(n2, params, pre)
    a = _adapter(n2, params, config, pre)
    return add(x, m if a is None else add(m, a))


def encode(x, params: ParamStore, config: ModelConfig) -> Tensor:
    """Images [..., c, h, w] -> patch features [..., num_patches, embed_dim].

    Images must be the configured size: the position embeddings cover one
    grid.
    """
    x = as_tensor(x)
    size = config.image_size
    if x.shape[-3:] != (CHANNELS, size, size):
        raise ValueError(f"encode: expected [..., {CHANNELS}, {size}, {size}], got {x.shape}")
    tokens = linear(patchify(x, config.patch_size), params["patch_embed.w"],
                    params["patch_embed.b"])
    h = add(tokens, params["pos_embed"])
    for i in range(config.depth):
        try:
            h = _block(h, params, config, i)
        except NonFiniteError as e:
            raise NonFiniteError(f"non-finite activations in block {i}: {e}") from e
    return ln_affine(h, params["final_ln.g"], params["final_ln.b"])


def seg_decode(z, params: ParamStore, config: ModelConfig) -> Tensor:
    """Per-patch class logits [..., num_patches, num_classes]."""
    return linear(z, params["seg_head.w"], params["seg_head.b"])


def rec_decode(z, params: ParamStore, config: ModelConfig) -> Tensor:
    """Per-pixel reconstruction [..., c, h, w] from patch features."""
    tokens = linear(z, params["rec_head.w"], params["rec_head.b"])
    return unpatchify(tokens, config.image_size, config.patch_size)


def masked_losses(image, labels, patch_mask: np.ndarray, params: ParamStore,
                  config: ModelConfig) -> tuple[Tensor, Tensor, Tensor]:
    """The masked objective; returns (loss_seg, loss_rec, logits).

    Masks the image with the learnable token, encodes it once, and scores
    the segmentation logits by cross-entropy against `labels` and the
    reconstruction by L1 over the masked pixels of the original image. A
    non-finite image raises NonFiniteError before any forward.

    A batch (image [B, c, h, w], labels [B, n], mask [B, n]) is scored in
    one pass: the logits flatten to [B*n, c] for one cross-entropy, and one
    L1 pools the masked pixels of every image. Both pooled means equal the
    mean of the per-image losses, because every image has n valid labels
    and every mask drawn by `draw_mask` covers round(ratio * n) patches,
    so each image brings the same number of terms to each sum.
    """
    x_img = as_tensor(image)
    tokens = encode(apply_mask(x_img, patch_mask, params["mask_token"], config),
                    params, config)
    logits = seg_decode(tokens, params, config)
    flat = logits if logits.ndim == 2 else reshape(logits, (-1, config.num_classes))
    loss_seg = ad.cross_entropy(flat, np.asarray(labels).reshape(-1))
    loss_rec = ad.l1_masked(rec_decode(tokens, params, config), x_img,
                            Tensor(pixel_mask(patch_mask, config)))
    return loss_seg, loss_rec, logits


def masked_backward(image, labels, patch_mask: np.ndarray, params: ParamStore,
                    config: ModelConfig) -> tuple[float, float, float]:
    """Gradients of the masked objective; returns (total, seg, rec) as floats.

    Records `masked_losses` on a fresh tape, backpropagates their sum (one
    addition) into `.grad`, and releases the tape on every exit, raises too.
    """
    tape = ad.Tape()
    try:
        with ad.recording(tape):
            loss_seg, loss_rec, _ = masked_losses(image, labels, patch_mask, params, config)
            loss_total = add(loss_seg, loss_rec)
            ad.backward(loss_total)
    finally:
        tape.nodes.clear()   # break the tape -> node -> tensor -> tape cycle now
    return float(loss_total.data), float(loss_seg.data), float(loss_rec.data)


def predict(image, params: ParamStore, config: ModelConfig) -> np.ndarray:
    """Per-patch labels [num_patches] for an unmasked image, outside any tape.

    Argmax ties resolve to the lowest class index.
    """
    if tape_active():
        raise ValueError("predict is inference-only; no tape may be active")
    z = encode(image, params, config)
    return np.argmax(seg_decode(z, params, config).data, axis=-1)
