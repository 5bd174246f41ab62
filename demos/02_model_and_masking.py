"""The tiny vision transformer, its adapters, and patch masking.

Shows the parameter budget per group, the reproducible patch mask, the
visible-patch identity of masking, and the zero-init adapter guarantee:
inserting adapters into an adapter-free model changes nothing until they
receive their first update.
"""
import numpy as np

from ttaswitch import model as m
from ttaswitch.model import ModelConfig, init_params, insert_adapters

cfg = ModelConfig()
store = init_params(cfg, seed=0)

print("default model:", cfg.image_size, "px, patch", cfg.patch_size,
      "->", cfg.num_patches, "patches, width", cfg.embed_dim)
counts = store.count_by_group()
total = sum(counts.values())
for group, n in sorted(counts.items()):
    print(f"  {group:<10} {n:>8,}  ({n / total:.1%})")
print(f"  {'total':<10} {total:>8,}")
print(f"adapter fraction: {m.adapter_fraction(store):.4f} (budget: 8-12%)\n")

# a mask is a boolean array over the patches, a pure function of (seed, step)
pm = m.draw_mask(cfg.num_patches, cfg.mask_ratio, seed=7, step=3)
again = m.draw_mask(cfg.num_patches, cfg.mask_ratio, seed=7, step=3)
assert pm.dtype == bool and np.array_equal(pm, again)
print(f"mask at ratio {cfg.mask_ratio}: boolean [{pm.size}], {pm.sum()} patches "
      f"masked (realized {pm.mean():.3f}), reproducible from (seed, step)")

rng = np.random.default_rng(1)
image = rng.uniform(0, 1, (m.CHANNELS, cfg.image_size, cfg.image_size))
masked = m.apply_mask(image, pm, store["mask_token"], cfg).data
orig_patches = m.patchify(image, cfg.patch_size).data
masked_patches = m.patchify(masked, cfg.patch_size).data
visible = ~pm
assert np.array_equal(masked_patches[visible], orig_patches[visible])
print("visible patches are bit-identical to the original image\n")

# zero-init adapters leave a trained model's function untouched
bare = init_params(cfg, seed=0, include_adapters=False)
z0 = m.encode(image, bare, cfg).data.copy()
logits0 = m.seg_decode(m.encode(image, bare, cfg), bare, cfg).data.copy()
insert_adapters(bare, cfg, seed=123)
z1 = m.encode(image, bare, cfg).data
logits1 = m.seg_decode(m.encode(image, bare, cfg), bare, cfg).data
print("max |feature change| after adapter insertion:", float(np.max(np.abs(z1 - z0))))
print("max |logit change| after adapter insertion:  ", float(np.max(np.abs(logits1 - logits0))))
assert np.max(np.abs(z1 - z0)) == 0.0 and np.max(np.abs(logits1 - logits0)) == 0.0
print("adapters start as an exact identity - safe to bolt onto any checkpoint")
