"""Synthetic scenes, label-preserving corruptions, and the target stream.

A scene is a textured RGB background (class 0) plus a few geometric
objects of distinct non-background classes; the dense class map is reduced
to per-patch majority labels. Scenes are rendered for a `ModelConfig`, of
which only `image_size`, `patch_size` and `num_classes` are read; the
palette holds at most `MAX_CLASSES` classes. Corruptions transform pixels
only, so labels carry over untouched; rain's 3x3 box blur is numpy code
that reproduces scipy.ndimage.uniform_filter bit for bit. The target
stream cycles the corruption domains for a fixed number of rounds and is
a single-pass iterator: each instance is yielded exactly once and the
stream cannot be rewound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelConfig

CORRUPTIONS = ("fog", "night", "rain", "snow")

# fixed base colors per non-background class; jittered per scene
_CLASS_COLORS = np.array([
    (0.85, 0.25, 0.20),
    (0.20, 0.75, 0.30),
    (0.25, 0.35, 0.85),
    (0.90, 0.80, 0.25),
    (0.70, 0.30, 0.80),
    (0.90, 0.55, 0.15),
    (0.20, 0.75, 0.75),
])
MAX_CLASSES = len(_CLASS_COLORS) + 1   # background plus one colour per object class
_SHAPES = ("disk", "square", "triangle", "diamond")
MIN_OBJECTS, MAX_OBJECTS = 2, 5   # objects per scene, capped by the classes available


@dataclass(frozen=True)
class Scene:
    image: np.ndarray        # [3, h, w] float64 in [0, 1]
    class_map: np.ndarray    # [h, w] int64 dense labels
    labels: np.ndarray       # [num_patches] int64 per-patch majority labels
    layout: tuple            # ((class, shape, cy, cx, radius), ...)


def _shape_mask(kind: str, yy, xx, cy: float, cx: float, r: float) -> np.ndarray:
    if kind == "disk":
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    if kind == "square":
        return np.maximum(np.abs(yy - cy), np.abs(xx - cx)) <= r
    if kind == "triangle":
        return (yy >= cy - r) & (yy <= cy + r) & (np.abs(xx - cx) <= (yy - cy + r) / 2.0)
    if kind == "diamond":
        return np.abs(yy - cy) + np.abs(xx - cx) <= r
    raise ValueError(f"unknown shape kind '{kind}'")


def generate_scene(seed: int, config: ModelConfig) -> Scene:
    """Deterministic scene for (seed, config); same inputs give identical bytes."""
    if config.num_classes > MAX_CLASSES:
        raise ValueError(f"num_classes {config.num_classes} exceeds the scene palette "
                         f"({MAX_CLASSES} classes)")
    rng = np.random.default_rng(int(seed))
    h = w = config.image_size
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)

    base = rng.uniform(0.30, 0.55, size=3)
    tilt = rng.uniform(-0.12, 0.12, size=(3, 2))
    image = np.empty((3, h, w))
    for c in range(3):
        image[c] = base[c] + tilt[c, 0] * (yy / h) + tilt[c, 1] * (xx / w)
    image += rng.normal(0.0, 0.02, size=image.shape)

    class_map = np.zeros((h, w), dtype=np.int64)
    max_obj = min(MAX_OBJECTS, config.num_classes - 1)
    n_obj = int(rng.integers(min(MIN_OBJECTS, max_obj), max_obj + 1))
    classes = rng.choice(np.arange(1, config.num_classes), size=n_obj, replace=False)
    layout = []
    for cls in classes:
        kind = _SHAPES[(int(cls) - 1) % len(_SHAPES)]
        r = rng.uniform(0.12, 0.26) * config.image_size
        cy = rng.uniform(r * 0.7, h - r * 0.7)
        cx = rng.uniform(r * 0.7, w - r * 0.7)
        mask = _shape_mask(kind, yy, xx, cy, cx, r)
        color = np.clip(_CLASS_COLORS[int(cls) - 1] + rng.uniform(-0.08, 0.08, size=3), 0, 1)
        texture = rng.normal(0.0, 0.03, size=(3, h, w))
        for c in range(3):
            image[c][mask] = color[c] + texture[c][mask]
        class_map[mask] = int(cls)
        layout.append((int(cls), kind, float(cy), float(cx), float(r)))

    image = np.clip(image, 0.0, 1.0)
    labels = majority_patch_labels(class_map, config.patch_size, config.num_classes)
    return Scene(image=image, class_map=class_map, labels=labels, layout=tuple(layout))


def majority_patch_labels(class_map: np.ndarray, patch_size: int, num_classes: int) -> np.ndarray:
    """Per-patch majority class; ties resolve to the lowest class index."""
    g = class_map.shape[0] // patch_size
    patches = class_map.reshape(g, patch_size, g, patch_size).transpose(0, 2, 1, 3)
    onehot = patches.reshape(g * g, -1, 1) == np.arange(num_classes)
    return np.argmax(onehot.sum(axis=1), axis=1)


# ---------------------------------------------------------------------------
# corruptions
# ---------------------------------------------------------------------------

def check_corruption(kind: str, severity: float) -> None:
    """Refuse an unknown corruption kind or a severity outside [0, 1]."""
    if kind not in CORRUPTIONS:
        raise ValueError(f"unknown corruption '{kind}' (expected one of {CORRUPTIONS})")
    if not 0.0 <= severity <= 1.0:
        raise ValueError("severity must lie in [0, 1]")


def apply_corruption(image: np.ndarray, kind: str, severity: float, seed: int) -> np.ndarray:
    """Corrupt pixels; geometry (and therefore labels) is untouched."""
    check_corruption(kind, severity)
    x = np.asarray(image, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"apply_corruption: expected [c, h, w], got {x.shape}")
    s = float(severity)
    if s == 0.0:
        return x.copy()
    out = _CORRUPTION_FNS[kind](x, s, np.random.default_rng(int(seed)))
    return np.clip(out, 0.0, 1.0)


def _fog(x, s, rng):
    return (1.0 - 0.6 * s) * x + 0.6 * s


def _night(x, s, rng):
    return x * (1.0 - 0.8 * s) + rng.normal(0.0, 0.05 * s, size=x.shape)


def _rain(x, s, rng):
    _, h, w = x.shape
    out = x.copy()
    n_streaks = int(round(25 * s))
    for _ in range(n_streaks):
        length = int(rng.integers(6, 13))
        y0 = int(rng.integers(0, max(h - length, 1)))
        x0 = int(rng.integers(0, w))
        slant = int(rng.integers(-2, 3))
        ys = y0 + np.arange(length)
        xs = x0 + np.rint(np.linspace(0.0, slant, length)).astype(int)
        keep = (ys < h) & (xs >= 0) & (xs < w)
        out[:, ys[keep], xs[keep]] = np.minimum(out[:, ys[keep], xs[keep]] + 0.45, 1.0)
    for _ in range(int(np.ceil(3 * s))):
        out = _box_blur(out)
    return out


def _box_blur(x):
    """`ndimage.uniform_filter(x, size=(1, 3, 3), mode="nearest")`, bit for bit.

    scipy filters down each column (axis -2) and then along each row, each
    line as a running sum over its edge-padded copy p: the first window's
    sum, then one `p[k + 3] - p[k]` per step, each output divided by 3.
    """
    return _running_mean3(_running_mean3(x.swapaxes(-1, -2)).swapaxes(-1, -2))


def _running_mean3(x):
    p = np.concatenate((x[..., :1], x, x[..., -1:]), axis=-1)
    steps = np.empty(x.shape)
    steps[..., 0] = 0.0 + p[..., 0] + p[..., 1] + p[..., 2]   # scipy's sum starts at 0.0
    np.subtract(p[..., 3:], p[..., :-3], out=steps[..., 1:])
    out = np.add.accumulate(steps, axis=-1)
    out /= 3.0
    return out


def _snow(x, s, rng):
    _, h, w = x.shape
    out = 0.5 + (x - 0.5) * (1.0 - 0.35 * s)  # contrast reduction
    n = int(round(0.1 * s * h * w))
    flat = rng.choice(h * w, size=n, replace=False)
    ys, xs = np.divmod(flat, w)
    out[:, ys, xs] = 0.15 * out[:, ys, xs] + 0.85
    return out


_CORRUPTION_FNS = {"fog": _fog, "night": _night, "rain": _rain, "snow": _snow}


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamInstance:
    """One target-stream element. The label field is for evaluation only and
    is never handed to the adaptation engine (whose input is the bare image)."""

    image: np.ndarray
    labels: np.ndarray
    domain: str
    round: int
    t: int
    scene_seed: int


def child_seed(*key: int) -> int:
    """A seed in [0, 2**62) drawn from a generator seeded with the integer tuple `key`."""
    return int(np.random.default_rng(tuple(int(k) for k in key)).integers(0, 2 ** 62))


def _render_instance(config: ModelConfig, scene_seed: int, domain: str, rnd: int, t: int,
                     severity: float) -> StreamInstance:
    """Render the scene for scene_seed and corrupt it for its domain."""
    scene = generate_scene(scene_seed, config)
    image = apply_corruption(scene.image, domain, severity, child_seed(scene_seed, 977))
    return StreamInstance(image=image, labels=scene.labels, domain=domain, round=rnd,
                          t=t, scene_seed=scene_seed)


def build_stream(config: ModelConfig, domains, per_domain: int, rounds: int, seed: int,
                 severity: float = 0.8):
    """Single-pass iterator over rounds x domains x per_domain instances.

    Rounds are 0-indexed: instance t of the default 4 x 40 stream is in round
    t // 160. It renders scene `child_seed(seed, t)`; every seed is drawn at
    the call, so a bad seed is refused there. A run's config_echo.cfg holds
    every argument, so parsing it and calling this replays the run's input.
    """
    domains = list(domains)
    if not domains:
        raise ValueError("build_stream: at least one domain required")
    for d in domains:
        check_corruption(d, severity)
    if per_domain < 1 or rounds < 1:
        raise ValueError("build_stream: per_domain and rounds must be >= 1")
    schedule = [(rnd, domain) for rnd in range(rounds) for domain in domains
                for _ in range(per_domain)]
    scene_seeds = [child_seed(seed, t) for t in range(len(schedule))]
    return (_render_instance(config, scene_seeds[t], domain, rnd, t, severity)
            for t, (rnd, domain) in enumerate(schedule))
