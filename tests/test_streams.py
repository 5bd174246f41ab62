import hashlib

import numpy as np
import pytest

from ttaswitch.harness import RunConfig
from ttaswitch.model import ModelConfig
from ttaswitch.streams import (CORRUPTIONS, MAX_CLASSES, apply_corruption,
                               _box_blur, build_stream, child_seed, generate_scene,
                               majority_patch_labels)

SPEC = ModelConfig(image_size=16, patch_size=4, num_classes=5)


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------

def test_scene_determinism_and_ranges():
    a = generate_scene(123, SPEC)
    b = generate_scene(123, SPEC)
    assert a.image.tobytes() == b.image.tobytes()
    assert np.array_equal(a.class_map, b.class_map)
    assert np.array_equal(a.labels, b.labels)
    assert a.image.shape == (3, 16, 16)
    assert a.image.min() >= 0.0 and a.image.max() <= 1.0
    assert a.labels.shape == (SPEC.num_patches,)
    assert generate_scene(124, SPEC).image.tobytes() != a.image.tobytes()


def test_scene_objects_distinct_classes():
    for seed in range(20):
        scene = generate_scene(seed, SPEC)
        classes = [obj[0] for obj in scene.layout]
        assert 2 <= len(classes) <= 4
        assert len(set(classes)) == len(classes)
        assert all(1 <= c < SPEC.num_classes for c in classes)
        assert set(np.unique(scene.class_map)) <= set(range(SPEC.num_classes))


def test_majority_labels_hand_case():
    cmap = np.array([[0, 1, 2, 2],
                     [1, 1, 2, 2],
                     [0, 0, 3, 0],
                     [1, 1, 0, 3]])
    labels = majority_patch_labels(cmap, patch_size=2, num_classes=4)
    # patch 0: {0,1,1,1} -> 1; patch 1: all 2 -> 2
    # patch 2: {0,0,1,1} tie -> lowest index 0; patch 3: {3,0,0,3} tie -> 0
    assert labels.tolist() == [1, 2, 0, 0]


def test_majority_labels_match_per_patch_loop():
    rng = np.random.default_rng(8)
    for trial in range(300):
        k, p, g = int(rng.integers(2, 9)), int(rng.choice([2, 4])), int(rng.integers(1, 9))
        cmap = rng.integers(0, 2 if trial % 2 else k, (g * p, g * p))   # odd trials: many ties
        patches = cmap.reshape(g, p, g, p).transpose(0, 2, 1, 3).reshape(g * g, p * p)
        expected = [np.argmax(np.bincount(row, minlength=k)) for row in patches]
        assert majority_patch_labels(cmap, p, k).tolist() == expected


# ---------------------------------------------------------------------------
# corruptions
# ---------------------------------------------------------------------------

def test_fog_formula_exact():
    x = generate_scene(7, SPEC).image
    s = 0.5
    out = apply_corruption(x, "fog", s, 3)
    expected = np.clip((1.0 - 0.6 * s) * x + 0.6 * s, 0.0, 1.0)
    assert np.array_equal(out, expected)


def test_night_formula_exact():
    x = generate_scene(7, SPEC).image
    s = 0.8
    out = apply_corruption(x, "night", s, 11)
    rng = np.random.default_rng(11)
    expected = np.clip(x * (1.0 - 0.8 * s) + rng.normal(0.0, 0.05 * s, size=x.shape),
                       0.0, 1.0)
    assert np.array_equal(out, expected)


def test_snow_formula_exact():
    x = generate_scene(9, SPEC).image
    s = 1.0
    out = apply_corruption(x, "snow", s, 5)
    rng = np.random.default_rng(5)
    expected = 0.5 + (x - 0.5) * (1.0 - 0.35 * s)
    h, w = x.shape[1:]
    flat = rng.choice(h * w, size=int(round(0.1 * s * h * w)), replace=False)
    ys, xs = np.divmod(flat, w)
    expected[:, ys, xs] = 0.15 * expected[:, ys, xs] + 0.85
    assert np.array_equal(out, np.clip(expected, 0.0, 1.0))


def test_rain_properties():
    x = generate_scene(13, SPEC).image
    out = apply_corruption(x, "rain", 0.8, 2)
    out2 = apply_corruption(x, "rain", 0.8, 2)
    assert np.array_equal(out, out2)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert not np.array_equal(out, x)
    assert not np.array_equal(out, apply_corruption(x, "rain", 0.8, 3))


def test_box_blur_is_scipy_uniform_filter_bit_for_bit():
    from scipy import ndimage
    rng = np.random.default_rng(0)
    images = [rng.random((3, 32, 32)) if i % 2 else rng.normal(size=(3, 32, 32)) * 10.0
              for i in range(60)]
    for x in images + [np.full((3, 32, 32), -0.0)]:   # scipy's sums start at +0.0
        ours = ref = x
        for _ in range(3):   # chained, as rain blurs up to three times
            ours = _box_blur(ours)
            ref = ndimage.uniform_filter(ref, size=(1, 3, 3), mode="nearest")
            assert ours.tobytes() == ref.tobytes()


def test_rain_matches_a_scipy_reference():
    from scipy import ndimage
    x = generate_scene(13, ModelConfig()).image
    for s in (0.4, 0.8, 1.0):
        # replay _rain's draws, blurring with scipy's own filter
        rng = np.random.default_rng(21)
        _, h, w = x.shape
        ref = x.copy()
        for _ in range(int(round(25 * s))):
            length = int(rng.integers(6, 13))
            y0 = int(rng.integers(0, max(h - length, 1)))
            x0 = int(rng.integers(0, w))
            slant = int(rng.integers(-2, 3))
            ys = y0 + np.arange(length)
            xs = x0 + np.rint(np.linspace(0.0, slant, length)).astype(int)
            keep = (ys < h) & (xs >= 0) & (xs < w)
            ref[:, ys[keep], xs[keep]] = np.minimum(ref[:, ys[keep], xs[keep]] + 0.45, 1.0)
        for _ in range(int(np.ceil(3 * s))):
            ref = ndimage.uniform_filter(ref, size=(1, 3, 3), mode="nearest")
        out = apply_corruption(x, "rain", s, 21)
        assert out.tobytes() == np.clip(ref, 0.0, 1.0).tobytes()


def test_severity_zero_is_identity_copy():
    x = generate_scene(1, SPEC).image
    for kind in CORRUPTIONS:
        out = apply_corruption(x, kind, 0.0, 1)
        assert np.array_equal(out, x)
        assert out is not x


def test_corruption_validation():
    x = generate_scene(1, SPEC).image
    with pytest.raises(ValueError, match="unknown corruption 'blur'"):
        apply_corruption(x, "blur", 0.5, 0)
    with pytest.raises(ValueError, match="severity"):
        apply_corruption(x, "fog", 1.5, 0)
    with pytest.raises(ValueError, match="expected"):
        apply_corruption(np.zeros((16, 16)), "fog", 0.5, 0)


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

def test_default_stream_schedule():
    stream = list(build_stream(SPEC, CORRUPTIONS, per_domain=40, rounds=3, seed=0))
    rows = [(i.t, i.domain, i.round) for i in stream]
    assert len(rows) == 480
    assert rows[0] == (0, "fog", 0)
    assert rows[159] == (159, "snow", 0)
    assert rows[160] == (160, "fog", 1)
    assert rows[479] == (479, "snow", 2)
    assert [t for t, _, _ in rows] == list(range(480))
    assert all(i.scene_seed == child_seed(0, i.t) for i in stream)


def test_stream_order_determinism_and_single_pass():
    args = dict(config=SPEC, domains=("fog", "night"), per_domain=2, rounds=2,
                seed=5, severity=0.8)
    a = list(build_stream(**args))
    assert [i.domain for i in a] == ["fog", "fog", "night", "night"] * 2
    assert [i.round for i in a] == [0] * 4 + [1] * 4
    assert [i.t for i in a] == list(range(8))
    stream = build_stream(**args)
    b = list(stream)
    with pytest.raises(StopIteration):
        next(stream)
    for x, y in zip(a, b):
        assert x.image.tobytes() == y.image.tobytes()
        assert np.array_equal(x.labels, y.labels)


def test_stream_labels_match_clean_scene():
    for inst in build_stream(SPEC, ("fog", "rain"), per_domain=2, rounds=1, seed=9):
        clean = generate_scene(inst.scene_seed, SPEC)
        assert np.array_equal(inst.labels, clean.labels)
        assert not np.array_equal(inst.image, clean.image)  # pixels corrupted


def test_stream_validation():
    with pytest.raises(ValueError, match="at least one domain"):
        build_stream(SPEC, (), 1, 1, 0)
    with pytest.raises(ValueError, match="unknown corruption"):
        build_stream(SPEC, ("blur",), 1, 1, 0)
    with pytest.raises(ValueError, match="unknown corruption 'clean'"):
        build_stream(SPEC, ("clean",), 1, 1, 0)
    with pytest.raises(ValueError, match="severity"):
        build_stream(SPEC, ("fog",), 1, 1, 0, severity=1.5)
    with pytest.raises(ValueError, match=">= 1"):
        build_stream(SPEC, ("fog",), 0, 1, 0)
    with pytest.raises(ValueError, match="non-negative"):   # at the call, not on first next
        build_stream(SPEC, ("fog",), 1, 1, -1)


def test_default_stream_bytes_are_pinned():
    """The default recipe's 480 stream instances at seed 0, image and label bytes.

    Every run and benchmark workload adapts on this stream, so a change that
    should leave outputs alone must leave this hash alone. An intended change
    to rendering or corruption, or a numpy release that changes a Generator
    stream, updates the pin only together with a CHANGES.md entry saying why.
    """
    cfg = RunConfig()
    digest = hashlib.sha256()
    for inst in build_stream(cfg.model_config(), cfg.domains, cfg.per_domain, cfg.rounds,
                             seed=0, severity=cfg.severity):
        digest.update(inst.image.tobytes())
        digest.update(inst.labels.tobytes())
    assert inst.t == 479
    assert digest.hexdigest() == \
        "2b70d047222c6d061e190594f8ca4d1ea12774ad7e08538588ba2e74f4203bbd"


def test_two_class_scenes_hold_one_object():
    spec = ModelConfig(image_size=16, patch_size=4, num_classes=2)
    for seed in range(5):
        scene = generate_scene(seed, spec)
        assert [obj[0] for obj in scene.layout] == [1]
        assert set(np.unique(scene.labels)) <= {0, 1}


def test_scene_palette_bound():
    assert MAX_CLASSES == 8
    generate_scene(0, ModelConfig(image_size=16, patch_size=4, num_classes=MAX_CLASSES))
    with pytest.raises(ValueError, match="palette"):
        generate_scene(0, ModelConfig(image_size=16, patch_size=4, num_classes=9))
    with pytest.raises(ValueError, match="palette"):
        next(build_stream(ModelConfig(num_classes=9), ("fog",), 1, 1, 0))


def test_label_census_covers_every_class():
    seen = np.zeros(SPEC.num_classes, dtype=bool)
    for seed in range(1000):
        scene = generate_scene(seed, SPEC)
        seen[np.unique(scene.labels)] = True
    assert seen.all(), f"classes missing from 1000-scene census: {np.where(~seen)[0]}"


def test_corruption_preserves_patch_labels():
    for i in range(100):
        scene = generate_scene(1000 + i, SPEC)
        kind = CORRUPTIONS[i % len(CORRUPTIONS)]
        corrupted = apply_corruption(scene.image, kind, 0.8, i)
        assert corrupted.shape == scene.image.shape
        relabeled = majority_patch_labels(scene.class_map, SPEC.patch_size, SPEC.num_classes)
        assert np.array_equal(relabeled, scene.labels)
