import numpy as np
import pytest

from ttaswitch.metrics import compute_miou


def test_miou_identity_and_disjoint():
    assert compute_miou([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0
    assert compute_miou([1, 1, 1], [0, 0, 0]) == 0.0


def test_miou_hand_oracle():
    # class 0: inter {i0}, union {i0,i1,i3} -> 1/3; class 1: inter {i2},
    # union {i1,i2,i3} -> 1/3; mean = 1/3
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 0])
    assert compute_miou(gt, pred) == pytest.approx(1 / 3, abs=1e-12)


def test_miou_ignores_absent_classes():
    # class 7 occurs nowhere, so it cannot dilute the mean
    gt = np.array([0, 0, 2, 2])
    pred = np.array([0, 0, 2, 2])
    assert compute_miou(gt, pred) == 1.0
    # a class present only in the prediction still counts (IoU 0)
    assert compute_miou(np.array([0, 0]), np.array([0, 3])) == pytest.approx(0.25)
    # gt {0}: pred-class-3 adds a zero-IoU class: (1/2 + 0)/2


def test_miou_validation():
    with pytest.raises(ValueError, match="empty"):
        compute_miou([], [])
    with pytest.raises(ValueError, match="shape"):
        compute_miou([0, 1], [0, 1, 2])
    with pytest.raises(ValueError, match="integer"):
        compute_miou([0.5, 1.0], [0.5, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        compute_miou([-1, 0], [0, 0])



def test_miou_matches_per_class_loop_on_random_labels():
    rng = np.random.default_rng(5)
    for trial in range(400):
        k = int(rng.integers(1, 9))
        shape = (int(rng.integers(1, 80)),) if trial % 2 else (3, int(rng.integers(1, 30)))
        gt, pred = rng.integers(0, k, shape), rng.integers(0, k, shape)
        ious = [np.count_nonzero((gt == c) & (pred == c))
                / np.count_nonzero((gt == c) | (pred == c)) for c in np.union1d(gt, pred)]
        assert compute_miou(gt, pred) == float(np.mean(ious))
