"""Score formula tests against hand-counted confusion matrices."""

import numpy as np
import pytest

from ictmseg.energy import IndicatorSet
from ictmseg.metrics import (
    ConfusionCounts,
    accuracy,
    confusion,
    dsc,
    iou,
    kappa,
    match_phases,
    multiphase_report,
    score_masks,
)

from oracles import best_overlap_exhaustive, float_masks

rng = np.random.default_rng(31)


def test_confusion_identical_and_complement():
    truth = np.array([[1.0, 0.0], [1.0, 0.0]])
    same = confusion(truth, truth)
    assert (same.fp, same.fn) == (0, 0)
    flipped = confusion(1.0 - truth, truth)
    assert (flipped.tp, flipped.tn) == (0, 0)


def test_confusion_hand_count():
    pred = np.array([[1.0, 1.0, 0.0, 0.0]])
    truth = np.array([[1.0, 0.0, 0.0, 0.0]])
    c = confusion(pred, truth)
    assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 0, 2)


def test_confusion_rejects_nonbinary():
    with pytest.raises(ValueError):
        confusion(np.array([[0.5]]), np.array([[1.0]]))


def test_scores_on_hand_counts():
    c = ConfusionCounts(tp=1, fp=1, fn=0, tn=2)
    assert dsc(c) == pytest.approx(2.0 / 3.0)
    assert iou(c) == pytest.approx(0.5)
    assert accuracy(c) == pytest.approx(0.75)
    assert kappa(c) == pytest.approx(0.5)


def test_scores_identical_nonempty_masks():
    mask = (rng.random((10, 10)) > 0.5).astype(float)
    scores = score_masks(mask, mask)
    assert all(v == 1.0 for k, v in scores.items())


def test_scores_disjoint_halves():
    pred = np.zeros((4, 4))
    pred[:2] = 1.0
    c = confusion(pred, 1.0 - pred)
    assert dsc(c) == 0.0 and iou(c) == 0.0


def test_empty_empty_convention():
    c = ConfusionCounts(tp=0, fp=0, fn=0, tn=9)
    assert dsc(c) == 1.0 and iou(c) == 1.0
    assert kappa(c) == 1.0  # p_e = 1: flagged convention


def test_dsc_iou_relation():
    for _ in range(50):
        counts = ConfusionCounts(*(int(v) for v in rng.integers(0, 50, size=4)))
        if counts.tp + counts.fp + counts.fn == 0:
            continue
        j = iou(counts)
        assert dsc(counts) == pytest.approx(2.0 * j / (1.0 + j))


def test_metric_symmetry():
    a = (rng.random((12, 12)) > 0.4).astype(float)
    b = (rng.random((12, 12)) > 0.6).astype(float)
    sab = score_masks(a, b)
    sba = score_masks(b, a)
    for key in ("dsc", "iou", "accuracy", "kappa"):
        assert sab[key] == pytest.approx(sba[key])


def test_metric_ranges():
    for _ in range(50):
        counts = ConfusionCounts(*(int(v) for v in rng.integers(0, 30, size=4)))
        if counts.total == 0:
            continue
        assert 0.0 <= dsc(counts) <= 1.0
        assert 0.0 <= iou(counts) <= 1.0
        assert 0.0 <= accuracy(counts) <= 1.0
        assert -1.0 <= kappa(counts) <= 1.0


def labels_to_set(labels, n):
    return IndicatorSet.from_labels(np.asarray(labels, dtype=np.int64), n)


def test_multiphase_identical():
    labels = rng.integers(0, 3, size=(8, 8))
    u = labels_to_set(labels, 3)
    rows = multiphase_report(u, u)
    assert len(rows) == 3
    for row in rows:
        assert row["dsc"] == 1.0 and row["iou"] == 1.0


def test_multiphase_consistent_relabeling_invariant():
    labels_p = rng.integers(0, 3, size=(9, 9))
    labels_t = rng.integers(0, 3, size=(9, 9))
    rows = multiphase_report(labels_to_set(labels_p, 3), labels_to_set(labels_t, 3))
    perm = [2, 0, 1]
    remap = np.vectorize(lambda v: perm[v])
    rows_perm = multiphase_report(labels_to_set(remap(labels_p), 3),
                                  labels_to_set(remap(labels_t), 3))
    for i, j in enumerate(perm):
        assert rows[i]["dsc"] == pytest.approx(rows_perm[j]["dsc"])
        assert rows[i]["kappa"] == pytest.approx(rows_perm[j]["kappa"])


def test_multiphase_phase_count_mismatch():
    with pytest.raises(ValueError):
        multiphase_report(labels_to_set([[0, 1]], 2), labels_to_set([[0, 2]], 3))


def test_match_phases_repairs_label_swap():
    labels = rng.integers(0, 2, size=(10, 10))
    truth = labels_to_set(labels, 2)
    swapped = labels_to_set(1 - labels, 2)
    fixed = match_phases(swapped, truth)
    assert np.array_equal(float_masks(fixed), float_masks(truth))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_match_phases_total_overlap_matches_exhaustive(n):
    for _ in range(5):
        pred = labels_to_set(rng.integers(0, n, size=(7, 9)), n)
        truth = labels_to_set(rng.integers(0, n, size=(7, 9)), n)
        matched = match_phases(pred, truth)
        got, want = float_masks(matched), float_masks(truth)
        total = sum(np.count_nonzero((got[i] > 0) & (want[i] > 0)) for i in range(n))
        assert total == best_overlap_exhaustive(float_masks(pred), float_masks(truth))


def test_match_phases_undoes_twelve_phase_relabeling():
    # 12! permutations: out of reach for an exhaustive search
    labels = rng.permutation(np.arange(16 * 16) % 12).reshape(16, 16)
    perm = rng.permutation(12)
    truth = labels_to_set(labels, 12)
    fixed = match_phases(labels_to_set(perm[labels], 12), truth)
    assert np.array_equal(float_masks(fixed), float_masks(truth))
