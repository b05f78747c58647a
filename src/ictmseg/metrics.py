"""Segmentation quality scores: Dice, IoU, accuracy and Cohen's kappa."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import IndicatorSet

__all__ = [
    "ConfusionCounts",
    "confusion",
    "dsc",
    "iou",
    "accuracy",
    "kappa",
    "score_masks",
    "multiphase_report",
    "match_phases",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    """Per-pixel counts; both inputs must be strictly 0/1."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    for name, m in (("pred", pred), ("truth", truth)):
        if not np.isin(m, (0, 1)).all():
            raise ValueError(f"{name} mask is not binary")
    p = pred.astype(bool)
    t = truth.astype(bool)
    return ConfusionCounts(
        tp=int(np.count_nonzero(p & t)),
        fp=int(np.count_nonzero(p & ~t)),
        fn=int(np.count_nonzero(~p & t)),
        tn=int(np.count_nonzero(~p & ~t)),
    )


def dsc(counts: ConfusionCounts) -> float:
    """Dice similarity 2tp / (2tp + fp + fn); 1 when both masks are empty."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    return 1.0 if denom == 0 else 2.0 * counts.tp / denom


def iou(counts: ConfusionCounts) -> float:
    """Jaccard index tp / (tp + fp + fn); 1 when both masks are empty."""
    denom = counts.tp + counts.fp + counts.fn
    return 1.0 if denom == 0 else counts.tp / denom


def accuracy(counts: ConfusionCounts) -> float:
    if counts.total == 0:
        raise ValueError("empty confusion counts")
    return (counts.tp + counts.tn) / counts.total


def kappa(counts: ConfusionCounts) -> float:
    """Cohen's kappa with the two-rater marginal-product chance term.

    When both raters are constant and identical (p_e = 1) the score is
    returned as 1 by convention.
    """
    n = counts.total
    if n == 0:
        raise ValueError("empty confusion counts")
    p_o = accuracy(counts)
    p_e = ((counts.tp + counts.fp) * (counts.tp + counts.fn)
           + (counts.fn + counts.tn) * (counts.fp + counts.tn)) / (n * n)
    if p_e == 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def score_masks(pred: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """All four scores for one binary mask pair."""
    counts = confusion(pred, truth)
    return {"dsc": dsc(counts), "iou": iou(counts),
            "accuracy": accuracy(counts), "kappa": kappa(counts)}


def _max_overlap_assignment(overlap: np.ndarray) -> np.ndarray:
    """Column of each row that maximizes the total overlap: the Hungarian
    method, adding one row at a time along a shortest augmenting path over
    row and column potentials, O(n^3) and deterministic."""
    cost = -np.asarray(overlap, dtype=np.float64)
    n = cost.shape[0]
    u, v = np.zeros(n + 1), np.zeros(n + 1)
    row_of = np.zeros(n + 1, dtype=np.int64)    # 1-based row at column j; 0: free
    for i in range(1, n + 1):
        row_of[0], j0 = i, 0
        minv = np.full(n + 1, np.inf)
        way = np.zeros(n + 1, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            cur = np.concatenate(([np.inf], cost[i0 - 1] - u[i0] - v[1:]))
            relax = ~used & (cur < minv)
            minv[relax], way[relax] = cur[relax], j0
            j0 = int(np.argmin(np.where(used, np.inf, minv)))
            delta = minv[j0]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
        while j0:
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    cols = np.empty(n, dtype=np.int64)
    cols[row_of[1:] - 1] = np.arange(n)
    return cols


def match_phases(pred: IndicatorSet, truth: IndicatorSet) -> IndicatorSet:
    """Permute prediction phases to maximize total overlap with the truth.

    Segmentation phase indices are arbitrary. The best permutation is an
    assignment problem, solved here without scipy.optimize, whose import
    alone adds ~20 MB of resident memory and ~0.14 s to a run.
    """
    n = pred.n
    if n != truth.n:
        raise ValueError(f"phase count mismatch: {n} vs {truth.n}")
    # overlap[i, j] counts the pixels labelled i in pred and j in truth
    pairs = pred.labels().ravel() * n + truth.labels().ravel()
    overlap = np.bincount(pairs, minlength=n * n).reshape(n, n)
    return IndicatorSet.from_labels(_max_overlap_assignment(overlap)[pred.labels()], n)


def multiphase_report(pred: IndicatorSet, truth: IndicatorSet) -> list[dict]:
    """One-vs-rest scores per phase. Phases are compared index to index."""
    if pred.n != truth.n:
        raise ValueError(f"phase count mismatch: {pred.n} vs {truth.n}")
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return [{"class": f"phase_{i}", **score_masks(pred.labels() == i, truth.labels() == i)}
            for i in range(pred.n)]
