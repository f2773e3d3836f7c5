"""Classification metrics: accuracy and rank-based AUROC.

AUROC is the Mann-Whitney probability that a random positive outscores a
random negative, ties counting half. The implementation ranks with
midranks (O(n log n)); tests hold it to the O(n^2) pair-count oracle.

A single-class label vector has no defined AUROC. Such classes raise
UndefinedMetricError here and are excluded (not imputed) from mean
AUROC, because imputation silently biases small desk-scale splits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ShapeError, UndefinedMetricError


@dataclass
class MetricBundle:
    """Evaluation results; fields irrelevant to the task kind stay None.

    ``mean_auroc`` is always the arithmetic mean of the present (non-None)
    per-class values.
    """

    n_samples: int
    loss: float | None = None
    accuracy: float | None = None
    per_class_auroc: list[float | None] | None = None
    mean_auroc: float | None = None
    absent_classes: list[int] = field(default_factory=list)

    def to_record(self) -> dict:
        return asdict(self)


def accuracy(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Fraction of positions where the class predictions agree."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape or predicted.ndim != 1:
        raise ShapeError(
            f"accuracy: need equal-length vectors, got {predicted.shape} vs {actual.shape}"
        )
    if predicted.size == 0:
        raise ShapeError("accuracy: empty input")
    return float(np.mean(predicted == actual))


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUROC of real-valued scores against binary labels."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError(
            f"auroc: need equal-length vectors, got {scores.shape} vs {labels.shape}"
        )
    if not np.isin(labels, (0, 1)).all():
        raise UndefinedMetricError("auroc: labels must be exactly 0 or 1")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"auroc: undefined with {n_pos} positives and {n_neg} negatives"
        )
    ranks = _midranks(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    boundaries = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
    counts = np.diff(boundaries)
    # mean of positions boundaries[k]+1 .. boundaries[k+1] (1-based)
    group_ranks = (boundaries[:-1] + boundaries[1:] + 1) / 2.0
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(group_ranks, counts)
    return ranks


def mean_auroc(per_class: list[float | None]) -> float:
    """Mean over present classes; absent (None) entries are excluded."""
    present = [v for v in per_class if v is not None]
    if not present:
        raise UndefinedMetricError("mean_auroc: no class has a defined AUROC")
    return float(np.mean(present))


def per_class_auroc(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[list[float | None], list[int]]:
    """AUROC per column of (N, K) scores/labels.

    Returns (values, absent) where absent lists the single-class columns
    whose AUROC is undefined; those positions hold None.
    """
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ShapeError(
            f"per_class_auroc: need matching (N, K) arrays, got {scores.shape} vs {labels.shape}"
        )
    values: list[float | None] = []
    absent: list[int] = []
    for k in range(scores.shape[1]):
        try:
            values.append(auroc(scores[:, k], labels[:, k]))
        except UndefinedMetricError:
            values.append(None)
            absent.append(k)
    return values, absent


def roc_points(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """ROC curve vertices as rows (threshold, fpr, tpr).

    Predicting positive at score >= threshold; thresholds run over the
    distinct scores in descending order, preceded by +inf (the (0, 0)
    corner). The final row is always (min score, 1, 1).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError("roc_points: need equal-length vectors")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("roc_points: need both classes")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_pos = (labels[order] == 1).astype(np.int64)
    tp = np.cumsum(sorted_pos)
    fp = np.cumsum(1 - sorted_pos)
    last_of_group = np.r_[sorted_scores[1:] != sorted_scores[:-1], True]
    idx = np.flatnonzero(last_of_group)
    rows = [(np.inf, 0.0, 0.0)]
    for i in idx:
        rows.append((float(sorted_scores[i]), fp[i] / n_neg, tp[i] / n_pos))
    return np.array(rows, dtype=np.float64)
