"""Stratified cross-validation, confusion matrices, metrics, AUC.

P is the positive class. Cross-validation counts one confusion matrix over
the pooled predictions of every fold (not by averaging metrics), which equals
the sum of the per-fold matrices, and pools the per-fold scores for a single
AUC. Metric values that would divide zero by zero are reported as explicitly
undefined, never silently 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import IO, NamedTuple, Sequence

import numpy as np

from . import share
from .csvrows import text_cells, write_rows
from .dataset import LABEL_OF, Dataset
from .errors import DataError
from .learn import (
    CostMatrix,
    LearnerSpec,
    Model,
    _value_codes,
    cost_sensitive_predict,
    derive_seeds,
    train_model,
    undersample_rows,
)

REPORT_HEADER = (
    "setting", "tp", "fn", "fp", "tn",
    "accuracy", "recall", "specificity", "precision", "f", "gmean", "auc",
)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    recall: float | None
    specificity: float | None
    precision: float | None
    f_measure: float | None
    g_mean: float | None
    auc: float | None = None


def metrics_from_confusion(cm: ConfusionMatrix) -> MetricsReport:
    """The six closed-form metrics; 0/0 ratios come back as None (undefined)."""
    if cm.total == 0:
        raise DataError("cannot compute metrics of an empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else None
    specificity = cm.tn / (cm.tn + cm.fp) if cm.tn + cm.fp else None
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else None
    f_measure = None
    if precision is not None and recall is not None and precision + recall > 0:
        f_measure = 2 * precision * recall / (precision + recall)
    g_mean = None
    if recall is not None and specificity is not None:
        g_mean = math.sqrt(recall * specificity)
    return MetricsReport(accuracy, recall, specificity, precision, f_measure, g_mean)


def metrics_with_auc(cm: ConfusionMatrix, scores: Sequence[float],
                     labels: Sequence[int]) -> MetricsReport:
    """The metrics of `cm`, plus the AUC of `scores` when both 0/1 `labels` occur."""
    metrics = metrics_from_confusion(cm)
    if np.unique(labels).size == 2:
        metrics = replace(metrics, auc=roc_auc(scores, labels))
    return metrics


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """AUC over 0/1 `labels` (1 = P): the Mann-Whitney statistic, tie credit 0.5.

    (#{pos > neg} + 0.5 * #{pos == neg}) / (|pos| * |neg|), computed via the
    rank-sum form with average ranks for ties: a score whose ties occupy
    sorted positions i..j (0-based) gets rank (i + j) / 2 + 1.
    """
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC requires at least one positive and one negative")
    sorted_s = np.sort(s)
    first = np.searchsorted(sorted_s, s, side="left")
    last = np.searchsorted(sorted_s, s, side="right") - 1
    ranks = (first + last) / 2.0 + 1.0
    rank_sum_pos = float(ranks[pos].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def stratified_folds(dataset: Dataset, k: int, seed: int) -> list[list[int]]:
    """Partition instance indices into k folds, per-class counts within 1.

    Classes with fewer than k instances are spread as evenly as possible.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > len(dataset):
        raise DataError(f"k={k} exceeds dataset size {len(dataset)}")
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    cursor = 0  # continues across classes so overall fold sizes stay level
    for cls in (1, 0):  # P rows are dealt first
        idxs = np.flatnonzero(dataset.y == cls).tolist()
        rng.shuffle(idxs)
        for ix in idxs:
            folds[cursor % k].append(ix)
            cursor += 1
    return [sorted(f) for f in folds]


@dataclass
class FoldOutcome:
    confusion: ConfusionMatrix
    scores: np.ndarray  # float64 P-probabilities of the test rows
    labels: np.ndarray  # int8 labels of the test rows, 1 = P
    metrics: MetricsReport  # of `confusion`, with the AUC of `scores` when defined


@dataclass
class CVResult:
    confusion: ConfusionMatrix
    folds: list[FoldOutcome]
    metrics: MetricsReport


def _confusion_from_predictions(actual: np.ndarray, predicted_p: np.ndarray) -> ConfusionMatrix:
    tp = int(np.sum((actual == 1) & predicted_p))
    fn = int(np.sum((actual == 1) & ~predicted_p))
    fp = int(np.sum((actual == 0) & predicted_p))
    tn = int(np.sum((actual == 0) & ~predicted_p))
    return ConfusionMatrix(tp, fn, fp, tn)


def cross_validate(
    dataset: Dataset,
    learner: LearnerSpec,
    cost: CostMatrix,
    k: int = 10,
    seed: int = 0,
    sampling_ratio: float | None = None,
    threads: int = 1,
) -> CVResult:
    """K-fold stratified cross-validation with count aggregation.

    Undersampling, when requested, is applied to the training folds only.
    All randomness (fold assignment, per-fold sampling, per-fold training)
    derives from `seed`, so results are reproducible. A forest's features
    are coded once for all the folds (see `train_forest`).

    Every fold is planned here first: its rows, its undersampling and its
    seed, and a fold whose training data holds no P instance is an error
    before any training starts. Then the folds go to the pool that ReliefF
    and a forest's trees share too (`share.share`), and each fold's trees
    grow in the worker that has the fold. A fold that a child did not score,
    because it failed, died or could not be forked, is trained here. The
    outcomes are joined in fold order, so the result is the same for any
    worker count, and an error is raised as one worker raises it. `threads`
    is ignored, and stays only because `bench/worker.py` passes it.
    """
    seeds = derive_seeds(seed, 1 + 2 * k)
    folds = stratified_folds(dataset, k, seeds[0])
    X, y = dataset.X, dataset.y
    codes, values = _value_codes(X) if learner.kind == "forest" else (None, None)
    train_rows = []
    for i, test_idx in enumerate(folds):
        rows = np.setdiff1d(np.arange(len(dataset)), test_idx)
        if not y[rows].any():
            raise DataError(f"fold {i}: training data lost every P instance")
        if sampling_ratio is not None:
            kept = undersample_rows(y[rows], sampling_ratio, seeds[1 + 2 * i])
            if kept is not None:
                rows = rows[kept]
        train_rows.append(rows)

    def fold_scores(i: int) -> np.ndarray:
        rows = train_rows[i]
        # take, not codes[:, rows]: the fold's codes stay C-contiguous for the grower
        coded = None if codes is None else (codes.take(rows, axis=1), values)
        # the module global, looked up per call, so a wrapped train_model sees every fold
        model = train_model(dataset.take(rows), learner, seeds[2 + 2 * i], coded=coded)
        return model.predict_proba_matrix(X[folds[i]])

    outcomes: list[FoldOutcome] = []
    for test_idx, p in zip(folds, share.share(fold_scores, k)):
        labels = y[test_idx]
        confusion = _confusion_from_predictions(labels, cost_sensitive_predict(p, cost))
        outcomes.append(FoldOutcome(confusion, p, labels, metrics_with_auc(confusion, p, labels)))
    scores = np.concatenate([o.scores for o in outcomes])
    labels = np.concatenate([o.labels for o in outcomes])
    total = _confusion_from_predictions(labels, cost_sensitive_predict(scores, cost))
    return CVResult(total, outcomes, metrics_with_auc(total, scores, labels))


class Prediction(NamedTuple):
    id: str
    label: str
    score: float
    predicted: str


@dataclass
class ApplyResult:
    confusion: ConfusionMatrix
    predictions: list[Prediction]
    metrics: MetricsReport | None


def apply_model(model: Model, cost: CostMatrix, dataset: Dataset) -> ApplyResult:
    """Score every instance with a frozen model and apply the cost rule."""
    if len(dataset) == 0:
        return ApplyResult(ConfusionMatrix(0, 0, 0, 0), [], None)
    p = model.predict_proba_matrix(dataset.X)
    predicted_p = cost_sensitive_predict(p, cost)
    label = LABEL_OF.__getitem__
    predictions = list(map(Prediction, dataset.ids, map(label, dataset.y.tolist()), p.tolist(),
                           map(label, predicted_p.tolist())))
    confusion = _confusion_from_predictions(dataset.y, predicted_p)
    return ApplyResult(confusion, predictions, metrics_with_auc(confusion, p, dataset.y))


def format_metric(value: float | None) -> str:
    """Three decimals, round half to even; None prints as 'undefined'."""
    if value is None:
        return "undefined"
    return format(value, ".3f")


def report_row(setting: str, cm: ConfusionMatrix, metrics: MetricsReport) -> tuple:
    return (
        setting, cm.tp, cm.fn, cm.fp, cm.tn,
        format_metric(metrics.accuracy),
        format_metric(metrics.recall),
        format_metric(metrics.specificity),
        format_metric(metrics.precision),
        format_metric(metrics.f_measure),
        format_metric(metrics.g_mean),
        format_metric(metrics.auc),
    )


def write_report_csv(rows: list[tuple], fp: IO[str]) -> None:
    fp.write("# ponzi-radar report schema=v1\n")
    settings = text_cells(row[0] for row in rows)
    write_rows(fp, REPORT_HEADER, ",".join(["%s"] * len(REPORT_HEADER)) + "\n",
               ((setting, *row[1:]) for setting, row in zip(settings, rows)))


def format_report_table(rows: list[tuple]) -> str:
    """Human-readable fixed-width rendering of report rows."""
    table = [REPORT_HEADER, *[tuple(str(c) for c in row) for row in rows]]
    widths = [max(len(r[i]) for r in table) for i in range(len(REPORT_HEADER))]
    lines = []
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)
