"""Classification and effort-aware evaluation metrics.

Threshold metrics (precision, recall, F1, accuracy) come out of an n-class
confusion matrix.  dist2heaven is the normalised distance of a (recall,
false alarm) pair from the ideal corner (1, 0) -- smaller is better.  P_opt
compares the code-inspection lift curve of a model against the best and
worst possible inspection orderings -- larger is better.  An (m, n) matrix of
predictions, one model per row, gets one score per row from `evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

GOAL_DIRECTIONS = {
    "dist2heaven": MINIMIZE,
    "p_opt": MAXIMIZE,
    "f1": MAXIMIZE,
    "accuracy": MAXIMIZE,
    "precision": MAXIMIZE,
    "recall": MAXIMIZE,
}


@dataclass(frozen=True)
class GoalSpec:
    """A named optimisation target plus the direction that makes it better."""

    kind: str

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in GOAL_DIRECTIONS:
            raise ValueError(f"unknown goal {self.kind!r}; choose from {sorted(GOAL_DIRECTIONS)}")

    @property
    def direction(self) -> str:
        return GOAL_DIRECTIONS[self.kind]

    def better(self, a: float, b: float) -> bool:
        """True when score `a` beats score `b` under this goal."""
        return a < b if self.direction == MINIMIZE else a > b


def goal(kind: str) -> GoalSpec:
    return GoalSpec(kind)


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i][j] = number of instances of actual class i classified as j."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.counts)
        if any(len(row) != n for row in self.counts):
            raise ValueError("confusion matrix must be square")
        if any(c < 0 for row in self.counts for c in row):
            raise ValueError("confusion matrix entries must be non-negative")

    @property
    def n_classes(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


def confusion(actual, predicted, n_classes: int) -> ConfusionMatrix:
    """Tally (actual, predicted) label pairs into an n_classes x n_classes grid."""
    actual = np.asarray(actual, dtype=int)
    predicted = np.asarray(predicted, dtype=int)
    if actual.shape != predicted.shape:
        raise ValueError(f"length mismatch: {len(actual)} actual vs {len(predicted)} predicted")
    if actual.size and not ((0 <= actual).all() and (actual < n_classes).all()
                            and (0 <= predicted).all() and (predicted < n_classes).all()):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    flat = np.bincount(actual * n_classes + predicted, minlength=n_classes * n_classes)
    grid = flat.reshape(n_classes, n_classes)
    return ConfusionMatrix(tuple(tuple(int(c) for c in row) for row in grid))


def class_metrics(m: ConfusionMatrix, j: int) -> tuple[float, float, float]:
    """(precision, recall, f1) for class j; any 0/0 ratio is defined as 0."""
    if m.total == 0:
        raise ValueError("cannot compute ratios on an empty confusion matrix")
    tp = m.counts[j][j]
    predicted_j = sum(m.counts[i][j] for i in range(m.n_classes))
    actual_j = sum(m.counts[j][i] for i in range(m.n_classes))
    precision = tp / predicted_j if predicted_j else 0.0
    recall = tp / actual_j if actual_j else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def accuracy(m: ConfusionMatrix) -> float:
    if m.total == 0:
        raise ValueError("cannot compute accuracy on an empty confusion matrix")
    return sum(m.counts[i][i] for i in range(m.n_classes)) / m.total


def false_alarm(m: ConfusionMatrix) -> float:
    """Binary false-positive rate fp / (fp + tn); 0/0 is 0."""
    fp = m.counts[0][1]
    tn = m.counts[0][0]
    return fp / (fp + tn) if fp + tn else 0.0


def dist2heaven(recall: float, fa: float) -> float:
    """Normalised distance from (recall, false alarm) to the ideal point (1, 0)."""
    if not (0 <= recall <= 1 and 0 <= fa <= 1):
        raise ValueError(f"recall and false alarm must be in [0, 1], got ({recall}, {fa})")
    return math.sqrt((1 - recall) ** 2 + fa ** 2) / math.sqrt(2)


def _lift_areas(locs: np.ndarray, labels: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Trapezoid area under the (effort, recall) curve of each row's inspection order."""
    # Running sums along each row, not np.sum: pairwise summation changes the last bits.
    start = np.zeros((len(orders), 1))
    x = np.hstack((start, np.cumsum(locs[orders], axis=1) / locs.sum()))
    y = np.hstack((start, np.cumsum(labels[orders], axis=1) / labels.sum()))
    x[:, -1] = y[:, -1] = 1.0
    return np.cumsum((x[:, 1:] - x[:, :-1]) * (y[:, :-1] + y[:, 1:]) / 2.0, axis=1)[:, -1]


def inspection_areas(locs, labels, predicted) -> tuple:
    """(S(model), S(optimal), S(worst)) lift-curve areas for a prediction vector.

    `locs`, 0/1 `labels` and `predicted` hold one entry per module.  The model
    inspects predicted-defective modules first, each group by ascending loc; the
    optimal and worst orders sort by defect density (loc clamped at 1) down and
    up.  All three sorts are stable.  An (m, n) `predicted` gives S(model) per row.
    """
    locs = np.asarray(locs, dtype=float)
    labels = np.asarray(labels, dtype=float)
    rows = np.atleast_2d(np.asarray(predicted, dtype=float))
    if labels.shape != locs.shape:
        raise ValueError(f"{labels.size} labels for {locs.size} locs")
    if np.ndim(predicted) not in (1, 2) or rows.shape[1:] != locs.shape:
        raise ValueError(f"{rows.shape[-1]} predictions for {len(locs)} instances")
    if not (np.isfinite(locs) & (locs >= 0)).all():
        raise ValueError("every loc must be finite and non-negative")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("every label must be 0 or 1")
    if locs.sum() <= 0:
        raise DegenerateDataError("total loc is zero; effort axis undefined")
    if labels.sum() == 0:
        raise DegenerateDataError("no defective instances; recall axis undefined")
    density = labels / np.maximum(locs, 1.0)
    ascending = np.argsort(locs, kind="stable")
    # Stably moving flagged modules to the front gives np.lexsort((locs, row == 0)).
    model = ascending[np.argsort(rows[:, ascending] == 0, axis=1, kind="stable")]
    areas = _lift_areas(locs, labels, np.vstack((model, np.argsort(-density, kind="stable"),
                                                 np.argsort(density, kind="stable"))))
    return (areas[:-2] if np.ndim(predicted) == 2 else float(areas[0]), *areas[-2:].tolist())


def p_opt(locs, labels, predicted) -> float | list[float]:
    """Effort-aware score: 1 - (S(optimal) - S(model)) / (S(optimal) - S(worst)).

    `predicted` holds hard labels or scores; scores are thresholded at 0.5
    before the predicted-defective-first, ascending-loc layout is built.  An
    (m, n) `predicted` gives a list of m scores from one pass over all rows.
    """
    hard = np.asarray(predicted, dtype=float) >= 0.5
    s_model, s_optimal, s_worst = inspection_areas(locs, labels, hard)
    if s_optimal == s_worst:
        raise DegenerateDataError("optimal and worst orderings coincide; P_opt undefined")
    return (1.0 - (s_optimal - np.asarray(s_model)) / (s_optimal - s_worst)).tolist()


def evaluate(g: GoalSpec, actual, predicted, locs=None) -> float | list[float]:
    """Score predictions of binary labels under the goal; an (m, n) matrix gets m row scores."""
    if g.kind == "p_opt":
        if locs is None:
            raise ValueError("p_opt needs one loc value per label")
        return p_opt(locs, actual, predicted)
    hard = np.asarray(predicted, dtype=float) >= 0.5
    if hard.ndim == 2:
        return [evaluate(g, actual, row, locs) for row in hard]
    m = confusion(actual, hard.astype(int), 2)
    if g.kind == "accuracy":
        return accuracy(m)
    precision, recall, f1 = class_metrics(m, 1)
    if g.kind == "dist2heaven":
        return dist2heaven(recall, false_alarm(m))
    return {"f1": f1, "precision": precision, "recall": recall}[g.kind]
