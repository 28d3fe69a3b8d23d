"""Classification and effort-aware evaluation metrics.

Every label and prediction is binary (1 = defective).  Threshold goals
(precision, recall, F1, accuracy, dist2heaven) are ratios of a few counts.
dist2heaven is the normalised distance of a (recall, false alarm) pair from
the ideal corner (1, 0) -- smaller is better.  P_opt compares the
code-inspection lift curve of a model against the best and worst possible
inspection orderings -- larger is better.  An (m, n) matrix of predictions,
one model per row, gets one score per row from `evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

GOAL_DIRECTIONS = {"dist2heaven": MINIMIZE, "p_opt": MAXIMIZE, "f1": MAXIMIZE,
                   "accuracy": MAXIMIZE, "precision": MAXIMIZE, "recall": MAXIMIZE}


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
    if not ((labels == 0) | (labels == 1)).all():
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


def _threshold_score(kind: str, tp: int, flagged: int, defective: int, n: int) -> float:
    """A threshold goal from one prediction's counts against the labels'; any 0/0 ratio is 0."""
    if kind == "accuracy":
        return (n - defective - flagged + 2 * tp) / n  # (true negatives + tp) / n
    precision = tp / flagged if flagged else 0.0
    recall = tp / defective if defective else 0.0
    if kind == "dist2heaven":
        clean = n - defective
        return dist2heaven(recall, (flagged - tp) / clean if clean else 0.0)
    if kind == "f1":
        return 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision if kind == "precision" else recall


def evaluate(g: GoalSpec, actual, predicted, locs=None) -> float | list[float]:
    """Score predictions of binary labels under the goal; an (m, n) matrix gets m row scores.

    A score >= 0.5 flags a module defective.  Threshold goals count every row's true
    positives and flags in one pass, then take its ratios in Python floats, as a 1-D call does.
    """
    if g.kind == "p_opt":
        if locs is None:
            raise ValueError("p_opt needs one loc value per label")
        return p_opt(locs, actual, predicted)
    labels = np.asarray(actual)
    hard = np.asarray(predicted, dtype=float) >= 0.5
    rows = np.atleast_2d(hard)
    if hard.ndim not in (1, 2) or rows.shape[1:] != labels.shape:
        raise ValueError(f"length mismatch: {labels.size} actual vs {rows.shape[-1]} predicted")
    defective = labels == 1
    if not (defective | (labels == 0)).all():
        raise ValueError("every label must be 0 or 1")
    if not labels.size:
        raise ValueError(f"cannot compute {g.kind} on empty labels")
    n_defective = int(np.count_nonzero(defective))
    scores = [_threshold_score(g.kind, tp, flagged, n_defective, labels.size)
              for tp, flagged in zip((rows & defective).sum(axis=1).tolist(),
                                     rows.sum(axis=1).tolist())]
    return scores if hard.ndim == 2 else scores[0]
