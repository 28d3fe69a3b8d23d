"""Shared builders for synthetic defect datasets, and the metric oracles."""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import pytest

from defectkit.dataset import AttributeSchema, Dataset
from defectkit.errors import DegenerateDataError


def make_dataset(features, labels, loc=None, names=None):
    """Dataset from raw arrays; a loc column is appended unless one is passed."""
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features.reshape(-1, 1)
    labels = np.asarray(labels, dtype=int)
    if loc is None:
        loc = np.full(len(labels), 10.0)
    full = np.column_stack([features, np.asarray(loc, dtype=float)])
    if names is None:
        names = [f"a{i}" for i in range(features.shape[1])]
    schema = AttributeSchema(tuple(names) + ("loc",), loc_index=len(names))
    return Dataset(schema, full, labels)


def same_data(a, b):
    """True when two datasets hold the same schema and arrays."""
    return (a.schema == b.schema and np.array_equal(a.features, b.features)
            and np.array_equal(a.labels, b.labels))


def planted_dataset(n=300, n_noise=9, defect_ratio=0.45, seed=7, gap=10.0):
    """One perfectly separating attribute (column 0) plus noise columns.

    Defective rows get attribute 0 pushed up by `gap`, so the threshold
    test a0 > anything in (max clean, min defective) separates exactly.
    """
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < defect_ratio).astype(int)
    signal = labels * gap + rng.random(n)
    noise = rng.normal(size=(n, n_noise))
    loc = rng.integers(5, 500, size=n).astype(float)
    return make_dataset(np.column_stack([signal, noise]), labels, loc=loc)


@pytest.fixture
def separator6():
    """Six instances split 3/3 where attribute 0 over its median separates."""
    return make_dataset([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0],
                         [10.0, 5.0], [11.0, 5.0], [12.0, 5.0]],
                        [0, 0, 0, 1, 1, 1])


@pytest.fixture
def separated8():
    """Eight instances, two attributes, linearly (axis-)separable."""
    rng = np.random.default_rng(3)
    clean = np.column_stack([rng.uniform(0, 1, 4), rng.uniform(0, 1, 4)])
    defective = np.column_stack([rng.uniform(9, 10, 4), rng.uniform(9, 10, 4)])
    return make_dataset(np.vstack([clean, defective]), [0, 0, 0, 0, 1, 1, 1, 1])


def parse_report_csv(text):
    """Read back a csv report: (dataset, method, score, best) per line."""
    return [(parts[0], parts[1], float(parts[2]), parts[3] == "1")
            for parts in list(csv.reader(io.StringIO(text)))[1:]]


# The point-by-point lift curve that metrics.inspection_areas replaced with one
# numpy pass, kept as the oracle that the tests compare it against exactly.
@dataclass(frozen=True)
class LiftCurve:
    """Cumulative (effort fraction, recall fraction) polyline from (0,0) to (1,1)."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.points[0] != (0.0, 0.0) or self.points[-1] != (1.0, 1.0):
            raise ValueError("lift curve must run from (0,0) to (1,1)")
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        if any(b < a - 1e-12 for a, b in zip(xs, xs[1:])) \
                or any(b < a - 1e-12 for a, b in zip(ys, ys[1:])):
            raise ValueError("lift curve coordinates must be non-decreasing")

    def area(self) -> float:
        """Area under the polyline by the trapezoid rule."""
        total = 0.0
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            total += (x1 - x0) * (y0 + y1) / 2.0
        return total


def lift_curve(instances, order) -> LiftCurve:
    """Accumulate effort (loc) against defects found while visiting `order`.

    `instances` is a sequence of (loc, label) pairs; `order` must be a
    permutation of their indices.
    """
    locs = np.asarray([loc for loc, _ in instances], dtype=float)
    labels = np.asarray([lab for _, lab in instances], dtype=int)
    order = np.asarray(order, dtype=int)
    if sorted(order.tolist()) != list(range(len(instances))):
        raise ValueError("order must be a permutation of the instance indices")
    total_loc = locs.sum()
    total_defects = labels.sum()
    if total_loc <= 0:
        raise DegenerateDataError("total loc is zero; effort axis undefined")
    if total_defects == 0:
        raise DegenerateDataError("no defective instances; recall axis undefined")
    points = [(0.0, 0.0)]
    cum_loc = 0.0
    cum_defects = 0
    for idx in order:
        cum_loc += locs[idx]
        cum_defects += labels[idx]
        points.append((cum_loc / total_loc, cum_defects / total_defects))
    points[-1] = (1.0, 1.0)
    return LiftCurve(tuple(points))


# The scalar confusion-matrix path that metrics.evaluate replaced with one count
# pass over a whole prediction matrix, kept as the oracle its threshold goals
# are compared against exactly.
def confusion_score(kind, actual, predicted):
    """A threshold goal of one prediction vector, from its 2x2 confusion tally.

    counts[a][p] counts the modules of actual class a predicted as p, a score
    >= 0.5 predicting defective (1); every 0/0 ratio is 0.
    """
    counts = [[0, 0], [0, 0]]
    for a, p in zip(actual, predicted, strict=True):
        counts[int(a)][int(p >= 0.5)] += 1
    (tn, fp), (fn, tp) = counts
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    false_alarm = fp / (fp + tn) if fp + tn else 0.0
    return {"accuracy": (tn + tp) / (tn + fp + fn + tp),
            "precision": precision,
            "recall": recall,
            "f1": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
            "dist2heaven": math.sqrt((1 - recall) ** 2 + false_alarm ** 2) / math.sqrt(2)}[kind]
