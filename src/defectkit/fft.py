"""Fast-and-frugal tree ensembles built from median-split extreme ranges.

A depth-d tree is a chain of levels; each level tests one attribute against
its median and exits straight to a class when the test matches.  Choosing
the exit class at every level gives 2^d distinct tree shapes, so fitting
enumerates all of them, scores each on the training data with the goal
metric, and keeps the best.  Trees render to a human-readable rule list
(`if rfc > 32 then true`) that loads back with `tree_from_text`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CLEAN, DEFECTIVE, Dataset
from .errors import DegenerateDataError
from .metrics import MINIMIZE, GoalSpec, evaluate

LE = "<="
GT = ">"
_CLASS_NAMES = {CLEAN: "false", DEFECTIVE: "true"}
_CLASS_VALUES = {"false": CLEAN, "true": DEFECTIVE}


@dataclass(frozen=True)
class Range:
    """One attribute test: `attribute relation threshold` predicting a class."""

    attribute: int
    relation: str
    threshold: float
    predicted: int
    score: float

    def matches(self, features: np.ndarray) -> np.ndarray:
        column = features[:, self.attribute]
        return column <= self.threshold if self.relation == LE else column > self.threshold


@dataclass(frozen=True)
class FFTree:
    """Chain of (range, exit class) levels closed by a two-way final leaf.

    An instance takes the exit class of the first level it matches; if no
    level matches it gets the final leaf's false-branch class.
    """

    levels: tuple[tuple[Range, int], ...]
    final_leaf: tuple[int, int]
    structure_id: int
    feature_names: tuple[str, ...]

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.shape[1] != len(self.feature_names):
            raise ValueError(
                f"data has {features.shape[1]} features, tree expects {len(self.feature_names)}")
        out = np.full(len(features), self.final_leaf[1], dtype=int)
        undecided = np.ones(len(features), dtype=bool)
        for rng, exit_class in self.levels:
            hit = undecided & rng.matches(features)
            out[hit] = exit_class
            undecided &= ~hit
        return out

    def to_text(self) -> str:
        lines = []
        for i, (rng, exit_class) in enumerate(self.levels):
            prefix = "if" if i == 0 else "else if"
            # Shortest exact repr, so the text reloads to the very same threshold.
            threshold = repr(float(rng.threshold)).removesuffix(".0")
            lines.append(f"{prefix} {self.feature_names[rng.attribute]} {rng.relation} "
                         f"{threshold} then {_CLASS_NAMES[exit_class]}")
        lines.append(f"else {_CLASS_NAMES[self.final_leaf[1]]}")
        return "\n".join(lines)


def tree_from_text(text: str, feature_names) -> FFTree:
    """Parse the rule-list format back into a tree (scores are not recoverable)."""
    feature_names = tuple(feature_names)
    index = {name: i for i, name in enumerate(feature_names)}
    levels = []
    final_class = None
    for line in (ln.strip() for ln in text.strip().splitlines()):
        body = line
        for prefix in ("else if ", "if "):
            if body.startswith(prefix):
                body = body[len(prefix):]
                break
        else:
            final_class = _CLASS_VALUES[body.removeprefix("else ").strip()]
            break
        name, relation, threshold, kw, klass = body.split()
        if kw != "then" or relation not in (LE, GT):
            raise ValueError(f"cannot parse rule line: {line!r}")
        exit_class = _CLASS_VALUES[klass]
        levels.append((Range(index[name], relation, float(threshold), exit_class, 0.0),
                       exit_class))
    if final_class is None:
        raise ValueError("rule list has no final else line")
    structure_id = sum((exit_class << i) for i, (_, exit_class) in enumerate(levels))
    final_leaf = (levels[-1][1] if levels else final_class, final_class)
    return FFTree(tuple(levels), final_leaf, structure_id, feature_names)


@dataclass(frozen=True)
class FFTEnsemble:
    """All 2^d trees plus each one's training goal score and the chosen best."""

    trees: tuple[FFTree, ...]
    scores: tuple[float, ...]
    best: int

    @property
    def best_tree(self) -> FFTree:
        return self.trees[self.best]


def median_split(data: Dataset, attribute: int) -> float:
    """Attribute threshold: the lower median (value at index (n-1)//2 after sort)."""
    if not len(data):
        raise ValueError("cannot take a median of no data")
    values = np.sort(data.features[:, attribute])
    return float(values[(len(values) - 1) // 2])


def _majority(labels: np.ndarray, fallback: int = CLEAN) -> int:
    if not len(labels):
        return fallback
    return int(np.bincount(labels, minlength=2).argmax())


def _ranked(data: Dataset, goal: GoalSpec) -> list[Range]:
    """All four median-split ranges of every attribute, best-scoring first.

    A range alone is a one-rule model: matches get its class, the rest the
    opposite class.  So (<=, c) and (>, 1 - c) predict the same vector, and the
    node's 2F distinct vectors are scored in one matrix call to `evaluate`.
    """
    thresholds = [median_split(data, a) for a in range(data.features.shape[1])]
    below = (data.features <= thresholds).T
    # Row 2a + c predicts class c where attribute a is at most its median.
    scores = evaluate(goal, data.labels, np.stack((~below, below), axis=1).reshape(-1, len(data)),
                      data.locs)
    sign = 1.0 if goal.direction == MINIMIZE else -1.0
    return sorted((Range(a, relation, t, c if relation == LE else 1 - c, scores[2 * a + c])
                   for a, t in enumerate(thresholds) for c in (CLEAN, DEFECTIVE)
                   for relation in (LE, GT)),
                  key=lambda r: (sign * r.score, r.attribute, r.relation == GT, r.predicted))


def _grow(data: Dataset, node: Dataset, goal: GoalSpec, depth: int, ids, levels: tuple,
          trees: dict) -> dict:
    """Add to `trees`, and return it, each tree in `ids`; all share the exits in `levels`.

    `node` is the data those levels leave undecided.  It is scored and ranked
    once, then each exit class some id takes next gets its best range.  When
    the node runs out (empty or single-class) every id under it closes early.
    """
    level, names = len(levels), data.schema.feature_names
    if level == depth or len(np.unique(node.labels)) < 2:
        leaf = _majority(node.labels, _majority(data.labels))
        trees.update((sid, FFTree(levels, (leaf, leaf), sid, names)) for sid in ids)
        return trees
    ranked = _ranked(node, goal)
    for exit_class in (CLEAN, DEFECTIVE):
        branch = [sid for sid in ids if (sid >> level) & 1 == exit_class]
        if not branch:
            continue
        best = next(r for r in ranked if r.predicted == exit_class)
        path = levels + ((best, exit_class),)
        if level == depth - 1:
            trees[branch[0]] = FFTree(path, (exit_class, 1 - exit_class), branch[0], names)
        else:
            rest = node.subset(np.flatnonzero(~best.matches(node.features)))
            _grow(data, rest, goal, depth, branch, path, trees)
    return trees


def fit(data: Dataset, goal: GoalSpec, depth: int = 4) -> FFTEnsemble:
    """Enumerate all 2^depth trees, score each on the training data, keep the best.

    Tree i exits level l to bit l of i; `_grow` picks each level's range.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if len(np.unique(data.labels)) < 2:
        raise DegenerateDataError("fitting needs both classes present")
    grown = _grow(data, data, goal, depth, range(2 ** depth), (), {})
    trees = tuple(grown[sid] for sid in range(2 ** depth))
    predicted = np.array([tree.predict(data.features) for tree in trees])
    scores = tuple(evaluate(goal, data.labels, predicted, data.locs))
    best = (min if goal.direction == MINIMIZE else max)(range(len(scores)), key=scores.__getitem__)
    return FFTEnsemble(trees, scores, best)
