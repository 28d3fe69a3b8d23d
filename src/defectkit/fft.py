"""Fast-and-frugal tree ensembles built from median-split extreme ranges.

A depth-d tree is a chain of at most d ranges; each tests one attribute
against its median and exits straight to its predicted class when the test
matches, and rows no range matches get the tree's default class.  Choosing
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

    def matches(self, features: np.ndarray) -> np.ndarray:
        column = features[:, self.attribute]
        return column <= self.threshold if self.relation == LE else column > self.threshold


@dataclass(frozen=True)
class FFTree:
    """Chain of ranges closed by a default class.

    An instance takes the predicted class of the first range it matches; if
    no range matches it gets the default.
    """

    levels: tuple[Range, ...]
    default: int
    feature_names: tuple[str, ...]

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.shape[1] != len(self.feature_names):
            raise ValueError(
                f"data has {features.shape[1]} features, tree expects {len(self.feature_names)}")
        out = np.full(len(features), self.default, dtype=int)
        undecided = np.ones(len(features), dtype=bool)
        for rng in self.levels:
            hit = undecided & rng.matches(features)
            out[hit] = rng.predicted
            undecided &= ~hit
        return out

    def to_text(self) -> str:
        lines = []
        for i, rng in enumerate(self.levels):
            prefix = "if" if i == 0 else "else if"
            # Shortest exact repr, so the text reloads to the very same threshold.
            threshold = repr(float(rng.threshold)).removesuffix(".0")
            lines.append(f"{prefix} {self.feature_names[rng.attribute]} {rng.relation} "
                         f"{threshold} then {_CLASS_NAMES[rng.predicted]}")
        lines.append(f"else {_CLASS_NAMES[self.default]}")
        return "\n".join(lines)


def tree_from_text(text: str, feature_names) -> FFTree:
    """Parse the rule-list format back into the tree that `to_text` wrote.

    A line that is no rule, or names an attribute or class word the tree does not
    have, raises ValueError naming the line.
    """
    feature_names = tuple(feature_names)
    index = {name: i for i, name in enumerate(feature_names)}
    levels = []
    for line in (ln.strip() for ln in text.strip().splitlines()):
        try:
            if not line.startswith(("if ", "else if ")):
                return FFTree(tuple(levels), _CLASS_VALUES[line.removeprefix("else ").strip()],
                              feature_names)
            name, relation, threshold, kw, klass = (
                line.removeprefix("else ").removeprefix("if ").split())
            if kw != "then" or relation not in (LE, GT):
                raise ValueError
            levels.append(Range(index[name], relation, float(threshold), _CLASS_VALUES[klass]))
        except (KeyError, ValueError):  # an unknown name, a bad threshold or token count
            raise ValueError(f"cannot parse rule line: {line!r}") from None
    raise ValueError("rule list has no final else line")


@dataclass(frozen=True)
class FFTEnsemble:
    """All 2^d trees plus each one's training goal score and the chosen best."""

    trees: tuple[FFTree, ...]
    scores: tuple[float, ...]
    best: int

    @property
    def best_tree(self) -> FFTree:
        return self.trees[self.best]


def median_split(data: Dataset) -> np.ndarray:
    """Each attribute's threshold: its lower median (row (n-1)//2 of the column-sorted data)."""
    if not len(data):
        raise ValueError("cannot take a median of no data")
    return np.sort(data.features, axis=0)[(len(data) - 1) // 2]


def _majority(labels: np.ndarray, fallback: int = CLEAN) -> int:
    if not len(labels):
        return fallback
    return int(np.bincount(labels, minlength=2).argmax())


def _best_ranges(data: Dataset, goal: GoalSpec) -> tuple[Range, Range]:
    """The best median-split range exiting to each class: (clean exit, defective exit).

    A range alone is a one-rule model: matches get its class, the rest the
    opposite class.  So (<=, c) and (>, 1 - c) predict the same vector, and the
    node's 2F distinct vectors are scored in one matrix call to `evaluate`.
    Ties go to the lowest attribute, then to <= over >.
    """
    thresholds = median_split(data)
    below = (data.features <= thresholds).T
    # Row 2a + c predicts class c where attribute a is at most its median.
    scores = evaluate(goal, data.labels, np.stack((~below, below), axis=1).reshape(-1, len(data)),
                      data.locs)
    signed = np.reshape(scores, (-1, 2)) * (1.0 if goal.direction == MINIMIZE else -1.0)
    best = []
    for c in (CLEAN, DEFECTIVE):
        # Flat index 2a + g: attribute a's (<=, c) range for g = 0, its (>, c) range for g = 1.
        a, g = divmod(int(np.argmin(signed[:, (c, 1 - c)])), 2)
        best.append(Range(a, (LE, GT)[g], float(thresholds[a]), c))
    return tuple(best)


def _grow(data: Dataset, node: Dataset, goal: GoalSpec, depth: int, ids, levels: tuple,
          trees: dict) -> dict:
    """Add to `trees`, and return it, each tree in `ids`; all share the exits in `levels`.

    `node` is the data those levels leave undecided.  It is scored once, then
    each exit class some id takes next gets its best range.  When the node
    runs out (empty or single-class) every id under it closes early.
    """
    level, names = len(levels), data.schema.feature_names
    if level == depth or not 0 < node.labels.sum() < len(node):
        leaf = _majority(node.labels, _majority(data.labels))
        trees.update((sid, FFTree(levels, leaf, names)) for sid in ids)
        return trees
    ranges = _best_ranges(node, goal)
    for exit_class in (CLEAN, DEFECTIVE):
        branch = [sid for sid in ids if (sid >> level) & 1 == exit_class]
        if not branch:
            continue
        best = ranges[exit_class]
        path = levels + (best,)
        if level == depth - 1:
            trees[branch[0]] = FFTree(path, 1 - exit_class, names)
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
    if not 0 < data.labels.sum() < len(data):
        raise DegenerateDataError("fitting needs both classes present")
    grown = _grow(data, data, goal, depth, range(2 ** depth), (), {})
    trees = tuple(grown[sid] for sid in range(2 ** depth))
    predicted = np.array([tree.predict(data.features) for tree in trees])
    scores = tuple(evaluate(goal, data.labels, predicted, data.locs))
    best = (min if goal.direction == MINIMIZE else max)(range(len(scores)), key=scores.__getitem__)
    return FFTEnsemble(trees, scores, best)
