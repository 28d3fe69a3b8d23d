"""Baseline classifiers behind one train/predict interface.

Every learner turns into a Model whose score is a defect probability (or a
margin mapped into [0, 1]); the label is score >= threshold.  Parameter
names, defaults and tuning ranges are exposed as ParamSpaces that plug
straight into the differential-evolution tuner.

The SVM here is linear only: a hinge-loss classifier trained by
deterministic subgradient descent with regularisation 1/C.  fit_many fits
several C values on one training set in one epoch loop (_fit_linear_svms).

No fit reads a space's `decision` tunings (`threshold`, knn's `k`); `decide`
sets them.  Fits on one training set can share a dataset.Memo of CART split searches
and their entropy table.  A CART fit seeds its generator at its first feature draw;
with every feature sampled it makes none.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .dataset import CHUNK_TERMS, Dataset, Memo, nearest
from .errors import DegenerateDataError
from .metrics import GoalSpec, goal as make_goal
from . import fft as fft_mod
from .tuner import CONTINUOUS, INTEGER, ParamSpace, ParamSpec

GD_EPOCHS = 500
GD_LEARNING_RATE = 0.1
KNN_MAX_K = 20  # top of knn's k range: how many neighbours a knn model ranks
# Entries a split memo keeps: nodes of about 16 * F + 400 bytes each, and one entropy
# table of at most 8 * CHUNK_TERMS bytes (2 MiB).
SPLIT_MEMO_NODES = 4096


def param_space(kind: str) -> ParamSpace:
    """The tunable dimensions of a learner, with table defaults and ranges."""
    if kind not in _LEARNERS:
        raise ValueError(f"unknown learner kind {kind!r}; choose from {KINDS}")
    return _LEARNERS[kind].space


@dataclass(frozen=True)
class LearnerSpec:
    """A learner kind plus parameter overrides (validated against its space)."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        param_space(self.kind).validate(self.params)  # KeyError for unknown names

    def resolved(self) -> dict[str, Any]:
        merged = param_space(self.kind).defaults()
        merged.update(self.params)
        return merged


@dataclass
class Model:
    """Fitted state plus the training schema fingerprint predictions must match."""

    kind: str
    feature_names: tuple[str, ...]
    threshold: float
    state: Any


def _z_stats(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, std, standardised features); constant columns keep std 1."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0] = 1.0
    return mean, std, (features - mean) / std


def _entropy(n_pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Binary entropy in bits of n_pos positives among n >= 1 rows."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = n_pos / n
        return -(np.where(p > 0, p * np.log2(p), 0.0)
                 + np.where(p < 1, (1 - p) * np.log2(1 - p), 0.0))


class _TreeNode:
    __slots__ = ("prob", "feature", "threshold", "left", "right")

    def __init__(self, prob: float):
        self.prob = prob
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None


def _best_split(sub, labels, min_samples_leaf, table=None):
    """(gains, thresholds) of each column of `sub`'s best entropy split.

    All columns are scanned in one vectorised pass; a column's result depends
    on it alone.  Ties break toward the lowest boundary, and a column with no
    legal boundary gains -inf.  Needs two rows.  A `table` holding
    _entropy(pos, n) at [n, pos] for every count the search reads gives the
    bytes that computing each entropy gives.
    """
    n = len(labels)
    order = np.argsort(sub, axis=0, kind="stable")
    cols = np.arange(sub.shape[1])
    v = sub[order, cols]
    cum_pos = np.cumsum(labels[order], axis=0)

    left_n = np.arange(1, n, dtype=float)[:, None]
    right_n = n - left_n
    left_pos = cum_pos[:-1]
    right_pos = cum_pos[-1] - left_pos
    if table is None:
        parent = _entropy(np.array([labels.sum()]), np.array([n]))[0]
        e_left, e_right = _entropy(left_pos, left_n), _entropy(right_pos, right_n)
    else:  # flat index left_n * stride + left_pos, and likewise on the right
        stride = table.shape[1]
        rows = np.arange(stride, n * stride, stride)[:, None]
        parent = table[n, labels.sum()]
        e_left, e_right = table.take(rows + left_pos), table.take(rows[::-1] + right_pos)
    gain = parent - (left_n * e_left + right_n * e_right) / n
    valid = ((v[1:] > v[:-1])  # boundary between distinct values
             & (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf))
    gain = np.where(valid, gain, -np.inf)
    boundary = np.argmax(gain, axis=0)
    return gain[boundary, cols], (v[boundary, cols] + v[boundary + 1, cols]) / 2.0


class _Cart:
    """Entropy CART grown best-first up to max_leaf_nodes leaves."""

    def __init__(self, params: dict, seed: int, memo: Memo):
        self.params = params
        self.seed = seed
        self.memo = memo
        self.root = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "_Cart":
        min_split = self.params["min_sample_split"]
        min_leaf = self.params["min_samples_leaf"]
        max_leaves = self.params["max_leaf_nodes"]
        n_features = features.shape[1]
        every_feature = np.arange(n_features)
        n_sampled = max(1, int(round(self.params["max_feature"] * n_features)))
        rng = None  # made at the first draw, so a fit that samples every feature makes none
        n, n_pos = len(labels), int(np.count_nonzero(labels))
        # The memo's _entropy table for every node of a fit on its data, kept only while it
        # holds at most CHUNK_TERMS floats; above that, each search computes its entropies.
        tabled = (n + 1) * (n_pos + 1) <= CHUNK_TERMS
        heap = []
        counter = 0

        # `key` is a node's (min_samples_leaf, split path from the root: it fixes the node's
        # rows `idx` on the memo's data); its probability is pos / len(idx), as labs.mean() is.
        def consider(key, idx):
            nonlocal counter, rng
            labs = labels[idx]
            pos = int(np.count_nonzero(labs))
            node = _TreeNode(pos / len(idx))
            if len(idx) >= min_split and 0 < pos < len(idx):
                candidates = every_feature
                if n_sampled < n_features:
                    rng = rng or np.random.default_rng(self.seed)
                    candidates = np.sort(rng.choice(n_features, size=n_sampled, replace=False))
                # The node's memo entry: each feature's best gain (NaN until searched) and
                # threshold.  Ties take the lowest feature.
                gains, thresholds = self.memo.get(key, lambda: np.full((2, n_features), np.nan))
                todo = candidates[np.isnan(gains[candidates])]  # not yet searched at this node
                if len(todo):
                    table = self.memo.get("entropy", lambda: _entropy(
                        np.arange(n_pos + 1), np.arange(n + 1)[:, None])) if tabled else None
                    # Two gathers: one broadcast index pair costs twice the time, and its
                    # iterator's buffers raise the fit's peak memory.
                    gains[todo], thresholds[todo] = _best_split(features[idx][:, todo], labs,
                                                                min_leaf, table)
                best = candidates[np.argmax(gains[candidates])]
                if gains[best] > 1e-12:
                    heapq.heappush(heap, (-float(gains[best]), counter, node, key, int(best),
                                          float(thresholds[best]), idx))
                    counter += 1
            return node

        self.root = consider((min_leaf,), np.arange(n))
        leaves = 1
        while heap and leaves < max_leaves:
            _, _, node, key, f, threshold, idx = heapq.heappop(heap)
            mask = features[idx, f] <= threshold
            node.feature, node.threshold = f, threshold
            leaves += 1
            node.left = consider((key, f, threshold, True), idx[mask])
            node.right = consider((key, f, threshold, False), idx[~mask])
        return self

    def prob(self, features: np.ndarray) -> np.ndarray:
        """Leaf probabilities for a whole matrix, routed with index masks."""
        out = np.empty(len(features))
        stack = [(self.root, np.arange(len(features)))]
        while stack:
            node, idx = stack.pop()
            if node.feature is None:
                out[idx] = node.prob
            elif len(idx):
                mask = features[idx, node.feature] <= node.threshold
                stack.append((node.left, idx[mask]))
                stack.append((node.right, idx[~mask]))
        return out


def fit(spec: LearnerSpec, data: Dataset, seed: int, goal: GoalSpec | None = None,
        memo: Memo | None = None) -> Model:
    """Train spec.kind on the data; deterministic given (spec, data, seed).  Fits on the
    same data may share a split `memo`; else the fit makes its own."""
    return fit_many([spec], data, seed, goal, memo)[0]


def fit_many(specs: list[LearnerSpec], data: Dataset, seed: int, goal: GoalSpec | None = None,
             memo: Memo | None = None) -> list[Model]:
    """fit(spec, data, seed, goal, memo) of each spec, bit for bit, and the same errors.

    Specs that share one kind from LOCKSTEP_KINDS fit in one pass; others fit one by one.
    """
    if not len(data):
        raise ValueError("cannot fit on an empty dataset")
    memo = Memo(data, SPLIT_MEMO_NODES) if memo is None else memo.serving(data)
    for spec in specs:
        if _LEARNERS[spec.kind].needs_both_classes and not 0 < data.labels.sum() < len(data):
            raise DegenerateDataError(f"{spec.kind} needs both classes in the training data")
    params = [spec.resolved() for spec in specs]
    if len({spec.kind for spec in specs}) == 1 and specs[0].kind in LOCKSTEP_KINDS:
        states = _LEARNERS[specs[0].kind].fit_batch(params, data)
    else:
        states = [_LEARNERS[spec.kind].fit(p, data, seed, goal, memo)
                  for spec, p in zip(specs, params)]
    return [decide(Model(spec.kind, data.schema.feature_names, 0.5, state), p)
            for spec, state, p in zip(specs, states, params)]


def decide(model: Model, tunings: dict) -> Model:
    """Set the decision-time entries of `tunings` on a fitted model, in place."""
    model.threshold = tunings.get("threshold", model.threshold)
    if model.kind == "knn" and "k" in tunings:
        model.state["k"] = min(tunings["k"], len(model.state["labels"]))
    return model


def _fit_forest(params, features, labels, seed, memo):
    # Trees differ through per-split feature sampling with per-tree seeds
    # (seed + index), not bootstrapping, so a one-tree forest at
    # max_feature=1.0 is exactly the CART build.  With every feature
    # sampled the builds are identical, and one tree's vote is the forest's.
    if params["max_feature"] >= 1.0:
        return [_Cart(params, seed, memo).fit(features, labels)]
    return [_Cart(params, seed + i, memo).fit(features, labels)
            for i in range(params["n_estimators"])]


def _fit_naive_bayes(features, labels):
    classes = np.flatnonzero(np.bincount(labels, minlength=2)).tolist()
    priors, means, variances = {}, {}, {}
    overall_var = features.var(axis=0).max() if features.size else 1.0
    smoothing = 1e-9 * max(overall_var, 1.0)
    for c in classes:
        rows = features[labels == c]
        priors[c] = len(rows) / len(labels)
        means[c] = np.add.reduce(rows, axis=0) / len(rows)  # np.var's steps, on one mean
        rows -= means[c]  # a copy: the features stay as they are
        variances[c] = np.add.reduce(np.square(rows, out=rows), axis=0) / len(rows) + smoothing
    return {"classes": classes, "priors": priors, "means": means, "vars": variances}


def _fit_logistic(features, labels):
    mean, std, x = _z_stats(features)
    y = labels.astype(float)
    w = np.zeros(x.shape[1])
    b = 0.0
    # Each epoch is p = 1 / (1 + exp(-(x @ w + b))), err = p - y, then
    # w -= rate * (x.T @ err) / n and b -= rate * err.mean(), in place.
    err, step = np.empty(len(y)), np.empty(x.shape[1])
    for _ in range(GD_EPOCHS):
        np.add(np.matmul(x, w, out=err), b, out=err)
        np.exp(np.negative(err, out=err), out=err)
        np.divide(1.0, np.add(err, 1.0, out=err), out=err)
        err -= y
        np.multiply(np.matmul(x.T, err, out=step), GD_LEARNING_RATE, out=step)
        w -= np.divide(step, len(y), out=step)
        b -= GD_LEARNING_RATE * (np.add.reduce(err) / len(y))
    return {"mean": mean, "std": std, "w": w, "b": b}


def _fit_linear_svms(features, labels, c_penalties):
    """One fitted state per C, from one epoch loop over a (k, F) weight matrix.

    Row j of every (k, ...) array is c_penalties[j]'s, and it equals, bit for bit, the
    one-C fit: the stacked matmul makes one matvec on yx per row of w, each C sums its own
    violator rows in row order, and the elementwise steps round alike in any shape.
    """
    mean, std, x = _z_stats(features)
    n, n_features = x.shape
    k = len(c_penalties)
    y = np.where(labels == 1, 1.0, -1.0)
    lam = np.array([[1.0 / c] for c in c_penalties])
    # yxy = [y * x, y]: one reduction over the violator rows sums both gradients.  It adds
    # the same rows in the same order as yx[violators].sum(0), and y's sum is a small
    # integer, exact in any order.  As y is +-1, yx @ w + y * b equals y * (x @ w + b).
    yxy = np.empty((n, n_features + 1))
    yx = yxy[:, :n_features]
    np.multiply(y[:, None], x, out=yx)
    yxy[:, n_features] = y
    sums = np.empty((k, n_features + 1))
    grad = sums[:, :n_features]
    yb, margins, step = np.empty((k, n)), np.empty((k, n)), np.empty((k, n_features))
    violators = np.empty((k, n), dtype=bool)
    w, b = np.zeros((k, n_features)), np.zeros(k)
    stacked_w, stacked_margins, b_column = w[:, :, None], margins[:, :, None], b[:, None]
    per_c = list(enumerate(zip(violators, sums)))
    # Calls on small arrays cost more than their arithmetic, so the loop calls bound
    # names with positional `out`; the method skips np.compress's Python wrapper.
    matmul, add, multiply, less, divide = np.matmul, np.add, np.multiply, np.less, np.divide
    compress, reduce = yxy.compress, np.add.reduce
    for _ in range(GD_EPOCHS):
        matmul(yx, stacked_w, stacked_margins)
        add(margins, multiply(y, b_column, yb), margins)
        less(margins, 1.0, violators)
        for j, (row_violates, row_sums) in per_c:
            rows = compress(row_violates, 0)
            if n_features > 1:  # row by row
                reduce(rows, 0, None, row_sums)
            else:  # one column of yx is a 1-D sum, which numpy adds pairwise
                row_sums[0], row_sums[1] = reduce(rows[:, 0]), reduce(rows[:, 1])
            # In Python floats, as b += rate * sum(y) / n is.
            b[j] = b.item(j) + GD_LEARNING_RATE * row_sums.item(n_features) / n
        # w -= rate * (lam * w - grad / n), in that order of operations.
        multiply(w, lam, step)
        step -= divide(grad, n, grad)
        w -= multiply(step, GD_LEARNING_RATE, step)
    return [{"mean": mean, "std": std, "w": w[j].copy(), "b": b.item(j)} for j in range(k)]


def _fit_knn(features, labels):
    mean, std, points = _z_stats(features)
    # "k" is set by decide; "ranked" holds the last query matrix and its ranking.
    return {"mean": mean, "std": std, "points": points, "labels": labels,
            "ranked": (None, None)}


def _score_forest(trees, x):
    return sum(tree.prob(x) >= 0.5 for tree in trees) / len(trees)


def _score_naive_bayes(state, x):
    log_post = {}
    for c in state["classes"]:
        var = state["vars"][c]
        log_like = -0.5 * (np.log(2 * math.pi * var)
                           + (x - state["means"][c]) ** 2 / var).sum(axis=1)
        log_post[c] = math.log(state["priors"][c]) + log_like
    if 1 not in log_post:
        return np.zeros(len(x))
    if 0 not in log_post:
        return np.ones(len(x))
    shift = np.maximum(log_post[0], log_post[1])
    p1 = np.exp(log_post[1] - shift)
    return p1 / (p1 + np.exp(log_post[0] - shift))


def _score_linear(state, x):
    z = (x - state["mean"]) / state["std"]
    return 1.0 / (1.0 + np.exp(-(z @ state["w"] + state["b"])))


def _score_knn(state, x):
    # A stable argsort's first k columns are a prefix of its first KNN_MAX_K, so one
    # ranking serves every k; it is keyed by the (never mutated) query matrix.
    queries, ranks = state["ranked"]
    if queries is not x:
        z = (x - state["mean"]) / state["std"]
        ranks = nearest(z, state["points"], min(KNN_MAX_K, len(state["labels"])), 2.0)
        state["ranked"] = (x, ranks)
    return state["labels"][ranks[:, :state["k"]]].mean(axis=1)


@dataclass(frozen=True)
class _Learner:
    """One learner kind: its tuning space, how it fits, how it scores a matrix."""

    space: ParamSpace
    fit: Callable  # (params, data, seed, goal, split memo) -> fitted state
    score: Callable  # (state, feature matrix) -> one score in [0, 1] per row
    needs_both_classes: bool = True
    # (params of each model, data) -> one fitted state each, all from one pass; or None.
    fit_batch: Callable | None = None


_THRESHOLD = ParamSpec("threshold", CONTINUOUS, 0.01, 1.0, default=0.5)
_DECIDED = frozenset({"threshold"})
_RF_DIMS = (
    _THRESHOLD,
    ParamSpec("max_feature", CONTINUOUS, 0.01, 1.0, default=1.0),
    ParamSpec("max_leaf_nodes", INTEGER, 1, 50, default=50),
    ParamSpec("min_sample_split", INTEGER, 2, 20, default=2),
    ParamSpec("min_samples_leaf", INTEGER, 1, 20, default=1),
)

# The fit entries are lambdas so that module functions (fft_mod.fit above
# all) are looked up when a model is fitted, not when this table is built.
_LEARNERS = {
    "cart": _Learner(
        ParamSpace(_RF_DIMS, _DECIDED),
        lambda p, data, seed, _, memo: _Cart(p, seed, memo).fit(data.features, data.labels),
        lambda cart, x: cart.prob(x)),
    "random_forest": _Learner(
        ParamSpace(_RF_DIMS + (ParamSpec("n_estimators", INTEGER, 50, 150, default=100),),
                   _DECIDED),
        lambda p, data, seed, _, memo: _fit_forest(p, data.features, data.labels, seed, memo),
        _score_forest),
    "naive_bayes": _Learner(
        ParamSpace((_THRESHOLD,), _DECIDED),
        lambda p, data, *_: _fit_naive_bayes(data.features, data.labels),
        _score_naive_bayes, needs_both_classes=False),
    "logistic": _Learner(
        ParamSpace((_THRESHOLD,), _DECIDED),
        lambda p, data, *_: _fit_logistic(data.features, data.labels),
        _score_linear),
    "knn": _Learner(
        ParamSpace((ParamSpec("k", INTEGER, 1, KNN_MAX_K, default=8), _THRESHOLD),
                   _DECIDED | {"k"}),
        lambda p, data, *_: _fit_knn(data.features, data.labels),
        _score_knn),
    "linear_svm": _Learner(
        ParamSpace((ParamSpec("C", CONTINUOUS, 1.0, 50.0, default=1.0),)),
        lambda p, data, *_: _fit_linear_svms(data.features, data.labels, [p["C"]])[0],
        _score_linear,
        fit_batch=lambda ps, data: _fit_linear_svms(data.features, data.labels,
                                                    [p["C"] for p in ps])),
    "fft": _Learner(
        ParamSpace((ParamSpec("d", INTEGER, 1, 5, default=4),)),
        lambda p, data, seed, goal, _: fft_mod.fit(data, goal or make_goal("dist2heaven"), p["d"]),
        lambda ensemble, x: ensemble.best_tree.predict(x).astype(float)),
}
KINDS = tuple(_LEARNERS)
LOCKSTEP_KINDS = frozenset(kind for kind, learner in _LEARNERS.items() if learner.fit_batch)


def predict_dataset(model: Model, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) for a whole dataset, after a schema fingerprint check."""
    if data.schema.feature_names != model.feature_names:
        raise ValueError("dataset schema does not match the model's training schema")
    scores = _LEARNERS[model.kind].score(model.state, data.features)
    return (scores >= model.threshold).astype(int), scores
