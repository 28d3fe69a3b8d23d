import contextlib
import heapq
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectkit.dataset import Memo, nearest, row_chunks
from defectkit.errors import DegenerateDataError
from defectkit import learners
from defectkit.learners import KINDS, LearnerSpec, fit, param_space, predict_dataset
from defectkit.metrics import goal
from defectkit.tuner import CONTINUOUS, INTEGER

from conftest import make_dataset, planted_dataset


def walk_cart(tree, x):
    """Leaf probability of one row, found by walking the tree node by node."""
    node = tree.root
    while node.feature is not None:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.prob


def structure(tree):
    """Nested tuples describing a tree's shape, leaf probabilities rounded to 12 places."""
    def walk(node):
        if node.feature is None:
            return ("leaf", round(node.prob, 12))
        return (node.feature, node.threshold, walk(node.left), walk(node.right))
    return walk(tree.root)


def predict(model, x):
    """(label, score) of one feature vector, scored as a one-row matrix."""
    row = np.asarray(x, dtype=float).reshape(1, -1)
    score = float(learners._LEARNERS[model.kind].score(model.state, row)[0])
    return int(score >= model.threshold), score


def reference_score(model, x):
    """Per-instance score of one feature vector, written independently of the
    matrix scorers (the oracle for predict_dataset)."""
    state = model.state
    if model.kind == "cart":
        return walk_cart(state, x)
    if model.kind == "random_forest":
        return float(np.mean([walk_cart(tree, x) >= 0.5 for tree in state]))
    if model.kind == "naive_bayes":
        log_post = {}
        for c in state["classes"]:
            var = state["vars"][c]
            log_like = -0.5 * (np.log(2 * math.pi * var)
                               + (x - state["means"][c]) ** 2 / var).sum()
            log_post[c] = math.log(state["priors"][c]) + log_like
        if 1 not in log_post:
            return 0.0
        if 0 not in log_post:
            return 1.0
        shift = max(log_post.values())
        p1 = math.exp(log_post[1] - shift)
        return p1 / (p1 + math.exp(log_post[0] - shift))
    if model.kind in ("logistic", "linear_svm"):
        z = (x - state["mean"]) / state["std"]
        return float(1.0 / (1.0 + np.exp(-(z @ state["w"] + state["b"]))))
    if model.kind == "knn":
        z = (x - state["mean"]) / state["std"]
        distances = np.sqrt(((state["points"] - z) ** 2).sum(axis=1))
        nearest = np.argsort(distances, kind="stable")[:state["k"]]
        return float(state["labels"][nearest].mean())
    if model.kind == "fft":
        tree = state.best_tree
        for rng in tree.levels:
            if (x[rng.attribute] <= rng.threshold if rng.relation == "<="
                    else x[rng.attribute] > rng.threshold):
                return float(rng.predicted)
        return float(tree.default)
    raise AssertionError(f"no reference scorer for {model.kind!r}")


def probe_accuracy(kind, data, params=None, seed=0):
    model = fit(LearnerSpec(kind, params or {}), data, seed)
    labels, _ = predict_dataset(model, data)
    return (labels == data.labels).mean()


class TestParamSpaces:
    def test_random_forest_table(self):
        space = param_space("random_forest")
        dims = {s.name: s for s in space}
        assert set(dims) == {"threshold", "max_feature", "max_leaf_nodes",
                             "min_sample_split", "min_samples_leaf", "n_estimators"}
        assert (dims["threshold"].lo, dims["threshold"].hi) == (0.01, 1.0)
        assert (dims["max_feature"].lo, dims["max_feature"].hi) == (0.01, 1.0)
        assert (dims["max_leaf_nodes"].lo, dims["max_leaf_nodes"].hi) == (1, 50)
        assert (dims["min_sample_split"].lo, dims["min_sample_split"].hi) == (2, 20)
        assert (dims["min_samples_leaf"].lo, dims["min_samples_leaf"].hi) == (1, 20)
        assert (dims["n_estimators"].lo, dims["n_estimators"].hi) == (50, 150)
        assert dims["n_estimators"].default == 100
        assert dims["n_estimators"].kind == INTEGER
        assert dims["threshold"].default == 0.5

    def test_linear_svm_exposes_only_c(self):
        space = param_space("linear_svm")
        assert [s.name for s in space] == ["C"]
        assert (space["C"].lo, space["C"].hi, space["C"].default) == (1.0, 50.0, 1.0)

    def test_fft_depth_dimension(self):
        space = param_space("fft")
        assert (space["d"].lo, space["d"].hi, space["d"].default) == (1, 5, 4)

    def test_knn_default_is_eight(self):
        assert param_space("knn")["k"].default == 8

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            param_space("perceptron")


class TestSpecValidation:
    def test_out_of_range_names_parameter_and_range(self):
        with pytest.raises(ValueError, match=r"n_estimators.*50.*150"):
            LearnerSpec("random_forest", {"n_estimators": 9})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError):
            LearnerSpec("cart", {"depth": 3})

    # A bool constructed (True fitted a one-leaf tree); a str raised a bare TypeError.
    @pytest.mark.parametrize("name, value", [
        ("max_leaf_nodes", True), ("threshold", True), ("max_leaf_nodes", "5"),
        ("threshold", "0.5"), ("threshold", None), ("max_feature", np.bool_(True))])
    def test_non_number_tuning_names_parameter(self, name, value):
        with pytest.raises(ValueError, match=f"^parameter {name}={value!r} outside legal range"):
            LearnerSpec("cart", {name: value})

    def test_integral_float_and_numpy_numbers_are_legal_tunings(self):
        spec = LearnerSpec("cart", {"max_leaf_nodes": 5.0, "threshold": np.float64(0.25),
                                    "min_samples_leaf": np.int64(3)})
        assert spec.resolved()["max_leaf_nodes"] == 5

    def test_resolved_merges_defaults(self):
        spec = LearnerSpec("random_forest", {"n_estimators": 60})
        resolved = spec.resolved()
        assert resolved["n_estimators"] == 60
        assert resolved["threshold"] == 0.5


class TestFitBasics:
    def test_deterministic_given_seed(self, separated8):
        probe = planted_dataset(n=30, n_noise=1, seed=2)
        for kind in KINDS:
            spec = LearnerSpec(kind, {"max_feature": 0.5} if kind in ("cart",
                               "random_forest") else {})
            m1 = fit(spec, separated8, seed=5)
            m2 = fit(spec, separated8, seed=5)
            s1 = [predict(m1, x)[1] for x in probe.features]
            s2 = [predict(m2, x)[1] for x in probe.features]
            assert s1 == s2, kind

    def test_single_class_rejected_except_naive_bayes(self):
        data = make_dataset([[1.0], [2.0], [3.0]], [1, 1, 1])
        for kind in ("cart", "random_forest", "logistic", "knn", "linear_svm", "fft"):
            with pytest.raises(DegenerateDataError):
                fit(LearnerSpec(kind), data, seed=0)
        model = fit(LearnerSpec("naive_bayes"), data, seed=0)
        assert predict(model, np.array([2.0, 10.0]))[0] == 1

    def test_empty_data_rejected(self):
        data = make_dataset([[1.0]], [0]).subset([])
        with pytest.raises(ValueError):
            fit(LearnerSpec("cart"), data, seed=0)


class TestCapacity:
    def test_every_learner_separates_eight_instances(self, separated8):
        assert probe_accuracy("cart", separated8) == 1.0
        assert probe_accuracy("random_forest", separated8) == 1.0
        assert probe_accuracy("logistic", separated8) == 1.0
        assert probe_accuracy("knn", separated8, {"k": 1}) == 1.0
        assert probe_accuracy("linear_svm", separated8) == 1.0
        assert probe_accuracy("fft", separated8) == 1.0
        assert probe_accuracy("naive_bayes", separated8) >= 0.875

    def test_cart_perfect_separator(self, separator6):
        assert probe_accuracy("cart", separator6) == 1.0


def repeated_tree_forest(params, features, labels, seed):
    """The forest fit that fills all n slots with its one tree when every feature is sampled."""
    memo = Memo(None, learners.SPLIT_MEMO_NODES)
    if params["max_feature"] >= 1.0:
        return [learners._Cart(params, seed, memo).fit(features, labels)] * params["n_estimators"]
    return [learners._Cart(params, seed + i, memo).fit(features, labels)
            for i in range(params["n_estimators"])]


def id_cached_votes(trees, x):
    """Share of slots voting defective; a tree that fills several slots votes once per slot."""
    vote_cache = {}
    votes = np.zeros(len(x))
    for tree in trees:
        if id(tree) not in vote_cache:
            vote_cache[id(tree)] = tree.prob(x) >= 0.5
        votes += vote_cache[id(tree)]
    return votes / len(trees)


class TestRandomForest:
    @pytest.mark.parametrize("params", [
        {"n_estimators": 50}, {}, {"n_estimators": 150},
        {"max_feature": 0.3, "n_estimators": 50}, {"max_feature": 0.7},
    ], ids=["shared-50", "shared-100", "shared-150", "sampled-0.3", "sampled-0.7"])
    def test_scores_equal_repeated_tree_oracle(self, params):
        train = planted_dataset(n=60, n_noise=5, gap=0.3, seed=8)
        test = planted_dataset(n=40, n_noise=5, gap=0.3, seed=9)
        spec = LearnerSpec("random_forest", params)
        oracle = repeated_tree_forest(spec.resolved(), train.features, train.labels, 4)
        _, scores = predict_dataset(fit(spec, train, seed=4), test)
        assert scores.tolist() == id_cached_votes(oracle, test.features).tolist()

    def test_one_tree_full_features_reduces_to_cart(self, separated8):
        data = planted_dataset(n=40, n_noise=3, seed=6)
        rf = fit(LearnerSpec("random_forest", {"n_estimators": 50}), data, seed=3)
        # n_estimators floor is 50; compare the first tree, seeded seed+0
        cart = fit(LearnerSpec("cart"), data, seed=3)
        assert structure(rf.state[0]) == structure(cart.state)
        rf_labels = np.array([walk_cart(tree, x) >= 0.5 for tree in rf.state[:1]
                              for x in data.features], dtype=int)
        cart_labels, _ = predict_dataset(cart, data)
        assert rf_labels.tolist() == cart_labels.tolist()

    def test_unanimous_vote_scores_one(self, separated8):
        model = fit(LearnerSpec("random_forest", {"n_estimators": 50}), separated8, seed=0)
        _, score = predict(model, separated8.features[-1])
        assert score == 1.0
        for threshold in (0.2, 0.5, 1.0):
            model.threshold = threshold
            assert predict(model, separated8.features[-1])[0] == 1

    def test_max_feature_sampling_changes_trees(self):
        data = planted_dataset(n=60, n_noise=5, seed=8)
        model = fit(LearnerSpec("random_forest",
                                {"n_estimators": 50, "max_feature": 0.2}), data, seed=1)
        structures = {str(structure(tree)) for tree in model.state}
        assert len(structures) > 1


class TestScores:
    def test_logistic_zero_weights_scores_half(self):
        # identical rows with opposite labels keep every gradient at zero
        data = make_dataset([[2.0, 3.0], [2.0, 3.0]], [0, 1])
        model = fit(LearnerSpec("logistic"), data, seed=0)
        assert predict(model, data.features[0])[1] == 0.5

    def test_naive_bayes_recovers_training_defective(self):
        data = make_dataset([[0.0, 0.2], [1.0, 0.9], [10.0, 10.3], [11.0, 9.8]],
                            [0, 0, 1, 1])
        model = fit(LearnerSpec("naive_bayes"), data, seed=0)
        label, score = predict(model, np.array([10.0, 10.3, 10.0]))
        assert label == 1
        assert score > 0.99

    def test_knn_self_match_at_distance_zero(self):
        data = make_dataset([[5.0, 5.0], [0.0, 0.0], [1.0, 1.0]], [1, 0, 0])
        model = fit(LearnerSpec("knn", {"k": 1}), data, seed=0)
        label, score = predict(model, np.array([5.0, 5.0, 10.0]))
        assert (label, score) == (1, 1.0)

    def test_knn_tie_votes_defective(self):
        data = make_dataset([[0.0], [2.0], [4.0], [6.0]], [0, 1, 0, 1])
        model = fit(LearnerSpec("knn", {"k": 2}), data, seed=0)
        label, score = predict(model, np.array([3.0, 10.0]))
        assert score == 0.5
        assert label == 1

    def test_threshold_monotonicity(self, separated8):
        rng = np.random.default_rng(9)
        probes = rng.uniform(0, 10, (20, 3))
        for kind in ("cart", "random_forest", "naive_bayes", "logistic", "linear_svm"):
            model = fit(LearnerSpec(kind), separated8, seed=0)
            previous = None
            for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
                model.threshold = threshold
                labels = np.array([predict(model, x)[0] for x in probes])
                if previous is not None:
                    assert (labels <= previous).all(), kind
                previous = labels

    def test_scores_in_unit_interval(self, separated8):
        rng = np.random.default_rng(10)
        probes = rng.uniform(-5, 15, (30, 3))
        for kind in KINDS:
            model = fit(LearnerSpec(kind), separated8, seed=0)
            for x in probes:
                _, score = predict(model, x)
                assert 0.0 <= score <= 1.0, kind


class TestVectorizedAgreement:
    def test_predict_dataset_matches_per_instance_predict(self):
        data = planted_dataset(n=60, n_noise=3, seed=12)
        probe = planted_dataset(n=25, n_noise=3, seed=13)
        for kind in KINDS:
            params = {"max_feature": 0.5, "n_estimators": 50} if kind == "random_forest" \
                else {"k": 3} if kind == "knn" else {}
            model = fit(LearnerSpec(kind, params), data, seed=4)
            labels, scores = predict_dataset(model, probe)
            reference = [reference_score(model, x) for x in probe.features]
            assert labels.tolist() == [int(s >= model.threshold) for s in reference], kind
            assert scores == pytest.approx(reference, abs=1e-12), kind
            singly = [predict(model, x) for x in probe.features]
            assert [s for _, s in singly] == pytest.approx(reference, abs=1e-12), kind


def per_epoch_linear_svm(features, labels, c_penalty, margins_seen=None):
    """The linear SVM fit that forms y * x for the violators on every epoch (the oracle).

    Each epoch's margins are appended to `margins_seen` if it is given."""
    _, _, x = learners._z_stats(features)
    y = np.where(labels == 1, 1.0, -1.0)
    lam = 1.0 / c_penalty
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(learners.GD_EPOCHS):
        margins = y * (x @ w + b)
        if margins_seen is not None:
            margins_seen.append(margins)
        violators = margins < 1
        w -= learners.GD_LEARNING_RATE * (lam * w - (y[violators, None] * x[violators]).sum(0)
                                          / len(y))
        b += learners.GD_LEARNING_RATE * y[violators].sum() / len(y)
    return w, b


def svm_case(seed, n, n_features, constant, separable):
    """Lognormal columns of mixed scale, one label in three defective; `constant` fixes the
    last column, and `separable` parts the classes by a wide gap in the first."""
    rng = np.random.default_rng(seed)
    features = rng.lognormal(0, 1.5, (n, n_features)) * 10.0 ** rng.integers(-2, 3, n_features)
    labels = (rng.random(n) < 1 / 3).astype(int)
    if separable:
        features[:, 0] = 10.0 * labels + rng.random(n)
    if constant:
        features[:, -1] = 0.1
    return features, labels


def svm_state_bytes(state):
    return state["w"].tobytes(), np.float64(state["b"]).tobytes()


def svm_fit_bytes(features, labels, c_penalty):
    return svm_state_bytes(learners._fit_linear_svms(features, labels, [c_penalty])[0])


def oracle_bytes(features, labels, c_penalty):
    w, b = per_epoch_linear_svm(features, labels, c_penalty)
    return w.tobytes(), np.float64(b).tobytes()


class TestLinearSvm:
    @pytest.mark.parametrize("c_penalty", [1.0, 7.3, 33.0])
    def test_weights_equal_per_epoch_fit(self, c_penalty):
        # A small gap leaves violators on every epoch, so each update sums products.
        data = planted_dataset(n=300, n_noise=8, seed=21, gap=0.3)
        model = fit(LearnerSpec("linear_svm", {"C": c_penalty}), data, seed=0)
        w, b = per_epoch_linear_svm(data.features, data.labels, c_penalty)
        assert (model.state["w"] == w).all()
        assert model.state["b"] == b

    # Epoch 1 makes every row a violator (w = 0, b = 0); a separable case later has none.
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 200),
           n_features=st.integers(1, 25), constant=st.booleans(), separable=st.booleans(),
           c_penalty=st.sampled_from([1.0, 50.0]) | st.floats(1.0, 50.0))
    def test_weights_equal_per_epoch_fit_on_drawn_cases(self, seed, n, n_features, constant,
                                                        separable, c_penalty):
        features, labels = svm_case(seed, n, n_features, constant, separable)
        assert svm_fit_bytes(features, labels, c_penalty) == oracle_bytes(features, labels,
                                                                          c_penalty)

    # The lockstep loop fits each C of a batch in one row of (k, ...) arrays.  A margin
    # that differs in its last bits changes the weights only if it crosses 1, so every
    # epoch's margins are compared too (by value: 0.0 == -0.0).
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 200),
           n_features=st.integers(1, 25), constant=st.booleans(), separable=st.booleans(),
           c_penalties=st.lists(st.sampled_from([1.0, 50.0]) | st.floats(1.0, 50.0),
                                min_size=1, max_size=6, unique=True))
    def test_lockstep_fit_equals_per_epoch_fit_on_drawn_cases(self, seed, n, n_features,
                                                              constant, separable,
                                                              c_penalties):
        features, labels = svm_case(seed, n, n_features, constant, separable)
        less, margins = np.less, []

        def recording(epoch_margins, limit, out):
            margins.append(epoch_margins.copy())
            return less(epoch_margins, limit, out=out)

        with mock.patch.object(np, "less", recording):
            states = learners._fit_linear_svms(features, labels, c_penalties)
        assert len(states) == len(c_penalties)
        for j, (state, c_penalty) in enumerate(zip(states, c_penalties)):
            oracle_margins = []
            w, b = per_epoch_linear_svm(features, labels, c_penalty, oracle_margins)
            assert svm_state_bytes(state) == (w.tobytes(), np.float64(b).tobytes())
            assert np.array_equal([epoch[j] for epoch in margins], oracle_margins)

    @pytest.mark.parametrize("labels", [[1, 1, 1], []], ids=["one_class", "empty"])
    def test_lockstep_fit_raises_what_fit_raises(self, labels):
        data = make_dataset([[1.0], [2.0], [3.0]], [1, 1, 1]).subset(range(len(labels)))
        spec = LearnerSpec("linear_svm", {"C": 3.0})
        with pytest.raises((ValueError, DegenerateDataError)) as alone:
            fit(spec, data, seed=0)
        with pytest.raises(type(alone.value)) as together:
            learners.fit_many([spec, LearnerSpec("linear_svm")], data, seed=0)
        assert str(together.value) == str(alone.value)

    def test_cases_reach_epochs_with_every_and_no_row_violating(self):
        features, labels = svm_case(0, 160, 22, constant=False, separable=True)
        less, picked = np.less, []

        def counting(margins, limit, out):  # the epoch's violator mask, one row per C
            less(margins, limit, out=out)
            picked.append(int(np.count_nonzero(out)))
            return out

        with mock.patch.object(np, "less", counting):
            fitted = svm_fit_bytes(features, labels, 50.0)
        assert len(picked) == learners.GD_EPOCHS and picked[0] == 160 and 0 in picked
        assert fitted == oracle_bytes(features, labels, 50.0)


@st.composite
def learner_specs(draw, kind):
    """A spec of `kind` whose tunings are drawn from its space, each kept or left default."""
    params = {}
    for dim in param_space(kind):
        if draw(st.booleans()):
            params[dim.name] = draw(st.floats(dim.lo, dim.hi) if dim.kind == CONTINUOUS
                                    else st.integers(int(dim.lo), int(dim.hi)))
    return LearnerSpec(kind, params)


class TestFitMany:
    """The batch entry's models are the one-by-one fits' models."""

    # The batch shares one split memo; each one-by-one fit makes its own.  The last spec
    # may be of another kind, which fits a lockstep kind one by one too.
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(KINDS), other=st.sampled_from(KINDS), data=st.data(),
           seed=st.integers(0, 2 ** 16), goal_kind=st.sampled_from(["dist2heaven", "p_opt"]))
    def test_models_equal_one_by_one_fits(self, kind, other, data, seed, goal_kind):
        train = planted_dataset(n=30, n_noise=3, seed=seed, gap=0.3)
        test = planted_dataset(n=30, n_noise=3, seed=seed + 1, gap=0.3)
        specs = data.draw(st.lists(learner_specs(kind), min_size=1, max_size=2))
        specs += data.draw(st.lists(learner_specs(other), max_size=1))
        g = goal(goal_kind)
        models = learners.fit_many(specs, train, seed, g, Memo(train, learners.SPLIT_MEMO_NODES))
        assert len(models) == len(specs)
        for model, spec in zip(models, specs):
            alone = fit(spec, train, seed, goal=g)
            assert (model.kind, model.feature_names, np.float64(model.threshold).tobytes()) == (
                alone.kind, alone.feature_names, np.float64(alone.threshold).tobytes())
            assert predict_dataset(model, test)[1].tobytes() \
                == predict_dataset(alone, test)[1].tobytes()


def per_epoch_logistic(features, labels):
    """The logistic fit that allocates fresh arrays on every epoch (the oracle)."""
    _, _, x = learners._z_stats(features)
    y = labels.astype(float)
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(learners.GD_EPOCHS):
        p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
        err = p - y
        w -= learners.GD_LEARNING_RATE * (x.T @ err) / len(y)
        b -= learners.GD_LEARNING_RATE * err.mean()
    return w, b


class TestLogistic:
    @pytest.mark.parametrize("n,n_noise,seed,gap", [(300, 8, 21, 0.3), (37, 1, 3, 2.0),
                                                    (160, 20, 1, 1.0)])
    def test_weights_equal_per_epoch_fit(self, n, n_noise, seed, gap):
        data = planted_dataset(n=n, n_noise=n_noise, seed=seed, gap=gap)
        model = fit(LearnerSpec("logistic"), data, seed=0)
        w, b = per_epoch_logistic(data.features, data.labels)
        assert (model.state["w"] == w).all()
        assert model.state["b"] == b


def mean_var_naive_bayes(features, labels):
    """The naive-Bayes fit through np.mean and np.var (the one-mean fit's oracle)."""
    classes = np.flatnonzero(np.bincount(labels, minlength=2)).tolist()
    overall_var = features.var(axis=0).max() if features.size else 1.0
    smoothing = 1e-9 * max(overall_var, 1.0)
    rows = {c: features[labels == c] for c in classes}
    return {"classes": classes, "priors": {c: len(rows[c]) / len(labels) for c in classes},
            "means": {c: np.mean(rows[c], axis=0) for c in classes},
            "vars": {c: np.var(rows[c], axis=0) + smoothing for c in classes}}


class TestNaiveBayes:
    # Lognormal columns of mixed scale make rounding differences show; a class may hold
    # one row or every row, and a column may be constant.
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), n_features=st.integers(1, 6),
           n_defective=st.integers(0, 40), constant=st.booleans())
    def test_equals_the_mean_var_oracle(self, seed, n, n_features, n_defective, constant):
        rng = np.random.default_rng(seed)
        features = rng.lognormal(0, 2, (n, n_features)) * 10.0 ** rng.integers(-3, 4, n_features)
        if constant:
            features[:, 0] = 0.1
        labels = rng.permutation(np.arange(n) < min(n_defective, n)).astype(int)
        state, expected = learners._fit_naive_bayes(features, labels), \
            mean_var_naive_bayes(features, labels)
        assert state["classes"] == expected["classes"] and state["priors"] == expected["priors"]
        for c in expected["classes"]:
            for key in ("means", "vars"):
                assert state[key][c].tobytes() == expected[key][c].tobytes(), (key, c)

    @pytest.mark.parametrize("labels", [[0, 0, 0, 1], [1, 0, 1, 1], [0, 0, 0, 0], [1, 1, 1]])
    def test_one_row_classes_and_single_class_equal_the_oracle(self, labels):
        features = np.array([[0.1, 3.0, 7.7], [0.2, 3.0, 1e-3], [0.7, 3.0, 12.5],
                             [1e4, 3.0, 0.3]])[:len(labels)]
        state = learners._fit_naive_bayes(features, np.array(labels))
        expected = mean_var_naive_bayes(features, np.array(labels))
        for key in ("means", "vars"):
            assert all(state[key][c].tobytes() == expected[key][c].tobytes()
                       for c in expected["classes"])


def one_shot_knn(state, x):
    """knn scores from one n_test x n_train x F distance array (the chunking oracle)."""
    z = (x - state["mean"]) / state["std"]
    distances = np.sqrt(((z[:, None, :] - state["points"][None, :, :]) ** 2).sum(axis=2))
    nearest = np.argsort(distances, axis=1, kind="stable")[:, :state["k"]]
    return state["labels"][nearest].mean(axis=1)


class TestKnnChunks:
    @pytest.mark.parametrize("n_train,n_test,n_features,k", [
        (300, 200, 21, 8), (257, 131, 9, 1), (120, 333, 40, 20)])
    def test_chunked_scores_equal_one_shot(self, n_train, n_test, n_features, k):
        rng = np.random.default_rng(n_train)
        # Small integer features make many equal distances, so tie order counts.
        features = rng.integers(0, 4, size=(n_train + n_test, n_features)).astype(float)
        labels = (rng.random(n_train + n_test) < 0.3).astype(int)
        train = make_dataset(features[:n_train], labels[:n_train])
        test = make_dataset(features[n_train:], labels[n_train:])
        model = fit(LearnerSpec("knn", {"k": k}), train, seed=0)
        assert len(row_chunks(len(test), model.state["points"].size)) > 1
        _, scores = predict_dataset(model, test)
        assert np.array_equal(scores, one_shot_knn(model.state, test.features))

    def test_peak_memory_does_not_grow_with_test_rows(self):
        rng = np.random.default_rng(0)
        data = make_dataset(rng.normal(size=(600, 10)), rng.random(600) < 0.3)
        model = fit(LearnerSpec("knn"), data, seed=0)
        tracemalloc.start()
        try:
            predict_dataset(model, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One 600 x 600 x 11 float array alone is 31.7 MB.
        assert peak < 16 * 2 ** 20


def per_k_score_knn(state, x):
    """knn scores ranked at state["k"] itself (the scorer before one ranking served every k)."""
    z = (x - state["mean"]) / state["std"]
    return state["labels"][nearest(z, state["points"], state["k"], 2.0)].mean(axis=1)


class TestKnnRanking:
    @pytest.mark.parametrize("n_train", [12, 90])
    def test_one_ranking_sliced_at_every_k_equals_per_k_scoring(self, n_train):
        rng = np.random.default_rng(n_train)
        # Small integer features make many equal distances, so tie order counts.
        features = rng.integers(0, 3, size=(n_train + 70, 6)).astype(float)
        labels = (rng.random(n_train + 70) < 0.4).astype(int)
        train = make_dataset(features[:n_train], labels[:n_train])
        test = make_dataset(features[n_train:], labels[n_train:])
        model = fit(LearnerSpec("knn"), train, seed=0)
        with mock.patch.object(learners, "nearest", wraps=learners.nearest) as ranking:
            for k in range(1, 21):
                _, scores = predict_dataset(learners.decide(model, {"k": k}), test)
                assert model.state["k"] == min(k, n_train)
                assert np.array_equal(scores, per_k_score_knn(model.state, test.features))
        assert ranking.call_count == 1


# The split search before its memo, kept verbatim as the oracle for the split Memo.
def oracle_entropy(n_pos, n):
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(n > 0, n_pos / np.maximum(n, 1), 0.0)
        h = -(np.where(p > 0, p * np.log2(p), 0.0)
              + np.where(p < 1, (1 - p) * np.log2(1 - p), 0.0))
    return np.where(n > 0, h, 0.0)


def oracle_best_split(features, labels, candidates, min_samples_leaf):
    n = len(labels)
    if n < 2:
        return None
    parent = oracle_entropy(np.array([labels.sum()]), np.array([n]))[0]
    sub = features[:, candidates]
    order = np.argsort(sub, axis=0, kind="stable")
    v = np.take_along_axis(sub, order, axis=0)
    cum_pos = np.cumsum(labels[order], axis=0)

    left_n = np.arange(1, n, dtype=float)[:, None]
    right_n = n - left_n
    left_pos = cum_pos[:-1]
    right_pos = cum_pos[-1] - left_pos
    gain = parent - (left_n * oracle_entropy(left_pos, left_n)
                     + right_n * oracle_entropy(right_pos, right_n)) / n
    valid = ((v[1:] > v[:-1])  # boundary between distinct values
             & (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf))
    gain = np.where(valid, gain, -np.inf)

    flat = int(np.argmax(gain.T))  # feature-major: lowest feature index wins ties
    col, boundary = divmod(flat, n - 1)
    best_gain = gain[boundary, col]
    if best_gain <= 1e-12:
        return None
    threshold = float((v[boundary, col] + v[boundary + 1, col]) / 2.0)
    return (float(best_gain), int(candidates[col]), threshold)


class OracleCart:
    def __init__(self, params: dict, seed: int):
        self.params = params
        self.seed = seed
        self.root = None

    def _feature_sample(self, n_features: int, rng: np.random.Generator) -> np.ndarray:
        size = max(1, int(round(self.params["max_feature"] * n_features)))
        if size >= n_features:
            return np.arange(n_features)
        return np.sort(rng.choice(n_features, size=size, replace=False))

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "OracleCart":
        rng = np.random.default_rng(self.seed)
        min_split = self.params["min_sample_split"]
        min_leaf = self.params["min_samples_leaf"]
        max_leaves = self.params["max_leaf_nodes"]
        self.root = learners._TreeNode(float(labels.mean()))
        heap = []
        counter = 0

        def consider(node, feats, labs):
            nonlocal counter
            if len(labs) < min_split or len(np.unique(labs)) < 2:
                return
            split = oracle_best_split(feats, labs, self._feature_sample(feats.shape[1], rng),
                                      min_leaf)
            if split is not None:
                heapq.heappush(heap, (-split[0], counter, node, split, feats, labs))
                counter += 1

        consider(self.root, features, labels)
        leaves = 1
        while heap and leaves < max_leaves:
            _, _, node, (gain, f, threshold), feats, labs = heapq.heappop(heap)
            mask = feats[:, f] <= threshold
            node.feature, node.threshold = f, threshold
            node.left = learners._TreeNode(float(labs[mask].mean()))
            node.right = learners._TreeNode(float(labs[~mask].mean()))
            leaves += 1
            consider(node.left, feats[mask], labs[mask])
            consider(node.right, feats[~mask], labs[~mask])
        return self


def oracle_fit_forest(params, features, labels, seed):
    if params["max_feature"] >= 1.0:
        return [OracleCart(params, seed).fit(features, labels)] * params["n_estimators"]
    return [OracleCart(params, seed + i).fit(features, labels)
            for i in range(params["n_estimators"])]


def small_or_any(lo, hi):
    """Integers in [lo, hi], half the time from its low end (deep trees need small minima)."""
    return st.one_of(st.integers(lo, lo + 2), st.integers(lo, hi))


def tree_fits(kinds):
    """Fits on one tie-heavy integer dataset: (data seed, n, F, [(kind, params, seed)])."""
    return st.tuples(
        st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.integers(1, 5),
        st.lists(st.tuples(
            st.sampled_from(kinds),
            st.fixed_dictionaries({"max_feature": st.floats(0.01, 1.0),
                                   "max_leaf_nodes": st.integers(1, 50),
                                   "min_sample_split": small_or_any(2, 20),
                                   "min_samples_leaf": small_or_any(1, 20),
                                   "n_estimators": st.integers(50, 150)}),
            st.integers(0, 2 ** 16)), min_size=1, max_size=3))


def tie_heavy_data(data_seed, n, n_features):
    rng = np.random.default_rng(data_seed)
    return make_dataset(rng.integers(0, 4, size=(n, n_features)), [0, 1] + [
        int(v) for v in rng.random(n - 2) < rng.random()])


def check_fits_against_oracle(data, fits, bound):
    memo = Memo(data, bound)
    for kind, params, seed in fits:
        if kind == "cart":
            params = {k: v for k, v in params.items() if k != "n_estimators"}
        model = fit(LearnerSpec(kind, params), data, seed, memo=memo)
        assert len(memo.entries) <= bound  # the entropy table counts as an entry
        assert memo.entries.get("entropy", np.empty(0)).size <= learners.CHUNK_TERMS
        resolved = LearnerSpec(kind, params).resolved()
        if kind == "cart":
            got, expected = [model.state], [OracleCart(resolved, seed).fit(data.features,
                                                                           data.labels)]
        else:
            # A shared forest holds its one tree once; the oracle repeats it per slot.
            got, expected = model.state, list(dict.fromkeys(
                oracle_fit_forest(resolved, data.features, data.labels, seed)))
        assert list(map(structure, got)) == list(map(structure, expected))


class TestSplitMemo:
    """Fits that share a split Memo grow exactly the trees of the memo-free build."""

    @settings(max_examples=15, deadline=None)
    @given(tree_fits(["cart", "random_forest"]))
    def test_shared_memo_fits_equal_oracle(self, case):
        data_seed, n, n_features, fits = case
        check_fits_against_oracle(tie_heavy_data(data_seed, n, n_features), fits,
                                  learners.SPLIT_MEMO_NODES)

    # Cart only: without the memo's hits a forest's hundred trees take too long.
    @settings(max_examples=20, deadline=None)
    @given(tree_fits(["cart"]), st.integers(1, 4))
    def test_tiny_memo_bound_still_exact_and_held(self, case, bound):
        data_seed, n, n_features, fits = case
        check_fits_against_oracle(tie_heavy_data(data_seed, n, n_features), fits, bound)

    # The cap at the data's (rows + 1) x (positives + 1) terms keeps the table; one below
    # it, every search computes its entropies.
    @settings(max_examples=15, deadline=None)
    @given(tree_fits(["cart", "random_forest"]), st.booleans())
    def test_fits_on_each_side_of_the_table_cap_equal_oracle(self, case, tabled):
        data_seed, n, n_features, fits = case
        data = tie_heavy_data(data_seed, n, n_features)
        routes, best_split = [], learners._best_split

        def recording(sub, labels, min_samples_leaf, table=None):
            routes.append(table is not None)
            return best_split(sub, labels, min_samples_leaf, table)

        cap = (n + 1) * (data.n_defective + 1) - (not tabled)
        with mock.patch.object(learners, "CHUNK_TERMS", cap), \
                mock.patch.object(learners, "_best_split", recording):
            check_fits_against_oracle(data, fits, learners.SPLIT_MEMO_NODES)
        assert set(routes) <= {tabled}

    @pytest.mark.parametrize("kind", ["cart", "random_forest"])
    def test_full_feature_fit_makes_no_generator(self, monkeypatch, kind):
        def no_generator(*args, **kwargs):
            raise AssertionError("a fit that samples every feature draws nothing")

        data = planted_dataset(n=60, n_noise=5, seed=8)
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        fit(LearnerSpec(kind, {"max_feature": 1.0}), data, seed=3)

    def test_refit_restarts_the_draw_stream(self):
        data = planted_dataset(n=60, n_noise=5, seed=8)
        params = LearnerSpec("cart", {"max_feature": 0.3}).resolved()
        cart = learners._Cart(params, 5, Memo(data, learners.SPLIT_MEMO_NODES))
        first = structure(cart.fit(data.features, data.labels))
        assert structure(cart.fit(data.features, data.labels)) == first
        assert first == structure(OracleCart(params, 5).fit(data.features, data.labels))

    def test_memo_serves_its_own_data_only(self, separated8):
        memo = Memo(separated8, learners.SPLIT_MEMO_NODES)
        other = make_dataset(separated8.features[:, :-1], separated8.labels)
        with pytest.raises(ValueError, match="Memo serves its own dataset"):
            fit(LearnerSpec("cart"), other, 0, memo=memo)


def fitted_entropy_table(labels):
    """The entropy table a cart fit on `labels` keeps in its split memo."""
    memo = Memo(None, learners.SPLIT_MEMO_NODES)
    learners._Cart(LearnerSpec("cart").resolved(), 0, memo).fit(np.zeros((len(labels), 1)),
                                                                labels)
    return memo.entries["entropy"]


class TestEntropyTable:
    """The table's gathers give _entropy's bytes, and so the split search's."""

    # Counts of one ratio at several scales (1 of 2, 2 of 4, ...), none and all positive.
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gather_and_split_bytes_equal_entropy(self, data):
        rows = data.draw(st.integers(2, 300))
        positives = data.draw(st.sampled_from([1, rows - 1]) | st.integers(1, rows - 1))
        table = fitted_entropy_table(np.arange(rows) < positives)
        assert table.shape == (rows + 1, positives + 1)
        n, pos = [], []
        for _ in range(data.draw(st.integers(1, 20))):
            base_n = data.draw(st.integers(1, rows))
            base_pos = data.draw(st.sampled_from([0, min(base_n, positives)])
                                 | st.integers(0, min(base_n, positives)))
            scales = range(1, min(rows // base_n, positives // max(base_pos, 1)) + 1)
            n += [base_n * k for k in scales]
            pos += [base_pos * k for k in scales]
        n, pos = np.array(n), np.array(pos)
        assert (table.take(n * table.shape[1] + pos).tobytes()
                == learners._entropy(pos, n.astype(float)).tobytes())

        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        features = rng.integers(0, 3, size=(rows, data.draw(st.integers(1, 4)))).astype(float)
        labels = rng.permutation(np.arange(rows) < positives).astype(int)
        node = np.flatnonzero(rng.random(rows) < rng.random())  # a node's rows, in order
        for idx in (np.arange(rows), node) if len(node) >= 2 else (np.arange(rows),):
            min_leaf = data.draw(small_or_any(1, 20))
            split = learners._best_split(features[idx], labels[idx], min_leaf)
            gathered = learners._best_split(features[idx], labels[idx], min_leaf, table)
            assert [a.tobytes() for a in gathered] == [a.tobytes() for a in split]


def test_byte_identity_properties_hold_on_older_cpu_kernels():
    # The SVM fit's matvecs run on a strided view (lda = F + 1), stacked one per C, BLAS
    # call shapes nothing else makes, and the entropy table's values come from log2 over
    # another array than the search's.  Run those oracle properties again under OpenBLAS's
    # Prescott kernels and under numpy's baseline loops, each in a child process, the two
    # at once.
    root = Path(__file__).resolve().parent.parent
    tests = [f"{__file__}::{name}" for name in (
        "TestLinearSvm::test_weights_equal_per_epoch_fit_on_drawn_cases",
        "TestLinearSvm::test_lockstep_fit_equals_per_epoch_fit_on_drawn_cases",
        "TestEntropyTable::test_gather_and_split_bytes_equal_entropy")]
    cpu_settings = [{"OPENBLAS_CORETYPE": "Prescott"},
                    {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}]
    with contextlib.ExitStack() as stack:
        children = [stack.enter_context(subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src"), **extra),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True))
            for extra in cpu_settings]
        for extra, child in zip(cpu_settings, children):
            output, _ = child.communicate(timeout=120)
            assert child.returncode == 0, (extra, output)
            assert "3 passed" in output, (extra, output)


class TestSchemaFingerprint:
    def test_mismatched_dataset_rejected(self, separated8):
        model = fit(LearnerSpec("cart"), separated8, seed=0)
        other = make_dataset([[1.0, 2.0]], [0], names=["x0", "x1"])
        with pytest.raises(ValueError, match="schema"):
            predict_dataset(model, other)
