import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectkit import fft
from defectkit.dataset import CLEAN, DEFECTIVE
from defectkit.errors import DegenerateDataError
from defectkit.fft import (GT, LE, FFTEnsemble, FFTree, Range, _best_ranges, fit, median_split,
                           tree_from_text)
from defectkit.metrics import GOAL_DIRECTIONS, MINIMIZE, GoalSpec, evaluate, goal

from conftest import make_dataset, planted_dataset

D2H = goal("dist2heaven")


def interpret_rules(text, names, row):
    """Walk the serialized rule list literally, line by line."""
    classes = {"true": 1, "false": 0}
    for line in text.strip().splitlines():
        line = line.strip()
        if line.startswith("else if "):
            body = line[len("else if "):]
        elif line.startswith("if "):
            body = line[len("if "):]
        else:
            return classes[line.split()[-1]]
        name, relation, value, _, klass = body.split()
        x = row[names.index(name)]
        hit = x <= float(value) if relation == "<=" else x > float(value)
        if hit:
            return classes[klass]
    raise AssertionError("rule list had no final else")


def lower_median(data, attribute):
    """One attribute's threshold from its own sort: the value at index (n-1)//2."""
    if not len(data):
        raise ValueError("cannot take a median of no data")
    values = np.sort(data.features[:, attribute])
    return float(values[(len(values) - 1) // 2])


def range_score(data, g: GoalSpec, r: Range) -> float:
    """A range's goal score as a one-rule model: matches get its class, the rest the other."""
    return evaluate(g, data.labels, np.where(r.matches(data.features), r.predicted,
                                             1 - r.predicted), data.locs)


def _ranked(data, goal: GoalSpec) -> list[tuple[float, Range]]:
    """(score, range) for all four median-split ranges of every attribute, best first.

    This is the node oracle.  A range alone is a one-rule model: matches get its
    class, the rest the opposite class.  So (<=, c) and (>, 1 - c) predict the
    same vector, and the node's 2F distinct vectors are scored in one matrix call
    to `evaluate`.
    """
    thresholds = [lower_median(data, a) for a in range(data.features.shape[1])]
    below = (data.features <= thresholds).T
    # Row 2a + c predicts class c where attribute a is at most its median.
    scores = evaluate(goal, data.labels, np.stack((~below, below), axis=1).reshape(-1, len(data)),
                      data.locs)
    sign = 1.0 if goal.direction == MINIMIZE else -1.0
    return sorted(((scores[2 * a + c], Range(a, relation, t, c if relation == LE else 1 - c))
                   for a, t in enumerate(thresholds) for c in (CLEAN, DEFECTIVE)
                   for relation in (LE, GT)),
                  key=lambda sr: (sign * sr[0], sr[1].attribute, sr[1].relation == GT,
                                  sr[1].predicted))


def first_per_exit_class(ranked):
    """The first range of a ranking that exits to each class: (clean, defective)."""
    return tuple(next(r for _, r in ranked if r.predicted == c) for c in (CLEAN, DEFECTIVE))


def outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return call()
    except (ValueError, DegenerateDataError) as exc:
        return type(exc), str(exc)


@st.composite
def tie_heavy_nodes(draw):
    """A node of 0-12 rows over 1-4 attributes valued 0..3, any labels, locs 0..5."""
    n, n_features = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, 3), min_size=n * n_features, max_size=n * n_features))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    locs = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return make_dataset(np.array(cells, dtype=float).reshape(n, n_features), labels, loc=locs)


def reference_ranges(features, labels, locs, g):
    """(score, range) for every median-split range, each scored on its own, best first."""
    candidates = []
    for attribute in range(features.shape[1]):
        values = np.sort(features[:, attribute])
        threshold = float(values[(len(values) - 1) // 2])
        for relation in (LE, GT):
            for predicted in (CLEAN, DEFECTIVE):
                rng = Range(attribute, relation, threshold, predicted)
                hits = np.where(rng.matches(features), predicted, 1 - predicted)
                candidates.append((evaluate(g, labels, hits, locs), rng))
    sign = 1.0 if g.direction == "minimize" else -1.0
    return sorted(candidates, key=lambda sr: (sign * sr[0], sr[1].attribute,
                                              0 if sr[1].relation == LE else 1))


def reference_tree(data, g, structure_id, depth):
    """One tree built from scratch, level by level, along the bits of structure_id."""
    names = data.schema.feature_names
    features, labels, locs = data.features, data.labels, data.locs
    overall = int(np.bincount(labels, minlength=2).argmax())
    levels = []
    for level in range(depth):
        if not len(labels) or len(np.unique(labels)) < 2:
            leaf = int(np.bincount(labels, minlength=2).argmax()) if len(labels) else overall
            return FFTree(tuple(levels), leaf, names)
        exit_class = (structure_id >> level) & 1
        best = [r for _, r in reference_ranges(features, labels, locs, g)
                if r.predicted == exit_class][0]
        levels.append(best)
        if level == depth - 1:
            return FFTree(tuple(levels), 1 - exit_class, names)
        keep = ~best.matches(features)
        features, labels, locs = features[keep], labels[keep], locs[keep]


def reference_fit(data, g, depth):
    """All 2^depth trees, each built and scored on its own; the first best score wins."""
    trees = tuple(reference_tree(data, g, structure_id, depth)
                  for structure_id in range(2 ** depth))
    scores = tuple(evaluate(g, data.labels, tree.predict(data.features), data.locs)
                   for tree in trees)
    best = 0
    for i, score in enumerate(scores):
        if g.better(score, scores[best]):
            best = i
    return FFTEnsemble(trees, scores, best)


def predict_row(tree, row):
    """Class of one instance, scored as a one-row matrix."""
    return int(tree.predict(np.asarray(row, dtype=float).reshape(1, -1))[0])


def fig_tree():
    """A five-line tree over named attributes (exits false, true, true, true)."""
    names = ("cbo", "rfc", "dam", "amc")
    levels = (
        Range(0, "<=", 4.0, 0),
        Range(1, ">", 32.0, 1),
        Range(2, ">", 0.0, 1),
        Range(3, "<=", 32.25, 1),
    )
    return FFTree(levels, default=0, feature_names=names)


class TestMedianSplit:
    def test_odd_count(self):
        assert median_split(make_dataset([[1.0], [2.0], [3.0]], [0, 0, 1]))[0] == 2.0

    def test_even_count_lower_median(self):
        data = make_dataset([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
        assert median_split(data)[0] == 2.0

    def test_constant_column(self):
        assert median_split(make_dataset([[7.0], [7.0], [7.0]], [0, 1, 0]))[0] == 7.0

    def test_empty(self):
        data = make_dataset([[1.0]], [0]).subset([])
        with pytest.raises(ValueError):
            median_split(data)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n, n_features = int(rng.integers(1, 15)), int(rng.integers(1, 5))
            values = rng.integers(0, 50, (n, n_features)).astype(float)
            data = make_dataset(values, np.zeros(n, dtype=int))
            # Every column (loc too) gets the median its own sort gives.
            assert median_split(data).tolist() == [lower_median(data, a)
                                                   for a in range(data.features.shape[1])]


class TestScoreRanges:
    def test_perfect_separator_attains_optimum(self, separator6):
        score, best = _ranked(separator6, D2H)[0]
        assert score == 0.0
        assert best.attribute == 0
        assert [(r.attribute, range_score(separator6, D2H, r))
                for r in _best_ranges(separator6, D2H)] == [(0, 0.0)] * 2

    def test_random_attribute_scores_worse_than_planted(self):
        rng = np.random.default_rng(2)
        labels = np.array([0, 1] * 10)
        planted = labels * 10 + rng.random(20)
        noise = rng.random(20)
        data = make_dataset(np.column_stack([planted, noise]), labels)
        ranked = _ranked(data, D2H)
        assert ranked[0][1].attribute == 0
        assert [r.attribute for r in _best_ranges(data, D2H)] == [0, 0]
        planted_best = min(s for s, r in ranked if r.attribute == 0)
        noise_best = min(s for s, r in ranked if r.attribute == 1)
        assert planted_best < noise_best
        # the noise attribute hovers near the no-information diagonal
        assert noise_best > 0.25

    def test_constant_attribute_never_ranks_first(self, separator6):
        data = make_dataset(
            np.column_stack([separator6.features[:, 0], np.full(6, 3.0)]),
            separator6.labels)
        assert _ranked(data, D2H)[0][1].attribute == 0
        assert [r.attribute for r in _best_ranges(data, D2H)] == [0, 0]

    def test_single_class_rejected(self):
        data = make_dataset([[1.0], [2.0]], [1, 1])
        with pytest.raises(DegenerateDataError):
            fit(data, D2H, 1)

    def test_sorted_best_first(self, separator6):
        ranked = _ranked(separator6, D2H)
        scores = [s for s, _ in ranked]
        assert scores == sorted(scores)
        assert scores == [range_score(separator6, D2H, r) for _, r in ranked]
        assert len(ranked) == 4 * len(separator6.schema.feature_names)

    @pytest.mark.parametrize("kind", sorted(GOAL_DIRECTIONS))
    @settings(max_examples=40, deadline=None)
    @given(node=tie_heavy_nodes())
    def test_best_ranges_equal_first_ranked_per_exit_class(self, kind, node):
        # Empty and single-class nodes never reach _best_ranges in a fit; here both
        # sides must then raise alike, or agree.
        g = goal(kind)
        assert outcome(lambda: _best_ranges(node, g)) \
            == outcome(lambda: first_per_exit_class(_ranked(node, g)))


class TestBuildTree:
    def test_depth_one_separator(self, separator6):
        tree = fit(separator6, D2H, 1).trees[0b1]
        assert len(tree.levels) == 1
        rng0 = tree.levels[0]
        assert (rng0.attribute, rng0.relation, rng0.threshold, rng0.predicted) == (0, ">", 3.0, 1)
        assert tree.default == 0
        assert tree.predict(separator6.features).tolist() == separator6.labels.tolist()

    def test_structure_bits_dictate_exits(self):
        data = planted_dataset(n=80, n_noise=3, seed=5)
        tree = fit(data, D2H, 4).trees[0b1110]
        assert [r.predicted for r in tree.levels] == [0, 1, 1, 1]

    def test_truncates_when_remaining_single_class(self, separator6):
        # the separating first level leaves only clean instances behind
        tree = fit(separator6, D2H, 3).trees[0b111]
        assert len(tree.levels) < 3
        assert [r.predicted for r in tree.levels] == [1] * len(tree.levels)
        assert tree.default == 0


class TestFit:
    @pytest.mark.parametrize("depth,expected", [(1, 2), (2, 4), (3, 8), (4, 16), (5, 32)])
    def test_enumerates_all_trees(self, depth, expected):
        data = planted_dataset(n=60, n_noise=2, seed=9)
        ensemble = fit(data, D2H, depth)
        assert len(ensemble.trees) == expected
        assert len(ensemble.scores) == expected

    def test_best_is_argbest(self):
        data = planted_dataset(n=60, n_noise=2, seed=9)
        ensemble = fit(data, D2H, 3)
        for score in ensemble.scores:
            assert not D2H.better(score, ensemble.scores[ensemble.best])

    def test_planted_separator_reaches_zero(self, separator6):
        ensemble = fit(separator6, D2H, 2)
        assert ensemble.scores[ensemble.best] == 0.0

    def test_fit_is_order_independent(self):
        data = planted_dataset(n=50, n_noise=3, seed=1)
        shuffled = data.subset(np.random.default_rng(0).permutation(len(data)))
        a = fit(data, D2H, 3)
        b = fit(shuffled, D2H, 3)
        assert a.scores[a.best] == pytest.approx(b.scores[b.best], abs=1e-12)

    def test_depth_zero_rejected(self, separator6):
        with pytest.raises(ValueError):
            fit(separator6, D2H, 0)

    def test_p_opt_goal_supported(self):
        data = planted_dataset(n=40, n_noise=2, seed=3)
        ensemble = fit(data, goal("p_opt"), 2)
        assert 0.0 <= ensemble.scores[ensemble.best] <= 1.0


    @pytest.mark.parametrize("kind", ["p_opt", "dist2heaven"])
    def test_one_evaluate_call_per_ranked_node_plus_tree_scores(self, kind, monkeypatch):
        data = planted_dataset(n=80, n_noise=3, seed=4)
        calls, nodes = [], []
        evaluate_, best_ranges = fft.evaluate, fft._best_ranges

        def counting_evaluate(g, actual, predicted, locs=None):
            calls.append(np.shape(predicted))
            return evaluate_(g, actual, predicted, locs)

        def counting_best_ranges(node, g):
            nodes.append((2 * node.features.shape[1], len(node)))
            return best_ranges(node, g)

        monkeypatch.setattr(fft, "evaluate", counting_evaluate)
        monkeypatch.setattr(fft, "_best_ranges", counting_best_ranges)
        fit(data, goal(kind), 4)
        assert len(nodes) > 1
        assert calls == nodes + [(16, len(data))]

    @pytest.mark.parametrize("kind", sorted(GOAL_DIRECTIONS))
    def test_equals_per_tree_reference(self, kind):
        g = goal(kind)
        rng = np.random.default_rng(41)
        cases = [planted_dataset(n=60, n_noise=3, seed=10)]
        while len(cases) < 4:
            n = int(rng.integers(8, 30))
            data = make_dataset(rng.integers(0, 5, (n, 3)).astype(float),
                                rng.integers(0, 2, n), loc=rng.integers(0, 20, n))
            if len(np.unique(data.labels)) == 2:
                cases.append(data)
        for data in cases:
            assert _ranked(data, g) == reference_ranges(data.features, data.labels,
                                                        data.locs, g)
            assert _best_ranges(data, g) == first_per_exit_class(_ranked(data, g))
            for depth in range(1, 6):
                try:
                    expected = reference_fit(data, g, depth)
                except DegenerateDataError:
                    with pytest.raises(DegenerateDataError):
                        fit(data, g, depth)
                    continue
                assert fit(data, g, depth) == expected


class TestPredictRouting:
    def test_first_level_match_exits_clean(self):
        assert predict_row(fig_tree(), np.array([3.0, 40.0, 1.0, 10.0])) == 0

    def test_second_level_match_exits_defective(self):
        assert predict_row(fig_tree(), np.array([5.0, 33.0, 0.0, 50.0])) == 1

    def test_no_level_matches_falls_to_final_false(self):
        assert predict_row(fig_tree(), np.array([5.0, 30.0, 0.0, 40.0])) == 0

    def test_schema_mismatch(self):
        with pytest.raises(ValueError):
            predict_row(fig_tree(), np.array([1.0, 2.0]))

    def test_every_instance_gets_exactly_one_exit(self):
        data = planted_dataset(n=30, n_noise=2, seed=8)
        tree = fit(data, D2H, 3).trees[0b101]
        for x in data.features:
            exits = [rng.predicted for rng in tree.levels if rng.matches(x.reshape(1, -1))[0]]
            routed = exits[0] if exits else tree.default
            assert predict_row(tree, x) == routed


class TestSerialization:
    def test_text_format_matches_rule_list(self):
        text = fig_tree().to_text()
        assert text.splitlines() == [
            "if cbo <= 4 then false",
            "else if rfc > 32 then true",
            "else if dam > 0 then true",
            "else if amc <= 32.25 then true",
            "else false",
        ]

    def test_text_round_trip(self):
        tree = fig_tree()
        assert tree_from_text(tree.to_text(), tree.feature_names) == tree

    def test_majority_leaf_round_trips_as_bare_else(self):
        tree = FFTree((), 1, ("a0", "loc"))
        assert tree.to_text() == "else true"
        assert tree_from_text(tree.to_text(), tree.feature_names) == tree

    @pytest.mark.parametrize("text,bad", [
        ("if foo <= 1 then true\nelse false", "if foo <= 1 then true"),  # unknown attribute
        ("if cbo <= 4 then yes\nelse false", "if cbo <= 4 then yes"),  # unknown class word
        ("if cbo <= 4 then false\nelse yes", "else yes"),
        ("if cbo <= 4 then\nelse false", "if cbo <= 4 then"),  # four tokens
        ("if cbo <= 4 then false now\nelse false", "if cbo <= 4 then false now"),
        ("if cbo <= four then false\nelse false", "if cbo <= four then false"),
        ("if cbo < 4 then false\nelse false", "if cbo < 4 then false"),
    ])
    def test_bad_line_raises_value_error_naming_it(self, text, bad):
        with pytest.raises(ValueError, match=f"cannot parse rule line: {re.escape(repr(bad))}"):
            tree_from_text(text, fig_tree().feature_names)

    def test_interpreter_agrees_with_predict(self):
        rng = np.random.default_rng(17)
        for depth in (1, 2, 3):
            for trial in range(5):
                data = make_dataset(rng.integers(0, 8, (20, 3)).astype(float),
                                    rng.integers(0, 2, 20))
                if len(np.unique(data.labels)) < 2:
                    continue
                for tree in fit(data, D2H, depth).trees:
                    text = tree.to_text()
                    names = list(tree.feature_names)
                    for row in data.features:
                        assert predict_row(tree, row) == interpret_rules(text, names, row)

    @given(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=4))
    def test_text_round_trip_keeps_thresholds_exactly(self, thresholds):
        names = tuple(f"a{i}" for i in range(len(thresholds)))
        levels = tuple(Range(i, "<=" if i % 2 else ">", t, i % 2)
                       for i, t in enumerate(thresholds))
        tree = FFTree(levels, 1 - levels[-1].predicted, names)
        again = tree_from_text(tree.to_text(), names)
        assert [r.threshold for r in again.levels] == list(thresholds)
        # rows sitting exactly on each threshold route the same way after reloading
        rows = np.array([thresholds, np.nextafter(thresholds, np.inf)])
        assert again.predict(rows).tolist() == tree.predict(rows).tolist()
