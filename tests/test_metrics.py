import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectkit.errors import DegenerateDataError
from defectkit.metrics import GOAL_DIRECTIONS, dist2heaven, evaluate, goal, inspection_areas, p_opt

from conftest import LiftCurve, confusion_score, lift_curve

THRESHOLD_GOALS = sorted(set(GOAL_DIRECTIONS) - {"p_opt"})
# Scores at and either side of the 0.5 cut, so flags tie with and flip against it.
TIED_SCORES = [0.0, 0.25, 0.4999999999999999, 0.5, 0.5000000000000001, 1.0]


def oracle_areas(instances, predicted):
    """The three lift-curve areas, with orders built by Python's stable sort."""
    locs = [loc for loc, _ in instances]
    density = [lab / max(float(loc), 1.0) for loc, lab in instances]
    model = sorted(range(len(locs)), key=lambda i: (0 if predicted[i] else 1, locs[i]))
    optimal = sorted(range(len(locs)), key=lambda i: -density[i])
    worst = sorted(range(len(locs)), key=lambda i: density[i])
    return tuple(lift_curve(instances, order).area() for order in (model, optimal, worst))


def oracle_p_opt(instances, predicted):
    s_model, s_optimal, s_worst = oracle_areas(instances, [int(p >= 0.5) for p in predicted])
    if s_optimal == s_worst:
        raise DegenerateDataError("optimal and worst orderings coincide; P_opt undefined")
    return 1.0 - (s_optimal - s_model) / (s_optimal - s_worst)


def outcome(call):
    """What a call gives: its value, or the (type, message) of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def oracle_evaluate(kind, labels, predicted, locs):
    """One prediction vector's score under the goal, from the oracles."""
    if kind == "p_opt":
        return oracle_p_opt(list(zip(locs, labels)), predicted)
    return confusion_score(kind, labels, predicted)


def assert_rows_agree(g, labels, matrix, locs):
    """evaluate on a matrix returns, or raises, exactly what the 1-D call on each row does."""
    rows = [outcome(lambda row=row: evaluate(g, labels, row, locs)) for row in matrix]
    if not all(isinstance(r, float) for r in rows):
        assert all(r == rows[0] for r in rows)  # no failure depends on a row's values
        rows = rows[0]
    got = outcome(lambda: evaluate(g, labels, matrix, locs))
    assert got == rows
    if isinstance(got, list):
        assert all(type(score) is float for score in got)


class TestGoalSpec:
    def test_directions(self):
        assert goal("dist2heaven").direction == "minimize"
        for kind in ("p_opt", "f1", "accuracy", "precision", "recall"):
            assert goal(kind).direction == "maximize"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            goal("auc")

    def test_better(self):
        assert goal("dist2heaven").better(0.1, 0.2)
        assert goal("f1").better(0.9, 0.2)


class TestDist2Heaven:
    def test_heaven_point(self):
        assert dist2heaven(1.0, 0.0) == 0.0

    def test_anti_heaven_normalised_to_one(self):
        assert dist2heaven(0.0, 1.0) == pytest.approx(1.0)

    def test_derived_value(self):
        assert dist2heaven(0.8, 0.3) == pytest.approx(0.25495, abs=1e-5)

    @pytest.mark.parametrize("r,f", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)])
    def test_domain_checked(self, r, f):
        with pytest.raises(ValueError):
            dist2heaven(r, f)

    def test_monotone_in_both_arguments(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r, f = rng.random(2)
            delta = rng.uniform(0.01, 0.2)
            if r + delta <= 1:
                assert dist2heaven(r + delta, f) < dist2heaven(r, f)
            if f + delta <= 1:
                assert dist2heaven(r, f + delta) > dist2heaven(r, f)

    def test_beats_no_information_diagonal(self):
        # recall > false alarm must beat the diagonal at either coordinate
        rng = np.random.default_rng(6)
        for _ in range(200):
            f, r = np.sort(rng.random(2))
            if r == f:
                continue
            assert dist2heaven(r, f) < dist2heaven(r, r)
            assert dist2heaven(r, f) < dist2heaven(f, f)


class TestLiftCurve:
    def test_all_defective_reaches_one_at_end(self):
        curve = lift_curve([(10, 1), (30, 1), (60, 1)], [0, 1, 2])
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        assert curve.points[1] == (0.1, pytest.approx(1 / 3))

    def test_small_defective_first(self):
        curve = lift_curve([(10, 1), (90, 0)], [0, 1])
        assert curve.points == ((0.0, 0.0), (0.1, 1.0), (1.0, 1.0))

    def test_reversed_order(self):
        curve = lift_curve([(10, 1), (90, 0)], [1, 0])
        assert curve.points == ((0.0, 0.0), (0.9, 0.0), (1.0, 1.0))

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            lift_curve([(10, 1), (90, 0)], [0, 0])

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateDataError):
            lift_curve([(0, 1), (0, 0)], [0, 1])
        with pytest.raises(DegenerateDataError):
            lift_curve([(10, 0), (90, 0)], [0, 1])

    def test_trapezoid_area_matches_analytic(self):
        # hand-built polylines with known areas
        curve = LiftCurve(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)))
        assert curve.area() == pytest.approx(0.5, abs=1e-12)
        curve = LiftCurve(((0.0, 0.0), (0.1, 1.0), (1.0, 1.0)))
        assert curve.area() == pytest.approx(0.05 + 0.9, abs=1e-12)
        curve = LiftCurve(((0.0, 0.0), (0.25, 0.5), (0.75, 0.5), (1.0, 1.0)))
        assert curve.area() == pytest.approx(0.0625 + 0.25 + 0.1875, abs=1e-12)


class TestPopt:
    def test_frozen_three_instance_value(self):
        # model [loc2, loc1, loc7] area .825; optimal .875; worst .125
        assert p_opt([1, 2, 7], [1, 1, 0], [0, 1, 0]) == pytest.approx(1 - 0.05 / 0.75, abs=1e-12)

    def test_perfect_predictions_on_easy_layout_score_one(self):
        # defectives strictly smaller than cleans: the predicted-defective-first
        # layout coincides with the optimal density ordering
        assert p_opt([1, 2, 50, 60], [1, 1, 0, 0], [1, 1, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_worst_predictions_score_zero(self):
        # single defective with the largest loc, nothing predicted defective
        assert p_opt([5, 10, 80], [0, 0, 1], [0, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_scores_are_thresholded(self):
        assert p_opt([1, 2, 50, 60], [1, 1, 0, 0], [0.9, 0.8, 0.1, 0.2]) == \
            pytest.approx(1.0, abs=1e-12)

    def test_degenerate_equal_densities(self):
        with pytest.raises(DegenerateDataError):
            p_opt([10, 10], [1, 1], [1, 1])

    def test_bounds_over_all_prediction_vectors(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            n = int(rng.integers(2, 8))
            locs = rng.integers(1, 100, n).astype(float)
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                continue
            for bits in itertools.product((0, 1), repeat=n):
                s_model, s_opt, s_worst = inspection_areas(locs, labels, list(bits))
                assert s_worst - 1e-9 <= s_model <= s_opt + 1e-9
                if s_opt > s_worst:
                    value = p_opt(locs, labels, list(bits))
                    assert -1e-9 <= value <= 1 + 1e-9

    # Few distinct locs give tied locs and tied densities; loc 0 clamps to 1 in density.
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 1.0, 2.0, 7.0, 10.0]),
                                        st.floats(0, 1e6)),
                              st.integers(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=12))
    def test_equals_lift_curve_oracle_exactly(self, rows):
        instances = [(loc, label) for loc, label, _ in rows]
        locs, labels = [loc for loc, _ in instances], [label for _, label in instances]
        scores = [score for _, _, score in rows]
        hard = [int(score >= 0.5) for score in scores]
        for kernel, oracle, predicted in ((inspection_areas, oracle_areas, hard),
                                          (p_opt, oracle_p_opt, scores)):
            try:
                expected = oracle(instances, predicted)
            except DegenerateDataError as exc:
                with pytest.raises(DegenerateDataError, match=re.escape(str(exc))):
                    kernel(locs, labels, predicted)
            else:
                assert kernel(locs, labels, predicted) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0, 7.0, 10.0, 333.0]),
                              st.integers(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=12))
    def test_evaluate_arrays_equal_p_opt_pairs(self, rows):
        locs = np.array([loc for loc, _, _ in rows])
        labels = np.array([label for _, label, _ in rows])
        scores = np.array([score for _, _, score in rows])
        try:
            expected = p_opt(locs, labels, scores)
        except DegenerateDataError as exc:
            with pytest.raises(DegenerateDataError, match=re.escape(str(exc))):
                evaluate(goal("p_opt"), labels, scores, locs)
        else:
            assert evaluate(goal("p_opt"), labels, scores, locs) == expected

    @pytest.mark.parametrize("call,problem", [
        (lambda: p_opt([math.nan, 10], [1, 0], [1, 0]), "loc"),
        (lambda: p_opt([math.inf, 10], [1, 0], [1, 0]), "loc"),
        (lambda: p_opt([-5, 20], [1, 0], [1, 0]), "loc"),
        (lambda: p_opt([10, 20], [2, 0], [1, 0]), "label"),
        (lambda: p_opt([10, 20, 5], [1, 0, 0], [1, 0]), "predictions"),
        (lambda: evaluate(goal("p_opt"), [1, 0, 1], [1, 0, 1], locs=[10, 5]), "loc"),
        (lambda: p_opt([10, 20], [1, 0, 0], [1, 0]), "labels"),
    ], ids=["nan_loc", "inf_loc", "negative_loc", "label_2", "short_predictions",
            "short_locs", "long_labels"])
    def test_bad_inputs_rejected(self, call, problem):
        with pytest.raises(ValueError, match=problem):
            call()


class TestEvaluate:
    def test_accuracy_perfect(self):
        assert evaluate(goal("accuracy"), [0, 1, 1], [0, 1, 1]) == 1.0

    def test_dist2heaven_perfect(self):
        assert evaluate(goal("dist2heaven"), [0, 1, 1], [0, 1, 1]) == 0.0

    def test_f1_matches_class_metrics(self):
        actual = [0] * 30 + [1] * 70
        predicted = [0] * 20 + [1] * 10 + [1] * 50 + [0] * 20
        assert evaluate(goal("f1"), actual, predicted) == pytest.approx(0.7692, abs=1e-4)

    def test_binary_hand_computation(self):
        # tp=50, fn=20, fp=10, tn=20 for the defective class (1)
        actual = [0] * 30 + [1] * 70
        predicted = [0] * 20 + [1] * 10 + [1] * 50 + [0] * 20
        assert evaluate(goal("precision"), actual, predicted) == pytest.approx(0.8333, abs=1e-4)
        assert evaluate(goal("recall"), actual, predicted) == pytest.approx(0.7143, abs=1e-4)
        assert evaluate(goal("f1"), actual, predicted) == pytest.approx(0.7692, abs=1e-4)
        assert evaluate(goal("accuracy"), actual, predicted) == 0.7
        assert evaluate(goal("dist2heaven"), actual, predicted) == dist2heaven(50 / 70, 10 / 30)

    def test_hand_tally(self):
        # tn=1, fp=1, fn=0, tp=2
        scores = {kind: evaluate(goal(kind), [0, 0, 1, 1], [0, 1, 1, 1])
                  for kind in THRESHOLD_GOALS}
        assert scores == {"accuracy": 0.75, "precision": 2 / 3, "recall": 1.0, "f1": 0.8,
                          "dist2heaven": dist2heaven(1.0, 0.5)}

    def test_absent_class_is_all_zero(self):
        # no defective module, and none flagged
        for kind in ("precision", "recall", "f1"):
            assert evaluate(goal(kind), [0, 0, 0], [0.1, 0.2, 0.4]) == 0.0
        assert evaluate(goal("dist2heaven"), [0, 0, 0], [0, 0, 0]) == dist2heaven(0.0, 0.0)

    def test_accuracy_hand_cases(self):
        assert evaluate(goal("accuracy"), [0, 0, 1, 1], [0, 1, 1, 1]) == 0.75
        assert evaluate(goal("accuracy"), [0, 0, 1, 1], [0, 1, 0, 1]) == 0.5

    def test_dist2heaven_uses_false_alarm(self):
        # one false alarm among two clean modules, every defect found
        assert evaluate(goal("dist2heaven"), [0, 0, 1, 1], [1, 0, 1, 1]) == dist2heaven(1.0, 0.5)

    def test_empty_lists(self):
        for kind in THRESHOLD_GOALS:
            with pytest.raises(ValueError, match="empty"):
                evaluate(goal(kind), [], [])

    def test_length_mismatch(self):
        for kind in THRESHOLD_GOALS:
            with pytest.raises(ValueError, match="length mismatch: 2 actual vs 1 predicted"):
                evaluate(goal(kind), [0, 1], [0])
            with pytest.raises(ValueError, match="length mismatch: 2 actual vs 3 predicted"):
                evaluate(goal(kind), [0, 1], [[0, 1, 1]] * 2)

    def test_out_of_range_label(self):
        for kind in THRESHOLD_GOALS:
            for labels in ([0, 2], [0.5, 1], [-1, 1]):
                with pytest.raises(ValueError, match="label"):
                    evaluate(goal(kind), labels, [0, 1])

    def test_p_opt_needs_locs(self):
        with pytest.raises(ValueError):
            evaluate(goal("p_opt"), [0, 1], [0, 1])

    def test_p_opt_dispatch(self):
        value = evaluate(goal("p_opt"), [1, 1, 0], [0, 1, 0], locs=[1, 2, 7])
        assert value == pytest.approx(1 - 0.05 / 0.75, abs=1e-12)


class TestMatrixEvaluate:
    # Few distinct locs give tied locs and tied densities; loc 0 clamps to 1 in density.
    # Raw scores at and beside 0.5 tie with the cut; labels may hold one class only.
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(GOAL_DIRECTIONS)), st.sampled_from(["mixed", 0, 1]),
           st.booleans(), st.data())
    def test_rows_equal_one_dimensional_calls(self, kind, labelling, raw, data):
        """Each matrix row and each 1-D call equals the oracle, as a Python float."""
        n = data.draw(st.integers(1, 12))
        locs = data.draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0, 7.0, 10.0]),
                                            st.floats(0, 1e6)), min_size=n, max_size=n))
        labels = (data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
                  if labelling == "mixed" else [labelling] * n)
        cell = st.one_of(st.sampled_from(TIED_SCORES), st.floats(0, 1)) if raw \
            else st.integers(0, 1)
        matrix = np.array(data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                             min_size=1, max_size=6)), dtype=float)
        g = goal(kind)
        try:
            expected = [oracle_evaluate(kind, labels, row, locs) for row in matrix]
        except DegenerateDataError as exc:
            for predicted in (matrix, *matrix):
                with pytest.raises(DegenerateDataError, match=re.escape(str(exc))):
                    evaluate(g, labels, predicted, locs)
            return
        scores = evaluate(g, labels, matrix, locs)
        assert scores == expected and all(type(score) is float for score in scores)
        for row, want in zip(matrix, expected):
            score = evaluate(g, labels, row, locs)
            assert score == want and type(score) is float

    @pytest.mark.parametrize("kind", sorted(GOAL_DIRECTIONS))
    @pytest.mark.parametrize("locs,labels,width", [
        ([math.nan, 10, 5], [1, 0, 1], 3),
        ([-5, 20, 3], [1, 0, 1], 3),
        ([10, 20, 5], [2, 0, 1], 3),
        ([10, 20, 5], [1, 0, 1], 4),
        ([10, 20, 5], [0, 0, 0], 3),
        ([0, 0, 0], [1, 0, 1], 3),
        ([10, 10], [1, 1], 2),
    ], ids=["nan_loc", "negative_loc", "label_2", "wrong_width", "no_defective",
            "zero_total_loc", "optimal_equals_worst"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_faulty_inputs_fail_as_each_row_does(self, kind, locs, labels, width, m):
        matrix = np.random.default_rng(m).random((m, width))
        assert_rows_agree(goal(kind), labels, matrix, locs)
        if kind == "p_opt":
            assert isinstance(outcome(lambda: evaluate(goal(kind), labels, matrix, locs)), tuple)
