import json
import os
import pickle
import threading
import time
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import defectkit.harness as harness
from defectkit import tuner
from defectkit.dataset import random_split
from defectkit.errors import ConfigError, DegenerateDataError
from defectkit.harness import (ExperimentResult, ExperimentSpec, derive_seed, report,
                               run_kfold_tuned, run_smotuned, run_tuned, run_untuned)
from defectkit.learners import KINDS, LearnerSpec
from defectkit.metrics import goal
from defectkit.smote import SmoteConfig
from defectkit.tuner import DEConfig

from conftest import make_dataset, parse_report_csv, planted_dataset

D2H = goal("dist2heaven")
FAST_DE = DEConfig(np=5, life=2)


def planted_split(seed=7, n=200):
    full = planted_dataset(n=n, n_noise=4, seed=seed)
    return random_split(full, 0.8, seed=1)


def shuffled_split(ctrl_seed=0, n=200, seed=7):
    full = planted_dataset(n=n, n_noise=4, seed=seed)
    rng = np.random.default_rng(ctrl_seed)
    shuffled = make_dataset(full.features[:, :-1], rng.permutation(full.labels),
                            loc=full.features[:, -1])
    return random_split(shuffled, 0.8, seed=1)


def spec_for(datasets, learners, **kwargs):
    return ExperimentSpec(datasets, learners, kwargs.pop("goal", D2H), **kwargs)


def on_cpus(monkeypatch, cpus):
    """Run tuned cells on `cpus` processes.  A spy sees only the calling process's cells,
    so a test that counts calls across cells runs them all there, on one."""
    monkeypatch.setattr(harness, "_cpus", lambda: cpus)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_numpy_integer_seed_is_its_int(self):  # it overflowed int64 and raised
        assert derive_seed(np.int64(42), 3) == derive_seed(42, 3)

    def test_spreads_indices(self):
        seeds = {derive_seed(42, i) for i in range(100)}
        assert len(seeds) == 100


class TestSpecValidation:
    def test_repeats_must_be_positive(self):
        with pytest.raises(ConfigError):
            spec_for({"d": planted_split()}, [LearnerSpec("cart")], repeats=0)

    @pytest.mark.parametrize("params", [{}, {"max_leaf_nodes": 5}])
    def test_repeated_learner_kind_rejected(self, params):
        # Both cart cells would write rows ("d", "cart", 0) that merge in the report.
        with pytest.raises(ConfigError, match="'cart' is listed more than once"):
            spec_for({"d": planted_split()}, [LearnerSpec("cart"), LearnerSpec("fft"),
                                              LearnerSpec("cart", params)])

    @pytest.mark.parametrize("folds", [1, 0, -3])
    def test_folds_below_two_rejected(self, folds):
        # Caught before any cell runs, not by kfold inside the first k-fold cell.
        with pytest.raises(ConfigError, match=f"folds must be at least 2, got {folds}"):
            spec_for({"d": planted_split()}, [LearnerSpec("cart")], folds=folds, de=FAST_DE)

    @pytest.mark.parametrize("kwargs", [
        {"repeats": 2.5}, {"repeats": True}, {"folds": 2.5}, {"folds": True},
        {"seed": 1.5}, {"seed": False}, {"seed": "3"},
    ])
    def test_bool_or_non_integer_count_is_named(self, kwargs):
        # repeats=2.5 and seed=1.5 raised TypeError in a cell; folds=2.5 ran two folds.
        (name, value), = kwargs.items()
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value!r}$"):
            spec_for({"d": planted_split()}, [LearnerSpec("cart")], de=FAST_DE, **kwargs)

    def test_datasets_required(self):
        with pytest.raises(ConfigError):
            spec_for({}, [LearnerSpec("cart")])

    def test_untuned_rejects_tuning_section(self):
        spec = spec_for({"d": planted_split()}, [LearnerSpec("cart")], de=FAST_DE)
        with pytest.raises(ConfigError):
            run_untuned(spec)

    def test_tuned_requires_de(self):
        spec = spec_for({"d": planted_split()}, [LearnerSpec("cart")])
        with pytest.raises(ConfigError):
            run_tuned(spec)


class TestRunUntuned:
    def test_one_row_per_learner(self):
        kinds = ("fft", "logistic", "naive_bayes", "knn", "linear_svm", "cart")
        spec = spec_for({"planted": planted_split()}, [LearnerSpec(k) for k in kinds])
        result = run_untuned(spec)
        assert len(result.rows) == len(kinds)
        assert result.methods == list(kinds)

    def test_identical_runs_match_modulo_wallclock(self):
        spec = spec_for({"planted": planted_split()},
                        [LearnerSpec("cart"), LearnerSpec("knn")], seed=3)
        a, b = run_untuned(spec), run_untuned(spec)
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.dataset, ra.method, ra.repeat, ra.score) == \
                   (rb.dataset, rb.method, rb.repeat, rb.score)
        assert report(a, "csv", include_runtime=False) == \
               report(b, "csv", include_runtime=False)

    def test_degenerate_training_data_names_dataset(self):
        train = make_dataset([[1.0], [2.0], [3.0]], [0, 0, 0])
        spec = spec_for({"allclean": (train, train)}, [LearnerSpec("cart")])
        with pytest.raises(DegenerateDataError, match="allclean"):
            run_untuned(spec)

    def test_planted_signal_vs_shuffled_control(self):
        spec = spec_for({"planted": planted_split()}, [LearnerSpec("fft")], seed=42)
        signal = run_untuned(spec).rows[0].score
        spec_ctrl = spec_for({"ctrl": shuffled_split()}, [LearnerSpec("fft")], seed=42)
        control = run_untuned(spec_ctrl).rows[0].score
        assert signal < 0.30
        assert abs(control - 0.5) <= 0.15

    @pytest.mark.parametrize("n_datasets", [1, 2], ids=["shared", "two_datasets"])
    def test_forest_cell_reuses_the_cart_cells_split_searches(self, monkeypatch, n_datasets):
        # The cells of one training set share its split memo; the next training set
        # gets a memo of its own, so its cart cell searches again.
        fitting, searched = [], set()
        fit, best_split = harness.learners.fit, harness.learners._best_split

        def recording_fit(lspec, *args, **kwargs):
            fitting.append(lspec.kind)
            return fit(lspec, *args, **kwargs)

        def recording_search(*args):
            searched.add(len(fitting) - 1)  # the index of the searching cell
            return best_split(*args)

        monkeypatch.setattr(harness.learners, "fit", recording_fit)
        monkeypatch.setattr(harness.learners, "_best_split", recording_search)
        spec = spec_for({f"planted{i}": planted_split(seed=7 + i) for i in range(n_datasets)},
                        [LearnerSpec("cart"), LearnerSpec("random_forest")], seed=5)
        run_untuned(spec)
        assert fitting == ["cart", "random_forest"] * n_datasets
        assert searched == set(range(0, 2 * n_datasets, 2))

    def test_fixed_smote_preprocess_leaves_test_alone(self, monkeypatch):
        # One fixed rebalance is smote.apply on the training set before the spec is built.
        train, test = planted_split()
        balanced = harness.smote.apply(train, SmoteConfig(k=3, m=50))
        fitted, scored = [], []
        fit, score = harness.learners.fit, harness._score
        monkeypatch.setattr(harness.learners, "fit", lambda lspec, data, *args, **kwargs:
                            fitted.append(data) or fit(lspec, data, *args, **kwargs))
        monkeypatch.setattr(harness, "_score", lambda model, data, g:
                            scored.append(data) or score(model, data, g))
        result = run_untuned(spec_for({"planted": (balanced, test)}, [LearnerSpec("cart")]))
        assert len(result.rows) == 1
        assert fitted == [balanced] and scored == [test]


class TestRunTuned:
    def test_repeats_rows_and_median(self):
        spec = spec_for({"planted": planted_split()}, [LearnerSpec("cart")],
                        repeats=3, seed=5, de=FAST_DE)
        result = run_tuned(spec)
        assert len(result.rows) == 3
        scores = sorted(r.score for r in result.rows)
        assert result.aggregates()[("planted", "cart")] == scores[1]

    def test_single_repeat_median_is_the_value(self):
        spec = spec_for({"planted": planted_split()}, [LearnerSpec("cart")],
                        repeats=1, seed=5, de=FAST_DE)
        result = run_tuned(spec)
        assert result.aggregates()[("planted", "cart")] == result.rows[0].score

    def test_tuned_never_loses_to_default_on_tuning_split(self):
        spec = spec_for({"planted": planted_split()}, [LearnerSpec("cart")],
                        repeats=4, seed=6, de=FAST_DE)
        for row in run_tuned(spec).rows:
            assert (row.best_tune_score <= row.default_tune_score
                    if D2H.direction == "minimize"
                    else row.best_tune_score >= row.default_tune_score)

    def test_objective_budget_matches_scoring_calls(self, monkeypatch):
        calls = {"tune": 0}
        original = harness._score
        train, test = planted_split()

        def counting(model, data, g):
            calls["tune"] += data is not test
            return original(model, data, g)

        run_de, candidates = harness.tuner.run_de, []

        def recording(space, objective, *args, **kwargs):
            def seen(candidate):
                candidates.append(tuple(sorted(candidate.tunings.items())))
                return objective(candidate)
            return run_de(space, seen, *args, **kwargs)

        monkeypatch.setattr(harness, "_score", counting)
        monkeypatch.setattr(harness.tuner, "run_de", recording)
        spec = spec_for({"planted": (train, test)}, [LearnerSpec("cart")],
                        repeats=1, seed=7, de=FAST_DE)
        result = run_tuned(spec)
        # DE counts every candidate it scores; the cell scores each distinct one once.
        assert len(candidates) == result.rows[0].evaluations
        assert calls["tune"] == len(set(candidates))

    def test_rows_carry_tunings_in_range(self):
        spec = spec_for({"planted": planted_split()}, [LearnerSpec("cart")],
                        repeats=1, seed=8, de=FAST_DE)
        row = run_tuned(spec).rows[0]
        assert set(row.tunings) == {"threshold", "max_feature", "max_leaf_nodes",
                                    "min_sample_split", "min_samples_leaf"}
        assert 0.01 <= row.tunings["threshold"] <= 1.0

    def test_knn_cell_fits_once_and_ranks_each_set_once(self, monkeypatch):
        fitted = recorded_fits(monkeypatch)
        ranked, decided_k = [], set()
        nearest, decide = harness.learners.nearest, harness.learners.decide

        def ranking(queries, *args):
            ranked.append(len(queries))
            return nearest(queries, *args)

        def deciding(model, tunings):
            decided_k.add(tunings.get("k"))
            return decide(model, tunings)

        monkeypatch.setattr(harness.learners, "nearest", ranking)
        monkeypatch.setattr(harness.learners, "decide", deciding)
        train, test = planted_split()
        spec = spec_for({"planted": (train, test)}, [LearnerSpec("knn")], seed=24, de=FAST_DE)
        run_tuned(spec)
        assert len(decided_k) > 2  # DE tried several k
        assert len(fitted) == 1
        assert len(ranked) == 2 and ranked[1] == len(test)  # the tuning set, then the test set

    def test_test_set_touched_once_per_repeat_and_learner(self, monkeypatch):
        touches = []
        original = harness._score
        train, test = planted_split()

        def counting(model, data, g):
            if data is test:
                touches.append(1)
            return original(model, data, g)

        monkeypatch.setattr(harness, "_score", counting)
        on_cpus(monkeypatch, 1)
        spec = spec_for({"planted": (train, test)},
                        [LearnerSpec("cart"), LearnerSpec("knn")],
                        repeats=3, seed=9, de=FAST_DE)
        run_tuned(spec)
        assert len(touches) == 2 * 3  # learners x repeats, exactly once each


class TestRunKfoldTuned:
    def test_fold_rows_and_mean_aggregate(self):
        spec = spec_for({"planted": planted_split()}, [LearnerSpec("cart")],
                        folds=4, seed=11, de=FAST_DE)
        result = run_kfold_tuned(spec)
        assert len(result.rows) == 4
        assert result.aggregate_kind == "mean"
        expected = sum(r.score for r in result.rows) / 4
        assert result.aggregates()[("planted", "cart")] == pytest.approx(expected, abs=1e-12)

    def test_two_folds_smallest_case(self):
        spec = spec_for({"planted": planted_split()}, [LearnerSpec("cart")],
                        folds=2, seed=12, de=FAST_DE)
        result = run_kfold_tuned(spec)
        assert [r.repeat for r in result.rows] == [0, 1]

    def test_fold_sizes(self):
        train, test = planted_split()
        spec = spec_for({"planted": (train, test)}, [LearnerSpec("cart")],
                        folds=4, seed=13, de=FAST_DE)
        # carve the folds the same way the harness does and check the tuning size
        from defectkit.dataset import kfold
        folds = kfold(train, 4, derive_seed(13, 0))
        assert all(len(t) + len(h) == len(train) for t, h in folds)
        run_kfold_tuned(spec)


def reference_de_cell(space, planted, fit_from, tune_set, test, g, de_cfg, seed,
                      fit_together=None) -> dict:
    """The DE cell before its model cache: every candidate refits from scratch, one by one."""
    calls = 0

    def objective(candidate):
        nonlocal calls
        calls += 1
        return harness._score(fit_from(candidate.tunings), tune_set, g)

    run = tuner.run_de(space, objective, g.direction, replace(de_cfg, seed=seed),
                       seed_candidates=[planted])
    assert calls == run.evaluations
    return {
        "score": harness._score(fit_from(run.best.tunings), test, g),
        "tunings": dict(run.best.tunings),
        "evaluations": run.evaluations,
        "default_tune_score": run.initial_scores[0],
        "best_tune_score": run.best.score,
    }


def row_fields(result):
    return [(r.dataset, r.method, r.repeat, r.score, r.tunings, r.evaluations,
             r.default_tune_score, r.best_tune_score) for r in result.rows]


def recorded_fits(monkeypatch):
    """Patch learners.fit_many, which makes every model (fit is its one-spec case), to keep
    a weak reference to each model it returns."""
    fitted = []
    original = harness.learners.fit_many

    def recording(*args, **kwargs):
        models = original(*args, **kwargs)
        fitted.extend(weakref.ref(model) for model in models)
        return models

    monkeypatch.setattr(harness.learners, "fit_many", recording)
    return fitted


def assert_svm_cells_fit_each_distinct_c_once(monkeypatch, runner):
    """A tuned SVM cell fits each distinct C once, mostly several at a time in lockstep,
    and gives the rows of a cell that refits every candidate one by one."""
    # DE trims C to its bounds 1.0 and 50.0, so some candidates come back.
    train, test = planted_split()
    spec = spec_for({"planted": (train, test)}, [LearnerSpec("linear_svm")], seed=0,
                    de=FAST_DE, folds=2)
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_de_cell", reference_de_cell)
        refit_every_candidate = row_fields(runner(spec))
    batches, fits, tuning_scores = [], [], []  # fits: (new training data, C), every path
    fit, fit_many, score = harness.learners.fit, harness.learners.fit_many, harness._score

    def fitting(lspec, data, *args, **kwargs):
        batches.append("one by one")
        return fit(lspec, data, *args, **kwargs)

    def fitting_many(specs, data, *args, **kwargs):
        batches.append(len(specs))
        fits.extend((data, lspec.params["C"]) for lspec in specs)
        return fit_many(specs, data, *args, **kwargs)

    def scoring(model, data, g):
        if data is not test:
            tuning_scores.append(model)
        return score(model, data, g)

    monkeypatch.setattr(harness.learners, "fit", fitting)
    monkeypatch.setattr(harness.learners, "fit_many", fitting_many)
    monkeypatch.setattr(harness, "_score", scoring)
    result = runner(spec)
    assert row_fields(result) == refit_every_candidate  # evaluations too
    # Every fit, the test score's included: the winner's model is kept, not refitted.
    fitted_c = [c for _, c in fits]
    assert 50.0 in fitted_c and len(tuning_scores) == len(fits)
    assert len({(id(data), c) for data, c in fits}) == len(fits)
    assert "one by one" not in batches and max(batches) > 1  # so every fit was in lockstep
    assert sum(row.evaluations for row in result.rows) > len(fits)  # so DE drew some C again


class TestModelCache:
    """Candidates that share fit-time tunings share one fitted model."""

    @pytest.mark.parametrize("goal_kind", ["dist2heaven", "p_opt"])
    @pytest.mark.parametrize("runner", [run_tuned, run_kfold_tuned, run_smotuned])
    def test_rows_equal_refit_every_candidate(self, monkeypatch, runner, goal_kind):
        spec = spec_for({"planted": planted_split(n=120)}, [LearnerSpec(k) for k in KINDS],
                        goal=goal(goal_kind), seed=21, folds=2, de=DEConfig(np=4, life=1))
        cached = row_fields(runner(spec))
        monkeypatch.setattr(harness, "_de_cell", reference_de_cell)
        assert cached == row_fields(runner(spec))

    @pytest.mark.parametrize("kind", ["logistic", "naive_bayes"])
    def test_threshold_only_space_fits_once(self, monkeypatch, kind):
        fitted = recorded_fits(monkeypatch)
        spec = spec_for({"planted": planted_split()}, [LearnerSpec(kind)], seed=22, de=FAST_DE)
        row = run_tuned(spec).rows[0]
        assert row.evaluations > FAST_DE.np
        assert len(fitted) == 1

    def test_svm_cell_fits_each_distinct_c_once(self, monkeypatch):
        assert_svm_cells_fit_each_distinct_c_once(monkeypatch, run_tuned)

    def test_kfold_svm_cells_fit_each_distinct_c_once(self, monkeypatch):
        assert_svm_cells_fit_each_distinct_c_once(monkeypatch, run_kfold_tuned)

    def test_svm_cell_on_one_class_new_training_raises_the_one_by_one_error(self):
        # At seed 1 the 80/20 split leaves both defective rows out of the new training data.
        spec = spec_for({"few": few_defects()}, [LearnerSpec("linear_svm")], seed=1,
                        de=DEConfig(np=5, life=1))
        with pytest.raises(DegenerateDataError) as raised:
            run_tuned(spec)
        assert str(raised.value) == ("dataset 'few': linear_svm needs both classes in the "
                                     "training data")

    def test_smotuned_cell_rebalances_each_distinct_candidate_once(self, monkeypatch):
        train, test = planted_split()
        spec = spec_for({"planted": (train, test)}, [LearnerSpec("naive_bayes")], seed=24,
                        de=FAST_DE)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_de_cell", reference_de_cell)
            refit_every_candidate = row_fields(run_smotuned(spec))
        applies, tuning_scores = [], []
        apply, score = harness.smote.apply, harness._score

        def applying(data, cfg, memo=None):
            applies.append((cfg.k, cfg.m, cfg.r))
            return apply(data, cfg, memo)

        def scoring(model, data, g):
            if data is not test:
                tuning_scores.append(model)
            return score(model, data, g)

        monkeypatch.setattr(harness.smote, "apply", applying)
        monkeypatch.setattr(harness, "_score", scoring)
        assert row_fields(run_smotuned(spec)) == refit_every_candidate
        assert len(set(applies)) == len(applies) == len(tuning_scores)

    def test_cell_holds_at_most_np_models(self, monkeypatch):
        on_cpus(monkeypatch, 1)
        fitted = recorded_fits(monkeypatch)
        alive = []
        original = harness._score

        def watching(model, data, g):  # no collection: without one, the count only rises
            alive.append(sum(ref() is not None for ref in fitted))
            return original(model, data, g)

        monkeypatch.setattr(harness, "_score", watching)
        spec = spec_for({"planted": planted_split()},
                        [LearnerSpec("cart"), LearnerSpec("knn")], seed=23, de=FAST_DE)
        run_tuned(spec)
        run_smotuned(spec)
        assert len(fitted) > 4 * FAST_DE.np  # so some of the 4 cells evicted
        assert max(alive) == FAST_DE.np


def few_defects():
    """40 training rows, 2 defective: at seed 0, cells 0-2 split off tuning sets with no defect."""
    rng = np.random.default_rng(0)
    return (make_dataset(rng.random((40, 3)), [1, 1] + [0] * 38),
            make_dataset(rng.random((20, 3)), [1] * 5 + [0] * 15))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def helper_state(pid):
    """The one-letter state of a process: R running, S sleeping, Z exited, ..."""
    with open(f"/proc/{pid}/stat") as stat:
        return stat.read().rpartition(")")[2].split()[0]


def outcome_on(monkeypatch, cpus, runner, spec):
    """The run's JSON without durations, or the type and message of what it raised."""
    on_cpus(monkeypatch, cpus)
    try:
        payload = json.loads(runner(spec).to_json())
    except Exception as exc:
        return type(exc), str(exc)
    for row in payload["rows"]:
        del row["duration"]
    return json.dumps(payload, indent=2, sort_keys=True)


class TwoPartError(Exception):
    """Pickles, but does not unpickle: its one stored arg does not fit its __init__."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


# tune_d2h's learners, in its order: the tuned linear_svm and cart cost the most.
D2H_KINDS = ("cart", "knn", "logistic", "naive_bayes", "linear_svm")


class TestDeal:
    """Cells go longest first, each to the least-loaded process; equal costs go round-robin."""

    @pytest.mark.parametrize("processes", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_equal_costs_deal_round_robin(self, n, processes):
        assert harness._deal([2.7] * n, processes) == [list(range(p, n, processes))
                                                        for p in range(processes)]

    def test_tune_d2h_keeps_svm_and_cart_apart(self):
        caller, helper = harness._deal([harness._CELL_COST[k] for k in D2H_KINDS], 2)
        assert {D2H_KINDS[i] for i in caller} == {"logistic", "naive_bayes", "linear_svm"}
        assert {D2H_KINDS[i] for i in helper} == {"cart", "knn"}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.01, 300.0), min_size=1, max_size=12), st.integers(1, 4))
    def test_every_cell_dealt_once_within_graham_bound(self, costs, processes):
        owned = harness._deal(costs, processes)
        assert len(owned) == processes
        assert sorted(i for cells in owned for i in cells) == list(range(len(costs)))
        assert all(cells == sorted(cells) for cells in owned)
        total = sum(costs)
        largest_load = max(sum(costs[i] for i in cells) for cells in owned)
        assert largest_load <= total / processes + max(costs) + 1e-9 * total  # float sums

    def test_every_learner_kind_has_a_cost(self):
        assert set(harness._CELL_COST) == set(KINDS)


class TestParallelCells:
    """Tuned cells dealt to the caller and one forked helper: a serial run's rows and errors."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        assert_no_child_left()  # a leaked child fails only the test that leaked it

    @pytest.mark.parametrize("kinds", [
        *(pytest.param(("naive_bayes", "cart", "logistic", "knn", "fft")[:cells], id=str(cells))
          for cells in range(1, 6)),
        pytest.param(D2H_KINDS, id="tune_d2h")])
    @pytest.mark.parametrize("runner", [run_tuned, run_kfold_tuned, run_smotuned])
    def test_rows_equal_a_serial_run(self, monkeypatch, runner, kinds):
        spec = spec_for({"planted": planted_split(n=120)}, [LearnerSpec(k) for k in kinds],
                        seed=31, folds=2, de=DEConfig(np=4, life=1))
        serial = outcome_on(monkeypatch, 1, runner, spec)
        assert isinstance(serial, str)
        assert outcome_on(monkeypatch, 2, runner, spec) == serial

    def test_helper_cell_error_raises_as_serial(self, monkeypatch):
        # Listed second, the degenerate dataset's cell runs in a helper.
        spec = spec_for({"ok": planted_split(n=120), "few": few_defects()},
                        [LearnerSpec("cart")], goal=goal("p_opt"), seed=0,
                        de=DEConfig(np=4, life=1))
        expected = (DegenerateDataError,
                    "dataset 'few': no defective instances; recall axis undefined")
        assert outcome_on(monkeypatch, 1, run_tuned, spec) == expected
        assert outcome_on(monkeypatch, 2, run_tuned, spec) == expected

    def test_lowest_failing_cell_wins(self, monkeypatch):
        # On 2 CPUs the main process fails at cell 2 and its helper first, at cell 1.
        few = few_defects()
        spec = spec_for({"ok": planted_split(n=120), "few1": few, "few2": few},
                        [LearnerSpec("naive_bayes")], goal=goal("p_opt"), seed=0,
                        de=DEConfig(np=4, life=1))
        serial = outcome_on(monkeypatch, 1, run_tuned, spec)
        assert serial[0] is DegenerateDataError and "'few1'" in serial[1]
        assert outcome_on(monkeypatch, 2, run_tuned, spec) == serial

    def test_helper_that_dies_is_an_error(self, monkeypatch):
        parent, tune = os.getpid(), harness._tune_learner

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return tune(*args)

        monkeypatch.setattr(harness, "_tune_learner", dying)
        spec = spec_for({"planted": planted_split(n=120)},
                        [LearnerSpec("naive_bayes"), LearnerSpec("logistic")],
                        seed=32, de=DEConfig(np=4, life=1))
        # Logistic costs more than naive Bayes, so the helper owes cell 0.
        assert harness._deal([harness._CELL_COST[k] for k in ("naive_bayes", "logistic")],
                             2) == [[1], [0]]
        assert outcome_on(monkeypatch, 2, run_tuned, spec) == (
            ChildProcessError, "a helper process ended before returning cell 0")

    def test_no_fork_while_another_thread_runs(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert harness._cpus() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert harness._cpus() == min(len(os.sched_getaffinity(0)), harness._MAX_PROCESSES)

    def test_helper_never_waits_for_the_caller(self):
        # The helper's 10 cells make about 200 KB, more than a 64 KiB pipe holds, in less
        # time than the caller's first cell takes.  It writes them in one message after its
        # last cell, so a full pipe delays only its exit, never its cells.
        def run_cell(i):
            if i % 2 == 0:
                time.sleep(0.05)
            return [(i, time.monotonic(), "x" * 20_000)]

        rows = harness._run_cells(run_cell, [1.0] * 20, 2)
        assert [row[0] for row in rows] == list(range(20))
        assert rows[19][1] < rows[18][1]  # the helper's last cell ended before the caller's

    def test_caller_failure_waits_for_no_higher_helper_cell(self):
        parent = os.getpid()

        def run_cell(i):
            if os.getpid() == parent:
                raise ValueError(f"cell {i}")
            time.sleep(60)  # cell 1, in the helper, cannot change the outcome
            return [i]

        start = time.monotonic()
        with pytest.raises(ValueError, match="cell 0"):
            harness._run_cells(run_cell, [1.0, 1.0], 2)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    # The caller owns cells 1 and 4, the helper 0, 2 and 3: not a stride.
    SPLIT_COSTS = [1.0, 5.0, 3.0, 1.0, 1.0]

    @pytest.mark.parametrize("failing, raised", [({2, 4}, 2), ({1, 2}, 1), ({0, 1}, 0)])
    def test_lowest_failing_cell_wins_in_a_split_deal(self, failing, raised):
        assert harness._deal(self.SPLIT_COSTS, 2) == [[1, 4], [0, 2, 3]]

        def run_cell(i):
            if i in failing:
                raise ValueError(f"cell {i}")
            return [i]

        with pytest.raises(ValueError, match=f"^cell {raised}$"):
            harness._run_cells(run_cell, self.SPLIT_COSTS, 2)
        assert harness._run_cells(lambda i: [i], self.SPLIT_COSTS, 2) == list(range(5))

    def test_failed_fork_leaves_the_cells_to_the_caller(self, monkeypatch):
        spec = spec_for({"planted": planted_split(n=120)},
                        [LearnerSpec(k) for k in ("naive_bayes", "cart", "logistic", "knn")],
                        seed=34, de=DEConfig(np=4, life=1))
        serial = outcome_on(monkeypatch, 1, run_tuned, spec)
        tried = []

        def failing_fork():
            tried.append(None)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        open_fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", failing_fork)
        assert outcome_on(monkeypatch, 2, run_tuned, spec) == serial
        assert len(tried) == 1
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_orphaned_helper_runs_no_cell(self):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # a parent pid that is not its own: the helper was orphaned
            try:
                harness._helper(lambda i: os._exit(5), range(3), write_end, parent=-1)
            finally:
                os._exit(6)  # never back into the test run
        os.close(write_end)
        try:
            with os.fdopen(read_end, "rb") as pipe:
                assert pipe.read() == b""
        finally:
            status = os.waitpid(pid, 0)[1]
        assert os.waitstatus_to_exitcode(status) == 0

    def test_helper_that_dies_mid_message_is_an_error(self):
        # The caller owns cells 0 and 2, the helper 1 and 3.  The helper's message of about
        # 2 MB fills the pipe (64 KiB on most hosts); the caller's cell 0 kills the helper
        # while it waits to write the rest.
        parent, fork, pids, loaded = os.getpid(), os.fork, [], []
        loads = pickle.loads

        def recording_fork():
            pids.append(fork())
            return pids[-1]

        def recording_loads(message):
            loaded.append(len(message))
            return loads(message)

        def run_cell(i):
            if os.getpid() != parent:
                return [b"x" * 1_000_000]
            if i == 0:
                deadline = time.monotonic() + 10
                while helper_state(pids[0]) != "S":  # asleep: blocked on the full pipe
                    assert time.monotonic() < deadline, "the helper never blocked"
                    time.sleep(0.01)
                os.kill(pids[0], 9)
            return [i]

        with mock.patch.object(os, "fork", recording_fork), \
                mock.patch.object(pickle, "loads", recording_loads):
            with pytest.raises(ChildProcessError,
                               match="^a helper process ended before returning cell 1$"):
                harness._run_cells(run_cell, [1.0] * 4, 2)
        assert len(pids) == 1
        assert len(loaded) == 1 and 0 < loaded[0] < 2_000_000  # cut short, not empty

    def test_unpicklable_error_keeps_its_message(self, monkeypatch):
        parent, tune = os.getpid(), harness._tune_learner

        def failing_in_helper(*args):
            if os.getpid() != parent:
                raise TwoPartError("this", "that")
            return tune(*args)

        monkeypatch.setattr(harness, "_tune_learner", failing_in_helper)
        spec = spec_for({"planted": planted_split(n=120)},
                        [LearnerSpec("naive_bayes"), LearnerSpec("logistic")],
                        seed=33, de=DEConfig(np=4, life=1))
        assert outcome_on(monkeypatch, 2, run_tuned, spec) == (
            RuntimeError, "TwoPartError: this and that")


class TestSerialEquivalence:
    """_run_cells on drawn deals, failures, payloads and failed forks equals a serial loop."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_run_cells_equals_a_serial_loop(self, data):
        costs = data.draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=1, max_size=8))
        n = len(costs)
        processes = data.draw(st.integers(1, 2))  # the caller and at most one helper
        # cell -> the exception it raises; TwoPartError cannot cross a pipe
        failing = data.draw(st.dictionaries(st.integers(0, n - 1),
                                            st.sampled_from([ValueError, TwoPartError])))
        sizes = data.draw(st.lists(st.sampled_from([0, 1, 5_000, 70_000]),
                                   min_size=n, max_size=n))
        # whether the helper's fork fails; the caller then runs its cells
        fork_fails = processes > 1 and data.draw(st.booleans())
        owned = harness._deal(costs, processes)
        in_helper = set() if fork_fails else {i for cells in owned[1:] for i in cells}

        def error(i):
            kind = failing[i]
            return kind("cell", i) if kind is TwoPartError else kind(f"cell {i}")

        def run_cell(i):
            if i in failing:
                raise error(i)
            return [(i, b"x" * sizes[i])]

        expected = []
        for i in range(n):
            if i in failing:
                exc = error(i)
                expected = ((RuntimeError, f"TwoPartError: {exc}")
                            if isinstance(exc, TwoPartError) and i in in_helper
                            else (type(exc), str(exc)))
                break
            expected += run_cell(i)

        fork, forks = os.fork, []

        def failing_fork():
            forks.append(None)
            if fork_fails:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        open_fds = len(os.listdir("/proc/self/fd"))
        with mock.patch.object(os, "fork", failing_fork):
            try:
                outcome = harness._run_cells(run_cell, costs, processes)
            except Exception as exc:
                outcome = type(exc), str(exc)
        assert outcome == expected
        assert len(forks) == (processes > 1 and n > 1)  # no helper for one cell
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert_no_child_left()


@st.composite
def tiny_runs(draw):
    """A tuned workflow and a drawn experiment for it: 1-2 tiny tie-heavy datasets, cart plus
    other cheap learners, a goal, repeats or folds and a seed.  A training set may hold one
    class or too few defective rows, so some cells fail."""
    runner = draw(st.sampled_from([run_tuned, run_kfold_tuned, run_smotuned]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    datasets = {}
    for name in ("p", "q")[:draw(st.integers(1, 2))]:
        n_train, n_test, n_features = (draw(st.integers(lo, hi))
                                       for lo, hi in ((8, 30), (4, 10), (1, 3)))
        ratio = draw(st.sampled_from([0.0, 0.15, 0.4, 0.5]))
        labels = (rng.random(n_train + n_test) < ratio).astype(int)
        labels[n_train:n_train + 2] = [0, 1]  # every test set holds both classes
        data = make_dataset(rng.integers(0, 4, size=(n_train + n_test, n_features)), labels,
                            loc=rng.integers(1, 50, n_train + n_test))
        datasets[name] = (data.subset(range(n_train)), data.subset(range(n_train, len(data))))
    others = draw(st.lists(st.sampled_from(["naive_bayes", "logistic", "knn", "linear_svm",
                                            "fft"]), unique=True, max_size=2))
    spec = spec_for(datasets, [LearnerSpec(kind) for kind in ["cart", *others]],
                    goal=goal(draw(st.sampled_from(["dist2heaven", "p_opt"]))),
                    repeats=1 if runner is run_kfold_tuned else draw(st.integers(1, 2)),
                    seed=draw(st.integers(0, 2 ** 16)), folds=draw(st.integers(2, 3)),
                    de=DEConfig(np=4, life=1))
    return runner, spec


class TestTunedRunsEqualSerialRuns:
    """Each tuned workflow writes the results.json (apart from durations) or raises the
    error of its one-process run when it may use two processes."""

    @pytest.mark.filterwarnings("ignore:k=.* clamped to")
    @settings(max_examples=30, deadline=None)
    @given(tiny_runs())
    def test_two_processes_equal_one(self, run):
        runner, spec = run
        with pytest.MonkeyPatch.context() as patch:
            assert outcome_on(patch, 2, runner, spec) == outcome_on(patch, 1, runner, spec)
        assert_no_child_left()


class TestRunSmotuned:
    def test_tunings_stay_in_table_ranges(self):
        spec = spec_for({"planted": planted_split()}, [LearnerSpec("cart")],
                        repeats=2, seed=14, de=FAST_DE)
        result = run_smotuned(spec)
        for row in result.rows:
            assert row.method == "cart+smotuned"
            assert 1 <= row.tunings["k"] <= 20
            assert row.tunings["m"] in (50, 100, 200, 400)
            assert 0.1 <= row.tunings["r"] <= 5.0

    def test_degenerate_minority_names_dataset(self):
        rng = np.random.default_rng(0)
        train = make_dataset(rng.random((30, 2)), [1] + [0] * 29)
        test = make_dataset(rng.random((10, 2)), [1] * 5 + [0] * 5)
        spec = spec_for({"lonely": (train, test)}, [LearnerSpec("cart")],
                        seed=15, de=FAST_DE)
        with pytest.raises(DegenerateDataError, match="lonely"):
            run_smotuned(spec)

    def test_test_set_never_rebalanced(self, monkeypatch):
        seen = []
        original = harness._score

        def watching(model, data, g):
            seen.append(data)
            return original(model, data, g)

        monkeypatch.setattr(harness, "_score", watching)
        train, test = planted_split()
        spec = spec_for({"planted": (train, test)}, [LearnerSpec("cart")],
                        seed=16, de=FAST_DE)
        run_smotuned(spec)
        assert [len(data) for data in seen if data is test] == [len(test)]
        assert len({id(data) for data in seen if data is not test}) == 1  # the tuning set

    @staticmethod
    def spy_on_smote(monkeypatch):
        """Record each smotuned apply's (r, tables held after it, memo bound) and the pair
        differences it held, and each table's r."""
        applies, rankings, pairs_held = [], [], []
        apply, table = harness.smote.apply, harness.smote.neighbour_table

        def spying_apply(data, cfg, memo=None):
            out = apply(data, cfg, memo)
            applies.append((cfg.r, len(memo.entries) - ("pairs" in memo.entries), memo.size))
            pairs_held.append(memo.entries.get("pairs"))
            return out

        def spying_table(points, k, r, memo):
            rankings.append(r)
            return table(points, k, r, memo)

        monkeypatch.setattr(harness.smote, "apply", spying_apply)
        monkeypatch.setattr(harness.smote, "neighbour_table", spying_table)
        return applies, rankings, pairs_held

    def test_cell_ranks_each_r_once(self, monkeypatch):
        few_r = tuner.ParamSpace(tuple(
            tuner.ParamSpec("r", tuner.CATEGORICAL, values=(0.5, 1.0, 2.0), default=2.0)
            if spec.name == "r" else spec for spec in harness.SMOTE_SPACE))
        monkeypatch.setattr(harness, "SMOTE_SPACE", few_r)
        applies, rankings, pairs_held = self.spy_on_smote(monkeypatch)
        spec = spec_for({"planted": planted_split()}, [LearnerSpec("naive_bayes")],
                        seed=18, de=FAST_DE)
        run_smotuned(spec)
        assert len(applies) > len(set(rankings)) > 1
        assert sorted(rankings) == sorted({r for r, _, _ in applies})
        # Every table of the cell ranks from one array of pair differences, held throughout.
        assert pairs_held[0] is not None and all(p is pairs_held[0] for p in pairs_held)
        # 2np tables, plus the pair differences
        assert all(held <= bound - 1 == 2 * FAST_DE.np for _, held, bound in applies)

    def test_memo_bound_keeps_rows(self, monkeypatch):
        on_cpus(monkeypatch, 1)
        spec = spec_for({"planted": planted_split()}, [LearnerSpec("naive_bayes")],
                        repeats=2, seed=19, de=FAST_DE)
        apply = harness.smote.apply
        with monkeypatch.context() as patch:
            patch.setattr(harness.smote, "apply", lambda data, cfg, memo=None: apply(data, cfg))
            fresh_tables = row_fields(run_smotuned(spec))
        applies, _, _ = self.spy_on_smote(monkeypatch)
        assert row_fields(run_smotuned(spec)) == fresh_tables
        assert len({r for r, _, _ in applies}) > 2 * FAST_DE.np  # so the memo evicted
        assert max(held for _, held, _ in applies) == 2 * FAST_DE.np


class TestReport:
    def build_result(self):
        rows = [
            harness.ResultRow("poi", "cart", 0, 0.35, 0.5),
            harness.ResultRow("poi", "fft", 0, 0.23, 0.1),
            harness.ResultRow("ivy", "cart", 0, 0.56, 0.4),
            harness.ResultRow("ivy", "fft", 0, 0.35, 0.1),
            harness.ResultRow("log4j", "cart", 0, 0.51, 0.6),
            harness.ResultRow("log4j", "fft", 0, 0.23, 0.2),
        ]
        return ExperimentResult(D2H, rows)

    def test_table_grid_and_best_markers(self):
        text = report(self.build_result(), "table")
        lines = text.splitlines()
        assert len([ln for ln in lines if ln.startswith(("poi", "ivy", "log4j"))]) == 3
        poi = next(ln for ln in lines if ln.startswith("poi"))
        assert "23.0*" in poi and "35.0" in poi

    def test_scores_scaled_to_one_decimal(self):
        text = report(self.build_result(), "csv", include_runtime=False)
        assert "poi,fft,23.0,1" in text
        assert "poi,cart,35.0,0" in text

    def test_csv_round_trip(self):
        rendered = report(self.build_result(), "csv", include_runtime=False)
        rows = parse_report_csv(rendered)
        assert ("poi", "fft", 23.0, True) in rows
        assert ("ivy", "cart", 56.0, False) in rows

    def test_partial_grid_runtimes_stay_under_their_method(self):
        rows = [harness.ResultRow("alpha", "cart", 0, 0.3, 1.0),
                harness.ResultRow("alpha", "fft", 0, 0.2, 3.0),
                harness.ResultRow("beta", "fft", 0, 0.4, 2.0)]
        lines = report(ExperimentResult(D2H, rows), "table", include_runtime=True).splitlines()
        runtimes = lines[lines.index("runtime seconds (median per dataset x method)") + 1:]
        assert [[cell.strip() for cell in line.split("|")] for line in runtimes] == [
            ["alpha", "1.000", "3.000"], ["beta", "-", "2.000"]]

    def test_runtime_present_for_tuned_absent_for_untuned(self):
        untuned = self.build_result()
        assert "runtime" not in report(untuned, "csv")
        assert "runtime" in report(untuned, "csv", include_runtime=True)
        tuned = self.build_result()
        for row in tuned.rows:
            row.tunings = {"threshold": 0.4}
        assert "runtime" in report(tuned, "csv")

    def test_header_counts_the_rows_of_the_fullest_cell(self):
        # A repeat is an index, not a count: one row numbered 10**9 is one repeat.
        rows = [harness.ResultRow("d", "cart", 10 ** 9, 0.3, 1.0),
                harness.ResultRow("d", "fft", 0, 0.2, 1.0),
                harness.ResultRow("d", "fft", 1, 0.4, 1.0)]
        header = report(ExperimentResult(D2H, rows), "table").splitlines()[0]
        assert "median over 2 repeats" in header

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            report(ExperimentResult(D2H, []), "table")

    def test_json_round_trip(self):
        result = self.build_result()
        again = ExperimentResult.from_json(result.to_json())
        assert [vars(r) for r in again.rows] == [vars(r) for r in result.rows]
        assert again.goal == result.goal

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([-1.5, 0.0, 0.25, 0.5, 3.0]), st.integers(-9, 9),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=9))
    def test_median_helper_equals_np_median(self, values):
        # Tied values and odd and even lengths; a pair's mean may overflow to inf in both.
        with np.errstate(over="ignore"):
            expected = float(np.median(values))
        assert harness._median(values) == expected

    def test_median_matches_sort_oracle(self):
        rows = [harness.ResultRow("d", "m", i, s, 0.0)
                for i, s in enumerate([0.9, 0.1, 0.4, 0.7, 0.3])]
        result = ExperimentResult(D2H, rows)
        assert result.aggregates()[("d", "m")] == sorted([0.9, 0.1, 0.4, 0.7, 0.3])[2]
