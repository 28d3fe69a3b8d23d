"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every expected value is produced by an independent oracle
inside this module (exhaustive counting, literal rule interpretation,
direct formula evaluation, convex-combination search), never by the code
path under test.
"""

import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import defectkit.harness as harness
from defectkit.dataset import load_csv, merge, random_split
from defectkit.fft import fit as fit_forest
from defectkit.harness import ExperimentSpec, report, run_tuned, run_untuned
from defectkit.learners import LearnerSpec
from defectkit.metrics import evaluate, goal, p_opt
from defectkit.smote import SmoteConfig, apply as smote_apply
from defectkit.tuner import CONTINUOUS, Candidate, DEConfig, ParamSpace, ParamSpec, extrapolate

from conftest import lift_curve, make_dataset, planted_dataset
from test_fft import interpret_rules
from test_smote import is_convex_combination
from test_tuner import challenges

D2H = goal("dist2heaven")


def passed(name):
    print(f"[PASS] {name}")


def test_metric_oracle_suite():
    """Every threshold goal matches exhaustive counting on 1,000 random binary vectors."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        actual = rng.integers(0, 2, n).tolist()
        predicted = rng.integers(0, 2, n).tolist()

        tally = [[0, 0], [0, 0]]
        for a, p in zip(actual, predicted):
            tally[a][p] += 1
        (tn, fp), (fn, tp) = tally
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        fa = fp / (fp + tn) if fp + tn else 0.0
        expected = {
            "accuracy": (tn + tp) / n,
            "precision": precision,
            "recall": recall,
            "f1": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
            "dist2heaven": math.sqrt((1 - recall) ** 2 + fa ** 2) / math.sqrt(2),
        }
        for kind, value in expected.items():
            assert evaluate(goal(kind), actual, predicted) == value

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"metric oracle suite took {elapsed:.2f}s"
    passed(f"metric oracle suite ({elapsed:.2f}s)")


def test_p_opt_bounds():
    """Every prediction's area sits between worst and optimal on 500 random sets."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 9))
        locs = rng.integers(1, 100, n).astype(float)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        instances = list(zip(locs, labels))
        density = labels / locs
        optimal_order = sorted(range(n), key=lambda i: -density[i])
        worst_order = sorted(range(n), key=lambda i: density[i])
        s_optimal = lift_curve(instances, optimal_order).area()
        s_worst = lift_curve(instances, worst_order).area()
        if s_optimal == s_worst:
            continue
        checked += 1

        def popt_of(area):
            return 1.0 - (s_optimal - area) / (s_optimal - s_worst)

        assert popt_of(s_optimal) == 1.0
        assert popt_of(s_worst) == 0.0
        # Every prediction vector of the set, scored as one (2^n, n) matrix.
        vectors = list(itertools.product((0, 1), repeat=n))
        values = p_opt(locs, labels, np.array(vectors))
        for bits, value in zip(vectors, values):
            model_order = sorted(range(n), key=lambda i: (1 - bits[i], locs[i]))
            s_model = lift_curve(instances, model_order).area()
            assert s_worst - 1e-9 <= s_model <= s_optimal + 1e-9
            assert -1e-9 <= value <= 1.0 + 1e-9
            assert value == pytest.approx(popt_of(s_model), abs=1e-12)
        one = checked % len(vectors)
        assert p_opt(locs, labels, list(vectors[one])) == values[one]

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"p_opt bounds took {elapsed:.2f}s"
    passed(f"p_opt bounds on 500 sets ({elapsed:.2f}s)")


def test_fft_enumeration_and_rule_list_semantics():
    """fit builds exactly 2^d trees; trees equal a literal rule interpreter."""
    data = planted_dataset(n=60, n_noise=3, seed=31)
    for depth, expected in ((1, 2), (2, 4), (3, 8), (4, 16), (5, 32)):
        ensemble = fit_forest(data, D2H, depth)
        assert len(ensemble.trees) == expected

    rng = np.random.default_rng(32)
    for depth in (1, 2, 3):
        for _ in range(4):
            small = make_dataset(rng.integers(0, 9, (20, 4)).astype(float),
                                 rng.integers(0, 2, 20))
            if len(np.unique(small.labels)) < 2:
                continue
            for tree in fit_forest(small, D2H, depth).trees:
                text = tree.to_text()
                names = list(tree.feature_names)
                for row in small.features:
                    assert tree.predict(row.reshape(1, -1))[0] == interpret_rules(text, names, row)
    passed("fft enumeration (2, 4, 8, 16, 32 trees) and rule-list equivalence")


def test_de_convergence_30_seeds():
    """30 runs land within 1.0 of the quadratic optimum under the life budget."""
    start = time.perf_counter()
    space = ParamSpace((ParamSpec("x", CONTINUOUS, 1.0, 50.0, default=25.0),))
    grid = np.linspace(1.0, 50.0, 49001)
    brute_force_best = float(grid[np.argmax(-(grid - 25.0) ** 2)])
    assert brute_force_best == pytest.approx(25.0, abs=1e-9)

    for seed in range(30):
        cfg = DEConfig()
        run, log = challenges(space, lambda c: -(c.tunings["x"] - 25.0) ** 2, "maximize", cfg,
                              seed=seed)
        assert abs(run.best.tunings["x"] - brute_force_best) <= 1.0
        for earlier, later in zip(run.best_history, run.best_history[1:]):
            assert later >= earlier
        assert run.evaluations == cfg.np * (run.generations + 1)
        stagnant = 0
        for gen in range(1, run.generations + 1):
            events = [e for e in log if e[0] == gen]
            if not any(challenger > incumbent + 1e-12
                       for _, _, incumbent, challenger, _ in events):
                stagnant += 1
        assert stagnant == cfg.life  # the run ended exactly when life ran out

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"DE convergence took {elapsed:.2f}s"
    passed(f"DE convergence, 30 seeds within 1.0 of 25 ({elapsed:.2f}s)")


def test_de_extrapolation_formula_10000_triples():
    """Mutation reproduces a + f*(b - c), trimmed to range, to 1e-12."""
    rng = np.random.default_rng(404)
    lo, hi = 1.0, 50.0
    space = ParamSpace((ParamSpec("x", CONTINUOUS, lo, hi, default=lo),))
    for _ in range(10000):
        a, b, c, target = (float(v) for v in rng.uniform(lo, hi, 4))
        f = float(rng.uniform(0.1, 2.0))
        mutant = extrapolate(Candidate({"x": target}), Candidate({"x": a}),
                             Candidate({"x": b}), Candidate({"x": c}),
                             space, DEConfig(f=f, cr=1.0), rng)
        expected = min(max(a + f * (b - c), lo), hi)
        assert abs(mutant.tunings["x"] - expected) <= 1e-12
    passed("DE extrapolation formula on 10,000 random triples")


def test_smote_geometry_200_sets():
    """Synthetics are convex combinations of minority pairs; m=50 balances."""
    rng = np.random.default_rng(505)
    for trial in range(200):
        n_minority = int(rng.integers(2, 10))
        n_majority = int(rng.integers(n_minority + 2, 40))
        if (n_minority + n_majority) % 2:
            n_majority += 1  # exact balance needs an even total
        n_features = int(rng.integers(2, 5))
        features = np.vstack([rng.normal(5, 1, (n_minority, n_features)),
                              rng.normal(0, 1, (n_majority, n_features))])
        locs = rng.integers(1, 50, n_minority + n_majority).astype(float)
        data = make_dataset(features, [1] * n_minority + [0] * n_majority, loc=locs)
        k = int(rng.integers(1, n_minority))
        out = smote_apply(data, SmoteConfig(k=k, m=50, seed=trial))

        counts = np.bincount(out.labels, minlength=2)
        assert counts[0] == counts[1], "m=50 must balance the classes exactly"

        parents = data.features[data.labels == 1]
        synthetic = out.features[out.labels == 1][n_minority:]
        for s in synthetic:
            assert is_convex_combination(s, parents)
    passed("SMOTE geometry on 200 random minority sets; m=50 exact balance")


def test_planted_signal_end_to_end():
    """The tree ensemble finds a planted separator; a shuffled control cannot."""
    start = time.perf_counter()
    full = planted_dataset(n=300, n_noise=9, seed=7)
    train, test = random_split(full, 0.8, seed=1)

    signal_spec = ExperimentSpec({"planted": (train, test)}, [LearnerSpec("fft")],
                                 D2H, seed=42)
    signal = run_untuned(signal_spec).rows[0].score
    assert signal <= 0.15

    control_rng = np.random.default_rng(0)
    shuffled = make_dataset(full.features[:, :-1], control_rng.permutation(full.labels),
                            loc=full.features[:, -1])
    ctrl_train, ctrl_test = random_split(shuffled, 0.8, seed=1)
    ctrl_spec = ExperimentSpec({"control": (ctrl_train, ctrl_test)}, [LearnerSpec("fft")],
                               D2H, seed=42)
    control = run_untuned(ctrl_spec).rows[0].score
    assert abs(control - 0.5) <= 0.1

    tuned_spec = ExperimentSpec({"planted": (train, test)}, [LearnerSpec("cart")],
                                D2H, repeats=2, seed=42, de=DEConfig())
    for row in run_tuned(tuned_spec).rows:
        assert row.best_tune_score <= row.default_tune_score  # minimized goal

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.2f}s"
    passed(f"planted-signal end-to-end: fft {signal:.3f} <= 0.15, "
           f"control {control:.3f} within 0.1 of 0.5 ({elapsed:.2f}s)")


def test_workflow_determinism_seed_42():
    """Two tuned workflows with seed 42 render byte-identical CSV reports."""
    def workflow():
        full = planted_dataset(n=200, n_noise=4, seed=9)
        train, test = random_split(full, 0.8, seed=2)
        spec = ExperimentSpec({"planted": (train, test)},
                              [LearnerSpec("cart"), LearnerSpec("fft")],
                              D2H, repeats=2, seed=42, de=DEConfig(np=6, life=2))
        return report(run_tuned(spec), "csv", include_runtime=False).encode()

    first, second = workflow(), workflow()
    assert first == second
    passed("workflow determinism: byte-identical CSV reports at seed 42")


SEACRAFT_DIR = Path(os.environ.get("SEACRAFT_DIR", "data/seacraft"))


@pytest.mark.skipif(not SEACRAFT_DIR.exists(),
                    reason="SEACRAFT CSVs not supplied (set SEACRAFT_DIR)")
def test_seacraft_ingestion_ratios():
    """Optional: known corpus statistics reproduce from the real CSVs."""
    poi_train = merge([load_csv(SEACRAFT_DIR / f"poi-{v}.csv")
                       for v in ("1.5", "2.0", "2.5")])
    assert (len(poi_train), poi_train.n_defective) == (936, 426)
    ivy_test = load_csv(SEACRAFT_DIR / "ivy-2.0.csv")
    assert (len(ivy_test), ivy_test.n_defective) == (352, 40)
    passed("SEACRAFT ingestion ratios (poi 426/936, ivy 40/352)")
