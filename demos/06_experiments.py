"""Full experiment runs: untuned baselines, DE-tuned learners, and SMOTE tuning.

The harness walks (dataset x learner x repeat) cells.  Tuned runs split
the training data 80/20, let DE pick parameters by the goal score on the
tuning fifth, refit the winner, and touch the held-out test set exactly
once per cell.  Everything derives from one seed, so reruns reproduce the
same report byte for byte.

The command-line equivalents of what this script does:

    defectkit untuned  --manifest manifest.json --goal d2h --learner fft,cart
    defectkit tune     --manifest manifest.json --goal d2h --learner cart --repeats 5
    defectkit smotuned --manifest manifest.json --goal d2h --learner cart
    defectkit report   --out results/ --format csv
"""

import numpy as np

from defectkit import (DEConfig, ExperimentSpec, LearnerSpec, SmoteConfig, goal,
                       random_split, report, run_smotuned, run_tuned, run_untuned, smote)
from defectkit.dataset import AttributeSchema, Dataset

rng = np.random.default_rng(5)

# one synthetic project: planted signal in `wmc`, 20% defective
n = 400
labels = (rng.random(n) < 0.2).astype(int)
wmc = labels * 6 + rng.random(n) * 2
noise = rng.normal(size=(n, 4))
loc = rng.integers(5, 400, n).astype(float)
schema = AttributeSchema(("wmc", "n0", "n1", "n2", "n3", "loc"), loc_index=5)
full = Dataset(schema, np.column_stack([wmc, noise, loc]), labels)
train, test = random_split(full, 0.8, seed=11)

datasets = {"demo": (train, test)}
d2h = goal("dist2heaven")

# --- untuned baselines -------------------------------------------------------
baseline = run_untuned(ExperimentSpec(
    datasets,
    [LearnerSpec(k) for k in ("fft", "cart", "naive_bayes", "logistic",
                              "knn", "linear_svm")],
    d2h, seed=42))
print(report(baseline, "table"))

# --- goal-savvy tuning: DE over the learner's own parameters ----------------
tuned = run_tuned(ExperimentSpec(
    datasets, [LearnerSpec("cart")], d2h,
    repeats=5, seed=42, de=DEConfig(np=10, f=0.75, cr=0.3, life=5)))
print(report(tuned, "table"))
row = tuned.rows[0]
print(f"repeat 0: defaults scored {row.default_tune_score:.3f} on the tuning "
      f"split,\n  the tuned configuration {row.best_tune_score:.3f} "
      f"after {row.evaluations} objective evaluations")
print(f"  winning tunings: {row.tunings}\n")

# --- fixed SMOTE: one rebalancing of the training data, no tuning ------------
# smote.apply rebalances the training set before the spec is built; test stays as it is.
balanced = smote.apply(train, SmoteConfig(k=5, m=50, r=2.0, seed=42))
rebalanced = run_untuned(ExperimentSpec(
    {"demo": (balanced, test)}, [LearnerSpec("cart")], d2h, seed=42))
print(f"untuned cart after fixed SMOTE (k=5, m=50, r=2): "
      f"{rebalanced.rows[0].score * 100:.1f}\n")

# --- data-savvy tuning: DE over the SMOTE preprocessor ----------------------
# run_smotuned tunes (k, m, r) per cell, on the new-training part of each 80/20 split.
smotuned = run_smotuned(ExperimentSpec(
    datasets, [LearnerSpec("cart")], d2h, repeats=3, seed=42, de=DEConfig()))
print(report(smotuned, "table"))
print(f"tuned SMOTE settings per repeat: "
      f"{[r.tunings for r in smotuned.rows]}\n")

# --- reproducibility ---------------------------------------------------------
again = run_tuned(ExperimentSpec(
    datasets, [LearnerSpec("cart")], d2h,
    repeats=5, seed=42, de=DEConfig(np=10, f=0.75, cr=0.3, life=5)))
identical = report(tuned, "csv", include_runtime=False) == \
    report(again, "csv", include_runtime=False)
print(f"re-running the tuned experiment with the same seed reproduces the "
      f"CSV report byte-for-byte: {identical}")
