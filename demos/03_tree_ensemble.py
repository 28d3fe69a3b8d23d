"""The fast-and-frugal tree ensemble: enumerate 2^d tiny trees, keep the best.

Each tree is a chain of one-attribute tests against median thresholds;
every level exits straight to a class.  With depth 4 there are exactly 16
possible exit-class patterns, so the learner builds all of them, scores
each on the training data with the goal metric, and keeps the winner --
a whole model in five readable lines.
"""

import numpy as np

from defectkit import goal
from defectkit.dataset import AttributeSchema, Dataset
from defectkit.fft import fit, tree_from_text

rng = np.random.default_rng(7)

# 300 modules; wmc carries a perfect signal, the other attributes are noise
n = 300
labels = (rng.random(n) < 0.45).astype(int)
wmc = labels * 10 + rng.random(n)
noise = rng.normal(size=(n, 3))
loc = rng.integers(5, 500, n).astype(float)
names = ("wmc", "n0", "n1", "n2", "loc")
schema = AttributeSchema(names, loc_index=4)
data = Dataset(schema, np.column_stack([wmc, noise, loc]), labels)

train = data.subset(range(0, 240))
test = data.subset(range(240, n))

d2h = goal("dist2heaven")
ensemble = fit(train, d2h, depth=4)

print(f"built {len(ensemble.trees)} trees of depth 4; "
      f"training dist2heaven per tree:")
for i, score in enumerate(ensemble.scores):
    marker = "  <- selected" if i == ensemble.best else ""
    print(f"  tree {i:2d} (exits {i:04b}): {score:.4f}{marker}")

best = ensemble.best_tree
print("\nthe winning model, as a rule list:")
print(best.to_text())

predictions = best.predict(test.features)
agreement = (predictions == test.labels).mean()
print(f"\ntest accuracy of the selected tree: {agreement:.1%}")

# the text form round-trips, so models can be reviewed and reloaded as text
reloaded = tree_from_text(best.to_text(), best.feature_names)
assert (reloaded.predict(test.features) == predictions).all()
print("rule list parsed back in; predictions identical")
