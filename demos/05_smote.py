"""Rebalancing skewed training data by synthesising minority instances.

Every synthetic instance lies on the segment between a real minority
instance and one of its k nearest minority neighbours, so the synthetic
cloud never leaves the minority region.  m=50 re-balances the classes
exactly; larger m values only add synthetic minority mass.
"""

import numpy as np

from defectkit import SmoteConfig
from defectkit.dataset import AttributeSchema, Dataset
from defectkit.smote import apply

rng = np.random.default_rng(1)

# 6 defective modules drowned among 44 clean ones
n_minority, n_majority = 6, 44
features = np.vstack([rng.normal(8, 0.5, (n_minority, 2)),
                      rng.normal(2, 1.0, (n_majority, 2))])
loc = rng.integers(10, 200, n_minority + n_majority).astype(float)
schema = AttributeSchema(("complexity", "coupling", "loc"), loc_index=2)
data = Dataset(schema, np.column_stack([features, loc]),
               np.array([1] * n_minority + [0] * n_majority))

print(f"before: {data.n_defective}/{len(data)} defective ({data.defect_ratio:.0%})")

balanced = apply(data, SmoteConfig(k=3, m=50, r=2.0, seed=9))
counts = np.bincount(balanced.labels)
print(f"after m=50: {counts[1]}/{len(balanced)} defective "
      f"({counts[1] / len(balanced):.0%}) -- classes exactly balanced")

for m in (100, 200, 400):
    grown = apply(data, SmoteConfig(k=3, m=m, r=2.0, seed=9))
    c = np.bincount(grown.labels)
    print(f"after m={m}: {c[1]} defective vs {c[0]} clean "
          f"(total {len(grown)})")

# --- the geometry of the synthetic points -----------------------------------
synthetic = balanced.features[balanced.labels == 1][n_minority:]
parents = data.features[data.labels == 1]
print(f"\n{len(synthetic)} synthetic instances; distances to the nearest real "
      f"minority instance:")
for s in synthetic[:5]:
    nearest = min(np.linalg.norm(s - p, ord=2) for p in parents)
    print(f"  {np.round(s[:2], 2)} loc={s[2]:6.1f} -> {nearest:.3f}")
print("(all sit inside the minority cloud; none near the clean cluster at ~2)")

# the Minkowski power r reshapes the neighbourhoods used for interpolation
a, b = parents[0][:2], parents[1][:2]
print(f"\ndistance between two minority instances under different powers:")
for r in (1.0, 2.0, 5.0):
    print(f"  r={r}: {np.linalg.norm(a - b, ord=r):.4f}")
