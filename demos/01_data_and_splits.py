"""Loading metric CSVs, merging project versions, and carving splits.

Defect datasets arrive as one CSV per released version: a header of code
metrics, a `loc` column, and a `bug` count column.  Training data is the
merge of all older versions; the newest version is held out for testing.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from defectkit import Manifest, kfold, load_csv, merge, random_split

workdir = Path(tempfile.mkdtemp(prefix="defectkit-demo-"))
rng = np.random.default_rng(0)

# --- fabricate three versions of a project -------------------------------
for version, n in (("1.0", 50), ("2.0", 80), ("3.0", 60)):
    labels = rng.integers(0, 2, n)
    rows = ["wmc,rfc,cbo,loc,bug\n"]
    for j in range(n):
        rows.append(f"{labels[j] * 6 + rng.random():.3f},{rng.random():.3f},"
                    f"{rng.random():.3f},{rng.integers(10, 400)},{labels[j] * rng.integers(1, 4)}\n")
    (workdir / f"demo-{version}.csv").write_text("".join(rows))

names = ("1.0", "2.0", "3.0")
versions = [load_csv(workdir / f"demo-{v}.csv") for v in names]
for name, data in zip(names, versions):
    print(f"loaded demo-{name}.csv: {len(data)} modules, "
          f"{data.n_defective} defective ({data.defect_ratio:.0%})")

# --- version-based train/test assembly ------------------------------------
train = merge(versions[:-1])
test = versions[-1]
print(f"\ntraining on versions {', '.join(names[:-1])} -> {len(train)} modules "
      f"({train.defect_ratio:.0%} defective)")
print(f"testing on  version {names[-1]} -> {len(test)} modules")

# the same assembly, driven by a manifest file (what the CLI consumes)
manifest_path = workdir / "manifest.json"
manifest_path.write_text(json.dumps(
    {"demo": ["demo-1.0.csv", "demo-2.0.csv", "demo-3.0.csv"]}))
resolved = Manifest.load(manifest_path).assemble()
m_train, m_test = resolved["demo"]
assert len(m_train) == len(train) and len(m_test) == len(test)
print(f"manifest assembly agrees: train {len(m_train)}, test {len(m_test)}")

# --- deterministic splits --------------------------------------------------
new_train, tune = random_split(train, 0.8, seed=42)
print(f"\n80/20 split of the training data: {len(new_train)} / {len(tune)}")
again, _ = random_split(train, 0.8, seed=42)
print(f"same seed reproduces the same split: {np.array_equal(new_train.features, again.features)}")

print("\n5-fold carving (train size / holdout size):")
for i, (fold_train, holdout) in enumerate(kfold(train, 5, seed=7)):
    print(f"  fold {i}: {len(fold_train)} / {len(holdout)}")
