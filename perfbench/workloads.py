"""Workload definitions and the seeded input generator.

A workload is one `defectkit` batch command run many times in one benchmark
run, each time on a different synthetic project of three version CSVs (two
merged into training, the newest one testing).  Each CSV has 21 numeric
metric columns plus `loc` and `bug`; about a quarter of the rows are
defective and only column `m01` carries a weak planted signal.  Batch `i` of
workload seed `s` reads the project and CLI `--seed` drawn from the random
stream `(s, i)`, so the program only ever sees the generated files and the
same seed gives the same sequence of inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_METRICS = 21
N_VERSIONS = 3
DEFECT_RATIO = 0.25
SIGNAL_GAP = 1.0
ALL_LEARNERS = "cart,random_forest,naive_bayes,logistic,knn,linear_svm,fft"


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    projects: int
    rows: int
    why: str


# Each workload is dominated by a different layer, so a change to one layer
# has a workload that exercises it and others on which it should not move.
# How long a DE run takes depends on the data and on where the search goes,
# and the host's speed drifts over seconds, so a benchmark run is many short
# batches on different projects and reports figures over them all.  tune_d2h
# uses a DE population of 5 instead of 10, which halves the cost of a DE
# search and so doubles the searches a run covers.  A long smotuned search
# drifts towards m=400 or m=50 depending on the data, which doubles or halves
# the cost of every later smote.apply call, so smotuned_nb runs minimal
# searches (np=4, life=1) instead of default ones.
WORKLOADS = {w.name: w for w in (
    Workload("untuned_popt",
             ("untuned", "--goal", "popt", "--learner", ALL_LEARNERS), 1, 80,
             "all 7 learners untuned under P_opt; fft.fit and its P_opt scoring dominate"),
    Workload("tune_d2h",
             ("tune", "--goal", "d2h", "--learner", "cart,knn,logistic,naive_bayes,linear_svm",
              "--np", "5", "--repeats", "1"), 1, 100,
             "DE tuning (np=5) of 5 learners under d2h; repeated learners.fit and predict dominate"),
    Workload("smotuned_nb",
             ("smotuned", "--goal", "d2h", "--learner", "naive_bayes", "--np", "4", "--life", "1",
              "--repeats", "3"), 4, 150,
             "short DE searches over SMOTE (k, m, r) with naive Bayes; smote.apply dominates, no two fits share data"),
)}


def version_table(rng: np.random.Generator, rows: int) -> tuple[list[str], np.ndarray]:
    """Header and rows of one version CSV: m01..m21, loc, bug."""
    labels = (rng.random(rows) < DEFECT_RATIO).astype(int)
    metrics = np.round(rng.lognormal(1.0, 1.0, size=(rows, N_METRICS)), 2)
    metrics[:, 0] = np.round(metrics[:, 0] + SIGNAL_GAP * labels, 2)
    loc = np.floor(rng.lognormal(5.0, 1.0, size=rows)) + 1
    bugs = labels * rng.integers(1, 4, size=rows)
    header = [f"m{i:02d}" for i in range(1, N_METRICS + 1)] + ["loc", "bug"]
    return header, np.column_stack([metrics, loc, bugs])


def generate(workload: Workload, seed: int, batch: int, directory: Path) -> tuple[Path, int]:
    """Write batch `batch`'s version CSVs and manifest; return (manifest, CLI seed)."""
    rng = np.random.default_rng([seed, batch])
    projects = {}
    for project in (f"b{batch}p{i}" for i in range(1, workload.projects + 1)):
        projects[project] = []
        for version in range(1, N_VERSIONS + 1):
            header, table = version_table(rng, workload.rows)
            defective = int((table[:, -1] > 0).sum())
            if defective in (0, workload.rows):
                raise ValueError(f"seed {seed}: {project} version {version} lacks a class")
            name = f"{project}-{version}.0.csv"
            lines = [",".join(header)]
            lines += [",".join(f"{v:.10g}" for v in row) for row in table]
            (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            projects[project].append(name)
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps(projects), encoding="utf-8")
    return manifest, int(rng.integers(0, 2 ** 31))
