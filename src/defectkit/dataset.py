"""Tabular defect data: CSV ingestion, version-based assembly, and deterministic splits.

A dataset is a table of per-module code metrics plus a binary defect label.
One column must be the lines-of-code measure (effort-aware metrics need it)
and one column the defect label.  Defect columns in the public CK datasets
hold post-release bug counts, so any value > 0 is read as "defective".
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, CsvParseError, SchemaError

LABEL_ALIASES = ("bug", "defects", "defect")
LOC_ALIASES = ("loc",)
# Identifier columns present in the public CK dumps; dropped on load (results
# take their dataset names from the manifest).
IDENTIFIER_COLUMNS = ("name", "version")

CLEAN = 0
DEFECTIVE = 1

# Nearest-neighbour kernels (knn scoring, SMOTE's neighbour table) hold at most
# this many query-row x point x feature terms at once, so their memory grows
# with n*F, not with n*n*F.  A memo keeps SMOTE's pair differences up to this size.
CHUNK_TERMS = 1 << 18


@dataclass(frozen=True)
class AttributeSchema:
    """Names of the feature columns, and which one is lines-of-code."""

    feature_names: tuple[str, ...]
    loc_index: int

    def __post_init__(self):
        if not self.feature_names or any(not n for n in self.feature_names):
            raise SchemaError("attribute names must be non-empty")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise SchemaError(f"attribute names must be unique: {self.feature_names}")
        if not 0 <= self.loc_index < len(self.feature_names):
            raise SchemaError(f"loc index {self.loc_index} out of range")


class Dataset:
    """Immutable set of instances sharing one schema.

    Feature rows, labels and loc values are held as read-only numpy arrays.
    """

    def __init__(self, schema: AttributeSchema, features: np.ndarray, labels: np.ndarray):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if features.ndim != 2:
            raise SchemaError(f"features must be a 2-D matrix, got {features.ndim} dimensions")
        if features.shape[0] != labels.shape[0]:
            raise SchemaError("features and labels disagree on instance count")
        if features.shape[1] != len(schema.feature_names):
            raise SchemaError(
                f"expected {len(schema.feature_names)} features, got {features.shape[1]}")
        if (features[:, schema.loc_index] < 0).any():
            raise SchemaError("loc values must be non-negative")
        if not ((labels == CLEAN) | (labels == DEFECTIVE)).all():
            raise SchemaError("labels must be binary")
        features.setflags(write=False)
        labels.setflags(write=False)
        self.schema = schema
        self.features = features
        self.labels = labels

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def locs(self) -> np.ndarray:
        return self.features[:, self.schema.loc_index]

    @property
    def n_defective(self) -> int:
        return int(self.labels.sum())

    @property
    def defect_ratio(self) -> float:
        return self.n_defective / len(self) if len(self) else 0.0

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        return Dataset(self.schema, self.features[indices], self.labels[indices])


def _locate(header_lower: list[str], aliases, role: str) -> int:
    for alias in aliases:
        if alias in header_lower:
            return header_lower.index(alias)
    raise SchemaError(f"no {role} column found (accepted names: {', '.join(aliases)})")


def load_csv(path) -> Dataset:
    """Read one metrics CSV into a Dataset.

    The loc and label columns are found by name (LOC_ALIASES, LABEL_ALIASES),
    case-insensitively; identifier columns are dropped.  Empty header cells,
    missing, non-numeric and non-finite cells, and negative loc values, are
    rejected with their row and column.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: no header row") from None
        rows = list(reader)
    if "" in header:
        raise SchemaError(f"{path}: header column {header.index('') + 1} has no name")

    keep = [i for i, name in enumerate(header) if name.lower() not in IDENTIFIER_COLUMNS]
    names = tuple(header[i] for i in keep)
    header_lower = [n.lower() for n in names]
    if len(set(header_lower)) != len(header_lower):
        raise SchemaError(f"{path}: duplicate column names in header")

    loc_col = _locate(header_lower, LOC_ALIASES, "loc")
    label_col = _locate(header_lower, LABEL_ALIASES, "label")
    feature_cols = [i for i in range(len(names)) if i != label_col]
    schema = AttributeSchema(tuple(names[i] for i in feature_cols), feature_cols.index(loc_col))

    features = np.zeros((len(rows), len(feature_cols)))
    labels = np.zeros(len(rows), dtype=int)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise CsvParseError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
        cells = [row[i] for i in keep]
        values = []
        for c, cell in enumerate(cells):
            try:
                values.append(float(cell))
            except ValueError:
                raise CsvParseError(
                    f"{path}: non-numeric value {cell!r} at row {r + 2}, column {names[c]!r}"
                ) from None
            if not math.isfinite(values[-1]):
                raise CsvParseError(
                    f"{path}: non-finite value {cell!r} at row {r + 2}, column {names[c]!r}")
        if values[loc_col] < 0:
            raise SchemaError(f"{path}: negative loc value {cells[loc_col]!r} at row {r + 2}, "
                              f"column {names[loc_col]!r}")
        features[r] = [values[i] for i in feature_cols]
        labels[r] = DEFECTIVE if values[label_col] > 0 else CLEAN

    return Dataset(schema, features, labels)


def merge(parts: list[Dataset]) -> Dataset:
    """Concatenate datasets that share one schema, keeping input order."""
    if not parts:
        raise ValueError("merge needs at least one dataset")
    if any(p.schema != parts[0].schema for p in parts):
        raise SchemaError(f"schema mismatch: {[p.schema for p in parts]}")
    features = np.concatenate([p.features for p in parts])
    labels = np.concatenate([p.labels for p in parts])
    return Dataset(parts[0].schema, features, labels)


def random_split(data: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint two-way split; the first part gets round(fraction * n) instances.

    Rounding is floor(fraction * n + 0.5).  Both parts keep the original
    instance order.  Identical seeds give identical splits.
    """
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if not len(data):
        raise ValueError("cannot split an empty dataset")
    n = len(data)
    n_first = int(np.floor(fraction * n + 0.5))
    perm = np.random.default_rng(seed).permutation(n)
    first = np.sort(perm[:n_first])
    second = np.sort(perm[n_first:])
    return data.subset(first), data.subset(second)


def kfold(data: Dataset, k: int, seed: int) -> list[tuple[Dataset, Dataset]]:
    """k (train, holdout) pairs; every instance lands in exactly one holdout."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > len(data):
        raise ValueError(f"k={k} exceeds dataset size {len(data)}")
    perm = np.random.default_rng(seed).permutation(len(data))
    folds = np.array_split(perm, k)
    pairs = []
    for i, fold in enumerate(folds):
        rest = np.concatenate([f for j, f in enumerate(folds) if j != i])
        pairs.append((data.subset(np.sort(rest)), data.subset(np.sort(fold))))
    return pairs


def row_chunks(n_rows: int, row_terms: int) -> list[slice]:
    """In-order slices covering range(n_rows), each of at most CHUNK_TERMS terms.

    A chunk holds at least one row; zero rows give one empty slice.
    """
    step = max(1, CHUNK_TERMS // max(row_terms, 1))
    return [slice(start, start + step) for start in range(0, max(n_rows, 1), step)]


class Memo:
    """Work that calls on one dataset share (fitted models, CART split searches, SMOTE neighbour
    tables): `get` keeps at most `size` `entries`, made on a miss, least recently used first."""

    def __init__(self, data, size: int):
        self.data, self.size, self.entries = data, size, {}

    def get(self, key, make):
        self.entries[key] = self.entries.pop(key) if key in self.entries else make()
        if len(self.entries) > self.size:
            del self.entries[next(iter(self.entries))]
        return self.entries[key]

    def serving(self, data) -> "Memo":
        if data is not self.data:
            raise ValueError("a Memo serves its own dataset only")
        return self


def distance_chunks(queries: np.ndarray, points: np.ndarray, r: float):
    """(rows, distances) for each chunk of query rows: their Minkowski distances with power
    r to every point, taken CHUNK_TERMS terms at a time."""
    for rows in row_chunks(len(queries), points.size):
        terms = queries[rows, None, :] - points[None, :, :]
        # In place: a second chunk-sized temporary costs more than the arithmetic.
        np.abs(terms, out=terms)
        terms **= r
        yield rows, terms.sum(axis=2) ** (1.0 / r)


def nearest(queries: np.ndarray, points: np.ndarray, k: int, r: float) -> np.ndarray:
    """Indices of each query row's k nearest points under Minkowski distance with power r,
    equal distances broken by point index (the argsort is stable)."""
    return np.concatenate([np.argsort(distances, axis=1, kind="stable")[:, :k]
                           for _, distances in distance_chunks(queries, points, r)])


@dataclass
class Manifest:
    """Maps project name to its ordered version CSVs (oldest first, newest = test)."""

    projects: dict[str, list[Path]] = field(default_factory=dict)

    @classmethod
    def load(cls, path) -> "Manifest":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(raw, dict) or not raw:
            raise ConfigError(f"{path}: manifest must be a non-empty object")
        projects = {}
        for project, files in raw.items():
            if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
                raise ConfigError(f"{path}: project {project!r} must map to a list of files")
            projects[project] = [path.parent / f for f in files]
        return cls(projects)

    def assemble(self) -> dict[str, tuple[Dataset, Dataset]]:
        """Per project: merge all older versions as training, newest as testing."""
        out = {}
        for project, files in self.projects.items():
            if len(files) < 2:
                raise ConfigError(
                    f"project {project!r} needs at least two versions (training + testing)")
            versions = [load_csv(f) for f in files]
            for f, version in zip(files, versions):
                if not len(version):
                    raise ConfigError(f"project {project!r}: version file {f} has no data rows")
                if version.schema != versions[0].schema:
                    raise SchemaError(f"project {project!r}: version {f} has columns "
                                      f"{version.schema.feature_names}, but {files[0]} has "
                                      f"{versions[0].schema.feature_names}")
            out[project] = (merge(versions[:-1]), versions[-1])
        return out
