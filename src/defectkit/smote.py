"""Minority-class synthesis along nearest-neighbour segments, plus undersampling.

Synthetic instances sit at x + u*(nn - x) for a random minority seed x, one
of its k nearest minority neighbours nn (Minkowski distance with power r),
and u uniform in [0, 1].  The m parameter sets the target minority count as
a percent of the original training size: m=50 balances the classes exactly
(the majority is undersampled to make room), m >= 100 only synthesises.
Tuning k, m, r with differential evolution is what the harness calls a
"smotuned" run.  Each synthetic row draws a minority index, a neighbour rank
and u, in that order, from default_rng(cfg.seed); the majority undersample
comes last.  `apply` reproduces that stream in one vectorised pass at any k;
calls that share a dataset.Memo share the minority rows' |x_i - x_j| for each pair
i < j (up to CHUNK_TERMS terms) and rank the rows once per power r from them.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import CHUNK_TERMS, Dataset, Memo, distance_chunks
from .errors import DegenerateDataError

M_CHOICES = (50, 100, 200, 400)
K_MAX = 20  # SMOTE's k ceiling: the most neighbours a config may ask for


@dataclass(frozen=True)
class SmoteConfig:
    k: int = 5
    m: int = 50
    r: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)) \
                or not 1 <= self.k <= K_MAX:
            raise ValueError(f"k must be an integer in [1, {K_MAX}], got {self.k!r}")
        if self.m not in M_CHOICES:
            raise ValueError(f"m must be one of {M_CHOICES}, got {self.m}")
        if type(self.r) is bool or not isinstance(self.r, numbers.Real) or not 0.1 <= self.r <= 5:
            raise ValueError(f"r must be a real number in [0.1, 5], got {self.r!r}")
        if type(self.seed) is bool or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def _segment_draws(rng: np.random.Generator, n_points: int, k: int, count: int):
    """`count` rounds of rng.integers(0, n_points), rng.integers(0, k), rng.uniform(), as arrays.

    numpy's Lemire draws map a 32-bit x to (x * n) >> 32, taking the low, then the high half of
    a 64-bit word; uniform() is (w >> 11) * 2**-53 of a word of its own.  At k == 1 the rank
    draw reads nothing, so two rounds share one index word (words S, U, U) and an odd count
    leaves the last high half buffered.  A rejected draw or a buffered start draws by scalars.
    """
    saved = rng.bit_generator.state
    if not saved["has_uint32"]:
        d = 1 + (k > 1)  # index draws per round
        is_u = np.tile([False, True, True][:4 - d], count)[:count + (d * count + 1) // 2]
        words = rng.bit_generator.random_raw(len(is_u))
        halves = np.stack([words[~is_u] & 0xFFFF_FFFF, words[~is_u] >> 32], axis=1).ravel()
        bounds = np.array([n_points, k][:d], dtype=np.uint64)
        scaled = halves[:d * count].reshape(count, d) * bounds
        if ((scaled & 0xFFFF_FFFF) >= (2**32 - bounds) % bounds).all():
            if len(halves) > d * count:
                rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1,
                                           "uinteger": int(halves[-1])}
            draws = (scaled >> 32).astype(np.int64)
            return draws[:, 0], draws[:, -1] * (k > 1), (words[is_u] >> 11) * 2.0**-53
        rng.bit_generator.state = saved
    draws = np.array([(rng.integers(0, n_points), rng.integers(0, k), rng.uniform())
                      for _ in range(count)]).reshape(count, 3).T
    return draws[0].astype(np.int64), draws[1].astype(np.int64), draws[2]


def neighbour_table(points: np.ndarray, k: int, r: float, memo: Memo) -> np.ndarray:
    """Each point's k nearest other points (Minkowski power r, ties by index).  Calls on one
    memo of these points share their pair differences up to CHUNK_TERMS terms, else chunk."""
    m = len(points)
    if m * (m - 1) // 2 * points.shape[1] <= CHUNK_TERMS:  # |p_i - p_j| for each i < j, in order
        pairs, upper = memo.get("pairs", lambda: (np.concatenate(
            [np.abs(points[i] - points[i + 1:]) for i in range(m - 1)]), ~np.tri(m, dtype=bool)))
        distances = np.full((m, m), np.inf)
        distances[upper] = (pairs ** r).sum(axis=1) ** (1.0 / r)
        distances.T[upper] = distances[upper]
        return np.argsort(distances, axis=1, kind="stable")[:, :k]
    tables = []
    for rows, distances in distance_chunks(points, points, r):
        np.fill_diagonal(distances[:, rows], np.inf)  # each point's distance to itself
        tables.append(np.argsort(distances, axis=1, kind="stable")[:, :k])
    return np.concatenate(tables)


def apply(data: Dataset, cfg: SmoteConfig, memo: Memo | None = None) -> Dataset:
    """Rebalanced copy of the data; the input dataset is never touched.

    Output keeps the surviving original instances in their original order and
    appends the synthetic minority instances after them.  Calls on `data` may share a `memo`.
    """
    memo = (memo or Memo(data, 1)).serving(data)
    labels = data.labels
    counts = np.bincount(labels, minlength=2)
    if counts.min() == 0:
        raise DegenerateDataError("both classes must be present to rebalance")
    minority = 1 if counts[1] <= counts[0] else 0  # ties treat defective as minority
    minority_idx = np.nonzero(labels == minority)[0]
    majority_idx = np.nonzero(labels != minority)[0]
    if len(minority_idx) < 2:
        raise DegenerateDataError("need at least 2 minority instances to interpolate")

    k = cfg.k
    if k >= len(minority_idx):
        k = len(minority_idx) - 1
        warnings.warn(f"k={cfg.k} clamped to {k}: only {len(minority_idx)} minority instances")

    n = len(data)
    target_minority = int(np.floor(cfg.m / 100 * n + 0.5))
    n_synthetic = max(0, target_minority - len(minority_idx))
    if target_minority < n:
        keep_majority = min(len(majority_idx), n - target_minority)
    else:
        # No amount of undersampling keeps the total at n once the minority
        # target alone reaches it; keep the majority rather than erase it.
        keep_majority = len(majority_idx)

    rng = np.random.default_rng(cfg.seed)
    minority_points = data.features[minority_idx]
    # One min(K_MAX, minority - 1)-nearest table per typed r (1 and 1.0 are separate keys); a
    # stable argsort makes each k-nearest table a prefix of it.
    neighbours = memo.get((type(cfg.r), cfg.r), lambda: neighbour_table(
        minority_points, min(K_MAX, len(minority_idx) - 1), cfg.r, memo))[:, :k]

    seed_pos, nn_rank, u = _segment_draws(rng, len(minority_idx), k, n_synthetic)
    base, synthetic = minority_points[seed_pos], minority_points[neighbours[seed_pos, nn_rank]]
    synthetic -= base  # base + u * (nn - base), in place on the gathered copy
    synthetic *= u[:, None]
    synthetic += base

    if keep_majority < len(majority_idx):
        kept = np.sort(rng.choice(majority_idx, size=keep_majority, replace=False))
    else:
        kept = majority_idx
    originals = np.sort(np.concatenate([minority_idx, kept]))

    features = np.concatenate([data.features[originals], synthetic])
    new_labels = np.concatenate([labels[originals],
                                 np.full(n_synthetic, minority, dtype=int)])
    return Dataset(data.schema, features, new_labels)
