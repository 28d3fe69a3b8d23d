"""Differential evolution over mixed parameter spaces with early termination.

Candidates mutate by extrapolating between three other population members:
continuous and integer dimensions move to a + f*(b - c) trimmed to range,
categoricals resample from the three donors (a yes/no choice is a
categorical over (False, True)).  Each member is challenged by its mutant
every generation; a generation that fails to improve the best score costs
one life, and the search stops when life runs out.  Defaults follow np=10,
f=0.75, cr=0.3, life=5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import check_int

CONTINUOUS = "continuous"
INTEGER = "integer"
CATEGORICAL = "categorical"

# Improvements smaller than this are float noise, not progress.
IMPROVEMENT_EPS = 1e-12
# Hard cap for pathological objectives that keep improving forever.
MAX_GENERATIONS = 200


@dataclass(frozen=True)
class ParamSpec:
    """One tunable dimension: its kind, legal range or values, and default."""

    name: str
    kind: str
    lo: float = 0.0
    hi: float = 0.0
    values: tuple = ()
    default: Any = None

    def __post_init__(self):
        if self.kind in (CONTINUOUS, INTEGER):
            if not self.lo < self.hi:
                raise ValueError(f"{self.name}: need lo < hi, got [{self.lo}, {self.hi}]")
        elif self.kind != CATEGORICAL:
            raise ValueError(f"{self.name}: unknown kind {self.kind!r}")
        elif not self.values:
            raise ValueError(f"{self.name}: categorical needs a non-empty value list")

    def contains(self, value) -> bool:
        if self.kind == CONTINUOUS:
            return self.lo <= value <= self.hi
        if self.kind == INTEGER:
            return self.lo <= value <= self.hi and float(value).is_integer()
        return value in self.values

    def sample(self, rng: np.random.Generator):
        if self.kind == CONTINUOUS:
            return float(rng.uniform(self.lo, self.hi))
        if self.kind == INTEGER:
            return int(rng.integers(int(self.lo), int(self.hi) + 1))
        return self.values[int(rng.integers(0, len(self.values)))]

    def trim(self, raw: float):
        clamped = min(max(raw, self.lo), self.hi)
        if self.kind == CONTINUOUS:
            return float(clamped)
        # Round half away from zero.  With integer bounds, clamping first changes
        # no finite result, and an infinite raw (a huge f) cannot overflow.
        return int(math.floor(clamped + 0.5) if clamped >= 0 else math.ceil(clamped - 0.5))


@dataclass(frozen=True)
class ParamSpace:
    """Ordered, uniquely-named tuning dimensions."""

    specs: tuple[ParamSpec, ...]
    # Names no fit reads: candidates that differ only there can share a model.
    decision: frozenset = frozenset()

    def __post_init__(self):
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names: {names}")

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    def __getitem__(self, name: str) -> ParamSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def defaults(self) -> dict[str, Any]:
        return {s.name: s.default for s in self.specs}

    def validate(self, tunings: dict[str, Any]) -> None:
        for name, value in tunings.items():
            spec = self[name]
            if not spec.contains(value):
                bounds = spec.values if spec.kind == CATEGORICAL else (spec.lo, spec.hi)
                raise ValueError(f"parameter {name}={value!r} outside legal range {bounds}")


@dataclass
class Candidate:
    """One point in the space plus its score, once evaluated."""

    tunings: dict[str, Any]
    score: float | None = None


@dataclass(frozen=True)
class DEConfig:
    np: int = 10
    f: float = 0.75
    cr: float = 0.3
    life: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, low in (("np", 4), ("life", 1), ("seed", 0)):  # np: a target and three donors
            check_int(name, getattr(self, name), low)
        if isinstance(self.f, bool) or not 0 < self.f < math.inf:  # NaN fails too
            raise ValueError(f"f must be positive and finite, got {self.f!r}")
        if isinstance(self.cr, bool) or not 0 <= self.cr <= 1:
            raise ValueError(f"cr must be in [0, 1], got {self.cr!r}")


def _sample_population(space: ParamSpace, n: int, rng: np.random.Generator) -> list[Candidate]:
    return [Candidate({s.name: s.sample(rng) for s in space}) for _ in range(n)]


def extrapolate(target: Candidate, a: Candidate, b: Candidate, c: Candidate,
                space: ParamSpace, cfg: DEConfig, rng: np.random.Generator) -> Candidate:
    """Mutant of `target`: each dimension mutates with probability cr, else is kept.

    One uniformly chosen dimension always mutates (Storn-Price binomial
    crossover); without it, low cr on narrow spaces emits mostly clones of
    the target and the population stalls before it can converge.
    """
    if len({id(target), id(a), id(b), id(c)}) != 4:
        raise ValueError("target and donors a, b, c must be four distinct members")
    forced = int(rng.integers(0, len(space)))
    tunings = {}
    for k, spec in enumerate(space):
        name = spec.name
        if rng.random() >= cfg.cr and k != forced:
            tunings[name] = target.tunings[name]
        elif spec.kind == CATEGORICAL:
            donors = (a.tunings[name], b.tunings[name], c.tunings[name])
            tunings[name] = donors[int(rng.integers(0, 3))]
        else:
            raw = a.tunings[name] + cfg.f * (b.tunings[name] - c.tunings[name])
            tunings[name] = spec.trim(raw)
    return Candidate(tunings)


@dataclass
class DERun:
    """Everything a caller might audit about one optimisation run."""

    best: Candidate
    evaluations: int
    generations: int
    initial_scores: list[float]
    best_history: list[float]
    stop_reason: str  # "life", or "max_generations" when the cap ended a live search


def run_de(space: ParamSpace, objective: Callable[[Candidate], float], direction: str,
           cfg: DEConfig, seed_candidates: list[dict] | None = None,
           prepare: Callable[[list[Candidate]], None] | None = None) -> DERun:
    """Full DE loop returning the best candidate ever seen plus run accounting.

    `seed_candidates` are tunings planted at the front of the initial
    population (the harness uses slot 0 for the learner's defaults, which
    makes "tuning never loses to defaults on the tuning split" structural).
    `prepare`, if given, sees the initial population and then each
    generation's mutants once, before any of them is scored.  Mutants
    extrapolate from the previous population and scoring draws nothing from
    DE's generator, so a generation draws all its mutants first and the stream
    is the same either way.
    """
    if direction not in ("minimize", "maximize"):
        raise ValueError(f"direction must be minimize or maximize, got {direction!r}")
    # Lower keys are better.  Negation is exact, and min keeps the first of equal keys as
    # max does, so maximising keeps the scores' own comparisons and tie-breaks.
    sign = 1 if direction == "minimize" else -1
    key = (lambda candidate: sign * candidate.score)

    def scored(candidates: list[Candidate]) -> list[Candidate]:
        if prepare is not None:
            prepare(candidates)
        for candidate in candidates:
            candidate.score = float(objective(candidate))
        return candidates

    rng = np.random.default_rng(cfg.seed)
    population = _sample_population(space, cfg.np, rng)
    for i, tunings in enumerate(seed_candidates or []):
        space.validate(tunings)
        population[i] = Candidate(dict(tunings))
    best = min(scored(population), key=key)
    initial_scores, history = [c.score for c in population], [best.score]
    life, generation = cfg.life, 0
    while life > 0 and generation < MAX_GENERATIONS:
        generation += 1
        mutants = []
        for i, incumbent in enumerate(population):
            others = [j for j in range(cfg.np) if j != i]
            ai, bi, ci = rng.choice(others, size=3, replace=False)
            mutants.append(extrapolate(incumbent, population[ai], population[bi],
                                       population[ci], space, cfg, rng))
        pairs = list(zip(population, scored(mutants)))
        # A life is spent whenever the new population is no better than the
        # old one, i.e. no slot beat its incumbent beyond float noise.
        if not any(key(mutant) < key(incumbent) - IMPROVEMENT_EPS for incumbent, mutant in pairs):
            life -= 1
        population = [mutant if key(mutant) < key(incumbent) else incumbent
                      for incumbent, mutant in pairs]
        best = min(best, min(population, key=key), key=key)
        history.append(best.score)
    # The initial population and each generation score np candidates each.
    return DERun(best, cfg.np * (generation + 1), generation, initial_scores, history,
                 "max_generations" if life > 0 else "life")
