"""Experiment orchestration: version-based runs, tuning workflows, and reports.

A run walks (dataset x learner x repeat) cells, each seeded from the experiment seed
by derive_seed, so whole runs are byte-reproducible.  Tuned cells split the training
data 80/20 into new-training and tuning sets, let differential evolution pick
parameters by the goal score on the tuning set, with the learner's defaults planted
in its population, and score the winner's model once on the held-out test set.
README.md tells what a cell shares through dataset.Memo and how tuned cells split
between the caller and one forked helper, which sends its cells back in one message
(_run_cells).
"""

from __future__ import annotations

import csv
import io
import json
import os
import pickle
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import learners, smote, tuner
from .dataset import Dataset, Memo, kfold, random_split
from .errors import ConfigError, DegenerateDataError, check_int
from .metrics import GoalSpec, evaluate, goal as make_goal
from .smote import SmoteConfig

SMOTE_SPACE = tuner.ParamSpace((
    tuner.ParamSpec("k", tuner.INTEGER, 1, smote.K_MAX, default=5),
    tuner.ParamSpec("m", tuner.CATEGORICAL, values=smote.M_CHOICES, default=50),
    tuner.ParamSpec("r", tuner.CONTINUOUS, 0.1, 5.0, default=2.0),
))

# Share of the training data a tuned cell keeps for new training; DE scores
# candidates on the rest.
TUNE_FRACTION = 0.8

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Independent per-cell seed: splitmix64 finaliser over (seed, index)."""
    z = ((int(seed) * 0x9E3779B97F4A7C15) + index + 1) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & 0xFFFFFFFF


@dataclass
class ExperimentSpec:
    """One experiment: datasets resolved to (train, test) pairs, plus knobs."""

    datasets: dict[str, tuple[Dataset, Dataset]]
    learners: list[learners.LearnerSpec]
    goal: GoalSpec
    repeats: int = 1
    seed: int = 0
    folds: int = 10
    de: tuner.DEConfig | None = None

    def __post_init__(self):
        # folds >= 2: kfold needs a tuning fold and the rest to train on.
        for name, low in (("repeats", 1), ("seed", None), ("folds", 2)):
            check_int(name, getattr(self, name), low, ConfigError)
        if not self.datasets:
            raise ConfigError("no datasets configured")
        if not self.learners:
            raise ConfigError("no learners configured")
        kinds = [lspec.kind for lspec in self.learners]
        for kind in kinds:
            if kinds.count(kind) > 1:  # its rows would merge into one report cell
                raise ConfigError(f"learner {kind!r} is listed more than once")


@dataclass
class ResultRow:
    dataset: str
    method: str
    repeat: int
    score: float
    duration: float
    tunings: dict | None = None
    evaluations: int | None = None
    default_tune_score: float | None = None
    best_tune_score: float | None = None


# The JSON values each ResultRow annotation admits: an int is a float, a bool is neither.
# A float must also be finite: not NaN, not infinite, and no integer too large to convert.
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "dict": (dict,)}


def _median(values: list) -> float:
    """np.median of the values, exactly: the middle one, or the mean of the middle two."""
    ordered = sorted(map(float, values))
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


@dataclass
class ExperimentResult:
    goal: GoalSpec
    rows: list[ResultRow] = field(default_factory=list)
    aggregate_kind: str = "median"

    @property
    def datasets(self) -> list[str]:
        return list(dict.fromkeys(r.dataset for r in self.rows))

    @property
    def methods(self) -> list[str]:
        return list(dict.fromkeys(r.method for r in self.rows))

    def _per_cell(self, name: str, reducer) -> dict[tuple[str, str], float]:
        cells: dict[tuple[str, str], list[float]] = {}
        for r in self.rows:
            cells.setdefault((r.dataset, r.method), []).append(getattr(r, name))
        return {key: float(reducer(values)) for key, values in cells.items()}

    def aggregates(self) -> dict[tuple[str, str], float]:
        return self._per_cell("score", _median if self.aggregate_kind == "median" else np.mean)

    def runtimes(self) -> dict[tuple[str, str], float]:
        return self._per_cell("duration", _median)

    def to_json(self) -> str:
        payload = {
            "goal": self.goal.kind,
            "aggregate_kind": self.aggregate_kind,
            "rows": [vars(r) for r in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Parse `to_json` output; a malformed payload raises ValueError naming the field."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or not isinstance(payload.get("rows"), list):
            raise ValueError("results must be a JSON object with a 'rows' list")
        if payload.get("aggregate_kind") not in ("median", "mean"):
            raise ValueError(f"aggregate_kind {payload.get('aggregate_kind')!r} is not median/mean")
        try:
            rows = [ResultRow(**r) for r in payload["rows"]]
        except TypeError as exc:  # a row that is no object, or whose keys miss or add a field
            raise ValueError(f"bad row in 'rows': {exc}") from None
        for r in rows:
            for f in fields(ResultRow):
                value = getattr(r, f.name)
                if value is None and f.default is None:
                    continue
                kind = f.type.removesuffix(" | None")
                if type(value) not in _JSON_TYPES[kind] \
                        or kind == "float" and not abs(value) <= sys.float_info.max:
                    finite = " and finite" if kind == "float" else ""
                    raise ValueError(f"a row's {f.name} must be {kind}{finite}, got {value!r}")
            for name in ("repeat", "duration"):  # a repeat index and a time in seconds
                if (value := getattr(r, name)) < 0:
                    raise ValueError(f"a row's {name} must be non-negative, got {value!r}")
            if r.duration >= 1e9:  # about 32 years; `report --runtime` prints every digit
                raise ValueError(f"a row's duration must be below 1e9 seconds, got {r.duration!r}")
        g = make_goal(payload.get("goal"))
        if not rows:
            raise ValueError("'rows' must hold at least one row")
        return cls(g, rows, payload["aggregate_kind"])


def _score(model, data: Dataset, g: GoalSpec) -> float:
    """The goal score of a model's predictions on `data` (a tuning or held-out test set)."""
    predicted, _ = learners.predict_dataset(model, data)
    return evaluate(g, data.labels, predicted, data.locs)


# Tuned runs use at most this many processes.  Two were measured on a 2-CPU host:
# smotuned_nb's run_s fell to 0.69x, and tune_d2h's to 0.75x once _deal balanced its
# learners (round-robin left it at 1.03x).  Each further helper would hold about
# 30 MB more, and sched_getaffinity does not see a container's CPU quota; neither
# was measured.
_MAX_PROCESSES = 2

# Relative cost of one tuned cell of each learner kind: the seconds of the seed-era
# run_tuned baselines (d2h, n=1000 training rows, one process).  Today's code runs
# these cells far faster and in other proportions; the deal reads the figures only
# as weights.  The cost ignores dataset size, goal and workflow (an FFT cell under
# P_opt costs far more than under d2h), so it balances runs whose datasets are alike
# in size; a manifest of mixed sizes may deal worse.
_CELL_COST = {"random_forest": 270, "linear_svm": 9.3, "cart": 7.5, "fft": 6.3, "knn": 6.3,
              "logistic": 2.7, "naive_bayes": 0.08}


def _cpus() -> int:
    """The processes a tuned run may use: the CPUs this process may run on, at most 2.

    It is 1 without os.sched_getaffinity (not Linux), and while other Python threads
    run: a fork copies only the calling thread, so a lock another thread holds would
    stay held in every helper.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or threading.active_count() > 1:
        return 1
    return min(len(affinity(0)), _MAX_PROCESSES)


def _deal(costs: list[float], processes: int) -> list[list[int]]:
    """The cells each process runs, in index order; process 0 is the caller.

    Longest processing time first (Graham 1969): cells in order of (-cost, index) go
    each to the least-loaded process, the lowest-numbered on a tie.  Equal costs give
    the round-robin i % processes.
    """
    loads, owned = [0.0] * processes, [[] for _ in range(processes)]
    for i in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        p = loads.index(min(loads))
        loads[p] += costs[i]
        owned[p].append(i)
    return [sorted(cells) for cells in owned]


def _helper(run_cell, cells: list[int], write_end: int, parent: int) -> None:
    """A forked helper's whole life: run `cells`, then send {index: rows or exception} once.

    It stops at its first failing cell; once orphaned, it stops and sends nothing.  It
    leaves by os._exit, so the stdio buffers and atexit hooks it shares with its parent
    never run twice.
    """
    try:
        outcomes = {}
        for i in cells:
            if os.getppid() != parent:  # orphaned: nobody reads its pipe
                return
            try:
                outcomes[i] = run_cell(i)
            except Exception as exc:
                try:
                    outcomes[i] = pickle.loads(pickle.dumps(exc))
                except Exception:  # an exception that cannot cross the pipe
                    outcomes[i] = RuntimeError(f"{type(exc).__name__}: {exc}")
                break
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(outcomes))
    finally:
        os._exit(0)


def _run_cells(run_cell, costs: list[float], processes: int) -> list:
    """The rows of cells 0..n-1 in cell order, dealt by `costs` to `processes` processes.

    _deal gives each process its cells; if a fork fails, the caller also runs the cells
    of the helpers it could not make.  The caller then walks the cells in order and, at
    a helper's first cell, reads that helper's one message to its end.  The walk raises
    at the lowest failing cell, as a serial run does, so a helper whose cells all lie
    above it is never waited for.  Every helper is killed and reaped before this returns
    or raises.
    """
    n, owned = len(costs), _deal(costs, processes)
    outcomes = {}  # cell index -> its rows, or the exception it raised
    helpers = {}  # h -> (pid, the read end of its pipe)
    parent = os.getpid()
    try:
        for h in range(1, processes):
            fds = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError:  # at a process, memory or file limit
                for fd in fds:
                    os.close(fd)
                break
            read_end, write_end = fds
            if pid == 0:
                os.close(read_end)
                for _, fd in helpers.values():
                    os.close(fd)
                _helper(run_cell, owned[h], write_end, parent)
            os.close(write_end)
            helpers[h] = (pid, read_end)
        for i in sorted(i for h, cells in enumerate(owned) if h not in helpers for i in cells):
            try:
                outcomes[i] = run_cell(i)
            except Exception as exc:
                outcomes[i] = exc
                break
        owner = {i: h for h, cells in enumerate(owned) for i in cells}
        rows = []
        for i in range(n):
            if i not in outcomes and owner[i] in helpers:  # the helper's first cell
                with open(helpers[owner[i]][1], "rb", closefd=False) as pipe:
                    message = pipe.read()
                try:
                    outcomes.update(pickle.loads(message))
                except (EOFError, pickle.UnpicklingError):  # empty or cut short: it died
                    pass
            if i not in outcomes:
                raise ChildProcessError(f"a helper process ended before returning cell {i}")
            if isinstance(outcomes[i], Exception):
                raise outcomes[i]
            rows += outcomes[i]
        return rows
    finally:
        for pid, fd in helpers.values():
            os.kill(pid, 9)  # SIGKILL: a helper may be mid-cell, or blocked on a full pipe
            os.waitpid(pid, 0)
            os.close(fd)


def _run(spec: ExperimentSpec, body, tuned: bool = True, folds: int | None = None,
         suffix: str = "") -> ExperimentResult:
    """The one experiment loop: cell order, seeds, timing and rows of every workflow.

    Cell i of the (dataset x learner x repeat) walk is seeded derive_seed(spec.seed, i)
    and gives the row body(lspec, train, test, seed).  With `folds`, a cell is one
    (dataset, learner) pair whose training data kfold carves with the cell seed;
    fold f gives row f, body(lspec, (new_train, tune_set), test, derive_seed(seed, f)),
    and rows aggregate by mean, not median.  Tuned cells run on min(_cpus(), cells)
    processes, dealt by their learners' _CELL_COST (see _run_cells); untuned ones,
    which share split memos, run here.
    """
    if (spec.de is None) == tuned:
        raise ConfigError("tuned workflows need a DE configuration" if tuned
                          else "run_untuned takes a spec without a tuning section")
    if folds is not None and spec.repeats > 1:
        raise ConfigError(f"k-fold tuning takes repeats=1 (folds repeat it), got {spec.repeats}")
    for name, (train, _) in spec.datasets.items():
        if folds is not None and len(train) < folds:
            raise ConfigError(f"dataset {name!r} has {len(train)} training rows, "
                              f"fewer than folds={folds}")
        if tuned and folds is None and len(train) < 3:  # a smaller 80/20 split tunes on no rows
            raise ConfigError(f"dataset {name!r} has {len(train)} training rows; "
                              "an 80/20 tuning split needs at least 3")
    cells = [(name, train, test, lspec, repeat) for name, (train, test) in spec.datasets.items()
             for lspec in spec.learners for repeat in range(spec.repeats)]

    def run_cell(cell: int) -> list[ResultRow]:
        name, train, test, lspec, repeat = cells[cell]
        seed = derive_seed(spec.seed, cell)
        rows = []
        try:
            units = ([(repeat, train, seed)] if folds is None
                     else [(f, pair, derive_seed(seed, f))
                           for f, pair in enumerate(kfold(train, folds, seed))])
            for index, data, unit_seed in units:
                start = time.perf_counter()
                fields = body(lspec, data, test, unit_seed)
                rows.append(ResultRow(name, lspec.kind + suffix, index,
                                      duration=time.perf_counter() - start, **fields))
        except DegenerateDataError as exc:
            raise DegenerateDataError(f"dataset {name!r}: {exc}") from exc
        return rows

    rows = _run_cells(run_cell, [_CELL_COST[lspec.kind] for _, _, _, lspec, _ in cells],
                      min(_cpus(), len(cells)) if tuned else 1)
    return ExperimentResult(spec.goal, rows, "median" if folds is None else "mean")


def _de_cell(space, planted, fit_from, tune_set, test, g, de_cfg, seed,
             fit_together=None) -> dict:
    """Tune by DE from a population holding `planted`; score the winner's model on `test`.

    Each distinct candidate is scored once on `tune_set` by the model `fit_from(tunings)`
    makes, shared by candidates equal outside `space.decision`.  `fit_together(list of
    tunings) -> their models`, if given, first fits in one call each model a batch DE is
    about to score needs and no kept model covers.  At most de_cfg.np models are alive,
    plus de_cfg.np pending ones with `fit_together`.
    """
    calls = 0
    models = Memo(None, de_cfg.np - 1)  # from no one dataset: nothing calls serving
    scores = Memo(None, sys.maxsize)  # every distinct candidate's tuning score
    pending = {}  # fit key -> model fitted by fit_together, not yet used
    best = None  # (tuning score, fit key, model) of the first candidate to score best so far

    def score_key(tunings: dict) -> tuple:
        # Typed: 1 and 1.0 compare equal, but a fit need not treat them alike.
        return tuple((name, type(value), value) for name, value in sorted(tunings.items()))

    def fit_key(tunings: dict) -> tuple:
        return tuple(entry for entry in score_key(tunings) if entry[0] not in space.decision)

    def model_for(tunings: dict) -> tuple:
        key = fit_key(tunings)
        model = best[2] if best and best[1] == key else models.get(
            key, lambda: pending.pop(key) if key in pending else fit_from(tunings))
        return key, learners.decide(model, {name: tunings[name] for name in space.decision})

    def prepare(candidates: list) -> None:
        batch = {}  # fit key -> tunings, in candidate order
        for candidate in candidates:
            key = fit_key(candidate.tunings)
            covered = (score_key(candidate.tunings) in scores.entries
                       or (best and best[1] == key) or key in models.entries or key in pending)
            if not covered:
                batch.setdefault(key, candidate.tunings)
        if batch:
            pending.update(zip(batch, fit_together(list(batch.values()))))

    def score(tunings: dict) -> float:
        nonlocal best
        key, model = model_for(tunings)
        value = _score(model, tune_set, g)
        if best is None or g.better(value, best[0]):
            best = (value, key, model)
        return value

    def objective(candidate: tuner.Candidate) -> float:
        nonlocal calls
        calls += 1
        return scores.get(score_key(candidate.tunings), lambda: score(candidate.tunings))

    run = tuner.run_de(space, objective, g.direction, replace(de_cfg, seed=seed),
                       seed_candidates=[planted],
                       prepare=prepare if fit_together else None)
    assert calls == run.evaluations
    # run.best normally is `best`; were it not, model_for would find or fit its model.
    return {
        "score": _score(model_for(run.best.tunings)[1], test, g),
        "tunings": dict(run.best.tunings),
        "evaluations": run.evaluations,
        "default_tune_score": run.initial_scores[0],
        "best_tune_score": run.best.score,
    }


def _tune_learner(spec, lspec, new_train, tune_set, test, seed) -> dict:
    """DE over the learner's own parameter space, its defaults planted."""
    memo = Memo(new_train, learners.SPLIT_MEMO_NODES)

    def fit_together(batch):
        return learners.fit_many([learners.LearnerSpec(lspec.kind, tunings) for tunings in batch],
                                 new_train, seed, goal=spec.goal, memo=memo)

    # Only lockstep kinds batch: a cart cell's pending fits would hold np more live models.
    return _de_cell(learners.param_space(lspec.kind), lspec.resolved(),
                    lambda tunings: learners.fit(learners.LearnerSpec(lspec.kind, tunings),
                                                 new_train, seed, goal=spec.goal, memo=memo),
                    tune_set, test, spec.goal, spec.de, seed,
                    fit_together if lspec.kind in learners.LOCKSTEP_KINDS else None)


def run_untuned(spec: ExperimentSpec) -> ExperimentResult:
    """Fit each learner with its given parameters; no tuning stage."""
    memo = Memo(None, 0)

    def body(lspec, train, test, seed):
        nonlocal memo
        if memo.data is not train:  # cells fitting on one training set share its split memo
            memo = Memo(train, learners.SPLIT_MEMO_NODES)
        model = learners.fit(lspec, train, seed, goal=spec.goal, memo=memo)
        return {"score": _score(model, test, spec.goal)}

    return _run(spec, body, tuned=False)


def run_tuned(spec: ExperimentSpec) -> ExperimentResult:
    """Repeat (split 80/20, tune by DE, refit, test) and aggregate by median."""
    return _run(spec, lambda lspec, train, test, seed: _tune_learner(
        spec, lspec, *random_split(train, TUNE_FRACTION, seed), test, seed))


def run_kfold_tuned(spec: ExperimentSpec) -> ExperimentResult:
    """Tune once per fold (fold = tuning data, rest = new training); report means."""
    return _run(spec, lambda lspec, fold, test, seed:
                _tune_learner(spec, lspec, *fold, test, seed), folds=spec.folds)


def run_smotuned(spec: ExperimentSpec) -> ExperimentResult:
    """Tune the SMOTE preprocessor (k, m, r) by DE; learner parameters stay fixed."""
    def body(lspec, train, test, seed):
        new_train, tune_set = random_split(train, TUNE_FRACTION, seed)
        # 2np tables (rejected DE trials push the population's r out of np), plus the pairs.
        memo = Memo(new_train, 2 * spec.de.np + 1)

        def fit_from(tunings):
            # No shared split memo: every candidate fits on its own rebalanced data.
            cfg = SmoteConfig(tunings["k"], tunings["m"], tunings["r"], seed)
            return learners.fit(lspec, smote.apply(new_train, cfg, memo), seed, goal=spec.goal)

        return _de_cell(SMOTE_SPACE, SMOTE_SPACE.defaults(), fit_from, tune_set, test,
                        spec.goal, spec.de, seed)

    return _run(spec, body, suffix="+smotuned")


def report(result: ExperimentResult, fmt: str = "table",
           include_runtime: bool | None = None) -> str:
    """Render the aggregate grid; scores print x100 at one decimal.

    Runtime is reported for tuned runs by default and can be forced either
    way; deterministic reports need include_runtime=False.
    """
    if not result.rows:
        raise ValueError("cannot report an empty result")
    if fmt not in ("table", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    if include_runtime is None:
        include_runtime = any(r.tunings is not None for r in result.rows)  # a tuned run
    aggregates, runtimes = result.aggregates(), result.runtimes()
    # Every rendering reads these cells: per dataset, one (score x100, is best,
    # runtime) per method, or None where the result has no row for it.  The
    # first method with the best score is the best.
    cells = {}
    for dataset in result.datasets:
        present = [m for m in result.methods if (dataset, m) in aggregates]
        best = (min if result.goal.direction == "minimize" else max)(
            present, key=lambda m: aggregates[(dataset, m)])
        cells[dataset] = [None if m not in present else
                          (f"{aggregates[(dataset, m)] * 100:.1f}", m == best,
                           f"{runtimes[(dataset, m)]:.3f}")
                          for m in result.methods]

    if fmt == "csv":
        out, n_cols = io.StringIO(), 4 + include_runtime
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["dataset", "method", "score", "best", "runtime_seconds"][:n_cols])
        for dataset, row in cells.items():
            for method, cell in zip(result.methods, row):
                if cell is not None:
                    score, is_best, runtime = cell
                    writer.writerow([dataset, method, score, int(is_best), runtime][:n_cols])
        return out.getvalue()

    n_repeats = max(Counter((r.dataset, r.method) for r in result.rows).values())
    width = max(7, *(len(m) for m in result.methods))
    name_width = max(7, *(len(d) for d in result.datasets))

    def grid(render) -> list[str]:
        return [" | ".join([dataset.ljust(name_width)]
                           + [("-" if cell is None else render(*cell)).rjust(width)
                              for cell in row])
                for dataset, row in cells.items()]

    lines = [f"goal: {result.goal.kind} ({result.goal.direction}); "
             f"{result.aggregate_kind} over {n_repeats} repeats; scores x100, * = best"]
    lines.append(" | ".join(["dataset".ljust(name_width)]
                            + [m.rjust(width) for m in result.methods]))
    lines.append("-+-".join(["-" * name_width] + ["-" * width] * len(result.methods)))
    lines += grid(lambda score, is_best, runtime: score + ("*" if is_best else ""))
    if include_runtime:
        lines += ["", "runtime seconds (median per dataset x method)"]
        lines += grid(lambda score, is_best, runtime: runtime)
    return "\n".join(lines) + "\n"
