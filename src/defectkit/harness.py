"""Experiment orchestration: version-based runs, tuning workflows, and reports.

A run walks (dataset x learner x repeat) cells.  Tuned cells split the
training data 80/20 into new-training and tuning sets, let differential
evolution pick parameters by the goal score on the tuning set, and score
the winner's model, fitted on new-training, once on the held-out test set.
Each distinct candidate is scored once, and candidates that differ only in
decision-time tunings (`threshold`, knn's `k`) share one fit.  A cell keeps its
shared work in a dataset.Memo: at most `np` (the DE population size) models, a
tuned cell's CART split searches, and a smotuned cell's SMOTE neighbour tables
and their pair differences.  Untuned cells on one training set share its split memo.
The learner's defaults are planted in DE's initial population, so the tuned
score on the tuning split can never lose to the defaults there.  All
randomness flows from the experiment seed through a documented mixing
function, which makes whole runs byte-reproducible.

Process model: a tuned cell depends on nothing outside itself, so on Linux,
while no other Python thread runs, tuned runs use P = min(CPUs this process
may run on, 2, cells) processes.  _deal assigns the cells longest first by a
fixed cost per learner kind, which ignores dataset size and goal, each to the
least-loaded process; with equal costs it is a round-robin.  On tune_d2h's
five learners the tuned SVM and CART so land in different processes.  The
caller is process 0; helper h, made by os.fork, runs its cells in index order
and pickles each cell's rows, or its first error, back through a pipe, which
the caller empties after each of its own cells.  The deal reads only the
spec, never a clock, so a run puts the same cells in the caller every time.
Rows merge in cell order, a failure raises the error of the lowest failing
cell, and every helper is reaped before the run returns, so the output and
errors are those of a serial run.  Cell durations are wall times taken while
the processes share the CPUs.  Untuned cells share split memos and stay in
the caller.
"""

from __future__ import annotations

import csv
import io
import json
import os
import pickle
import struct
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import learners, smote, tuner
from .dataset import Dataset, Memo, kfold, random_split
from .errors import ConfigError, DegenerateDataError
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
    z = ((seed * 0x9E3779B97F4A7C15) + index + 1) & _MASK64
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
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if self.folds < 2:  # kfold needs a tuning fold and the rest to train on
            raise ConfigError(f"folds must be at least 2, got {self.folds!r}")
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

# Relative seconds of one tuned cell of each learner kind: run_tuned under d2h on
# n=1000 training rows, one process.  The cost ignores dataset size, goal and
# workflow (an FFT cell under P_opt costs far more than under d2h), so it balances
# runs whose datasets are alike in size; a manifest of mixed sizes may deal worse.
_CELL_COST = {"random_forest": 270, "linear_svm": 9.3, "cart": 7.5, "fft": 6.3, "knn": 6.3,
              "logistic": 2.7, "naive_bayes": 0.08}

# A helper sends each cell as one frame: the byte length of a pickle, then the pickle.
_FRAME = struct.Struct("<Q")


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
    """A forked helper's whole life: run `cells`, send a frame (index, rows or exception) each.

    It stops at its first failing cell, or once orphaned, and leaves by os._exit, so
    the stdio buffers and atexit hooks it shares with its parent never run twice.
    """
    try:
        with os.fdopen(write_end, "wb") as pipe:
            for i in cells:
                if os.getppid() != parent:  # orphaned: nobody reads its pipe
                    break
                failed = False
                try:
                    frame = pickle.dumps((i, run_cell(i)))
                except Exception as exc:
                    failed = True
                    try:
                        frame = pickle.dumps((i, exc))
                        pickle.loads(frame)
                    except Exception:  # an exception that cannot cross the pipe
                        frame = pickle.dumps((i, RuntimeError(f"{type(exc).__name__}: {exc}")))
                pipe.write(_FRAME.pack(len(frame)) + frame)
                pipe.flush()
                if failed:
                    break
    finally:
        os._exit(0)


class _Pipe:
    """The caller's end of a helper's pipe, and the bytes read from it so far."""

    def __init__(self, fd: int):
        self.fd, self.buffer, self.open = fd, bytearray(), True
        os.set_blocking(fd, False)

    def _read(self) -> None:
        chunk = os.read(self.fd, 1 << 16)
        self.buffer += chunk
        self.open = bool(chunk)

    def drain(self) -> None:
        """Read what the pipe holds without waiting, so the helper never waits on a full pipe."""
        try:
            while self.open:
                self._read()
        except BlockingIOError:
            pass

    def frame(self):
        """The next (index, outcome) frame, waiting for it; None if the helper ended first."""
        os.set_blocking(self.fd, True)
        while True:
            if len(self.buffer) >= _FRAME.size:
                end = _FRAME.size + _FRAME.unpack_from(self.buffer)[0]
                if len(self.buffer) >= end:
                    frame = pickle.loads(self.buffer[_FRAME.size:end])
                    del self.buffer[:end]
                    return frame
            if not self.open:  # finished, or died mid-frame
                return None
            self._read()


def _run_cells(run_cell, costs: list[float], processes: int) -> list:
    """The rows of cells 0..n-1 in cell order, dealt by `costs` to `processes` processes.

    _deal gives each process its cells; if a fork fails, the caller also runs the cells
    of the helpers it could not make.  A failure raises the exception of the lowest
    failing cell, as a serial run does.  Every helper is killed and reaped before this
    returns or raises.
    """
    n, owned = len(costs), _deal(costs, processes)
    outcomes = {}  # cell index -> its rows, or the exception it raised
    helpers = {}  # h -> (pid, its _Pipe)
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
                for _, pipe in helpers.values():
                    os.close(pipe.fd)
                _helper(run_cell, owned[h], write_end, parent)
            os.close(write_end)
            helpers[h] = (pid, _Pipe(read_end))
        stop = n  # the lowest failing cell seen so far
        for i in sorted(i for h, cells in enumerate(owned) if h not in helpers for i in cells):
            try:
                outcomes[i] = run_cell(i)
            except Exception as exc:
                outcomes[i], stop = exc, i
                break
            for _, pipe in helpers.values():
                pipe.drain()
        # Cells from `stop` on cannot change what a serial run returns or raises.
        for h, (_, pipe) in helpers.items():
            for cell in owned[h]:
                if cell >= stop:
                    break
                frame = pipe.frame()
                if frame is None:
                    break
                i, outcome = frame
                outcomes[i] = outcome
                if isinstance(outcome, Exception):
                    stop = i
                    break
        rows = []
        for i in range(n):
            if i not in outcomes:
                raise ChildProcessError(f"a helper process ended before returning cell {i}")
            if isinstance(outcomes[i], Exception):
                raise outcomes[i]
            rows += outcomes[i]
        return rows
    finally:
        for pid, pipe in helpers.values():
            os.kill(pid, 9)  # SIGKILL: a helper may be mid-cell, or blocked on a full pipe
            os.waitpid(pid, 0)
            os.close(pipe.fd)


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


def _de_cell(space, planted, fit_from, tune_set, test, g, de_cfg, seed) -> dict:
    """Tune by DE, take the winner's model, score it once on the test set.

    DE searches `space` from a population holding `planted`; each distinct
    candidate becomes a model through `fit_from(tunings)` and is scored once on
    `tune_set` (a repeat, say a trimmed value drawn again, counts as an evaluation
    but neither fits nor predicts).  Candidates with equal fit-time tunings (all
    but `space.decision`) share one model, whose decision-time tunings are set
    before each scoring; the cell keeps the de_cfg.np most recently used models.
    """
    calls = 0
    models = Memo(None, de_cfg.np)  # its models come from no one dataset: nothing calls serving
    scores = Memo(None, sys.maxsize)  # every distinct candidate's tuning score

    def model_for(tunings: dict) -> learners.Model:
        # Typed: 1 and 1.0 compare equal, but a fit need not treat them alike.
        key = tuple((name, type(value), value) for name, value in sorted(tunings.items())
                    if name not in space.decision)
        model = models.get(key, lambda: fit_from(tunings))
        return learners.decide(model, {name: tunings[name] for name in space.decision})

    def objective(candidate: tuner.Candidate) -> float:
        nonlocal calls
        calls += 1
        key = tuple((name, type(value), value) for name, value in sorted(candidate.tunings.items()))
        return scores.get(key, lambda: _score(model_for(candidate.tunings), tune_set, g))

    run = tuner.run_de(space, objective, g.direction, replace(de_cfg, seed=seed),
                       seed_candidates=[planted])
    assert calls == run.evaluations
    return {
        "score": _score(model_for(run.best.tunings), test, g),
        "tunings": dict(run.best.tunings),
        "evaluations": run.evaluations,
        "default_tune_score": run.initial_scores[0],
        "best_tune_score": run.best.score,
    }


def _tune_learner(spec, lspec, new_train, tune_set, test, seed) -> dict:
    """DE over the learner's own parameter space, its defaults planted."""
    memo = Memo(new_train, learners.SPLIT_MEMO_NODES)
    return _de_cell(learners.param_space(lspec.kind), lspec.resolved(),
                    lambda tunings: learners.fit(learners.LearnerSpec(lspec.kind, tunings),
                                                 new_train, seed, goal=spec.goal, memo=memo),
                    tune_set, test, spec.goal, spec.de, seed)


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
        best = present[0]
        for m in present[1:]:
            if result.goal.better(aggregates[(dataset, m)], aggregates[(dataset, best)]):
                best = m
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
