"""Spans around calls into each defectkit module, and the per-layer metrics they give.

The tracer measures the program from outside: it replaces a public function
at the name its caller looks up (`harness.evaluate`, not `metrics.evaluate`,
because harness binds the name at import) with a wrapper that records one
span per call.  A span holds its name, start, end, parent span and run id,
plus a few attributes read from the call's arguments and result.  Spans stay
in memory and are written as JSON lines when the run ends.

Bookkeeping done after a call returns (hashing training data, reading sizes)
is stored as the span's `overhead`, so a parent's self time, its duration
minus the part covered by its children, excludes the tracer's own work.
"""

from __future__ import annotations

import hashlib
import json
import time
import weakref
from collections import defaultdict

import numpy as np

LEARNER_KINDS = ("cart", "random_forest", "naive_bayes", "logistic", "knn", "linear_svm", "fft")
GOALS = ("p_opt", "dist2heaven")
RUNNERS = ("run_untuned", "run_tuned", "run_kfold_tuned", "run_smotuned")
# Counters that two traced runs of one seed must reproduce exactly.
EXACT_COUNTERS = ("tuner.evaluations", "learners.fit.calls", "fft.evaluate.calls",
                  "metrics.evaluate.calls.p_opt", "metrics.evaluate.calls.dist2heaven",
                  "smote.rows_synth")


def _fingerprint(data) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(data.features).tobytes())
    digest.update(np.ascontiguousarray(data.labels).tobytes())
    return digest.hexdigest()


def _minority(labels) -> int:
    counts = np.bincount(labels, minlength=2)
    return 1 if counts[1] <= counts[0] else 0


class Tracer:
    """Records spans for one run; `install` patches the defectkit call sites."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._knn_train: dict[int, tuple[weakref.ref, int]] = {}

    def wrap(self, name: str, fn, describe=None):
        """`fn` with one span per call; `describe(result, *args, **kwargs)` adds attributes."""
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if describe is not None:
                span.update(describe(result, *args, **kwargs))
                span["overhead"] = time.perf_counter() - span["end"]
            return result
        return traced

    def install(self) -> None:
        import defectkit.cli as cli
        import defectkit.dataset as dataset
        import defectkit.fft as fft
        import defectkit.harness as harness
        import defectkit.learners as learners
        import defectkit.smote as smote
        import defectkit.tuner as tuner

        def evaluate_via(caller):
            return lambda result, g, *a, **k: {"goal": g.kind, "via": caller}

        def describe_fit(model, spec, data, seed, *a, **k):
            if spec.kind == "knn":
                self._knn_train[id(model)] = (weakref.ref(model), len(data))
            params = json.dumps(spec.resolved(), sort_keys=True, default=str)
            return {"kind": spec.kind,
                    "key": f"{spec.kind}|{params}|{_fingerprint(data)}|{seed}"}

        def describe_predict(result, model, data, *a, **k):
            attrs = {"kind": model.kind, "rows": len(data)}
            ref, n_train = self._knn_train.get(id(model), (None, 0))
            if ref is not None and ref() is model:
                attrs["knn_bytes"] = len(data) * n_train * data.features.shape[1] * 8
            return attrs

        def describe_smote(result, data, cfg, *a, **k):
            minority = _minority(data.labels)
            n_minority = int((data.labels == minority).sum())
            return {"rows_synth": int((result.labels == minority).sum()) - n_minority,
                    "neighbour_bytes": n_minority ** 2 * data.features.shape[1] * 8}

        def describe_objective(score, candidate):
            return {"tunings": json.dumps(candidate.tunings, sort_keys=True, default=str)}

        def describe_run_de(run, *a, **k):
            stop = "max_generations" if run.generations >= tuner.MAX_GENERATIONS else "life"
            return {"evaluations": run.evaluations, "generations": run.generations,
                    "stop": stop}

        run_de = tuner.run_de

        def traced_run_de(space, objective, *args, **kwargs):
            return run_de(space, self.wrap("tuner.objective", objective, describe_objective),
                          *args, **kwargs)

        tuner.run_de = self.wrap("tuner.run_de", traced_run_de, describe_run_de)
        dataset.load_csv = self.wrap("dataset.load_csv", dataset.load_csv,
                                     lambda result, *a, **k: {"rows": len(result)})
        harness.random_split = self.wrap("dataset.random_split", harness.random_split)
        harness.kfold = self.wrap("dataset.kfold", harness.kfold)
        harness.evaluate = self.wrap("metrics.evaluate", harness.evaluate,
                                     evaluate_via("harness"))
        fft.evaluate = self.wrap("metrics.evaluate", fft.evaluate, evaluate_via("fft"))
        fft.fit = self.wrap("fft.fit", fft.fit)
        learners.fit = self.wrap("learners.fit", learners.fit, describe_fit)
        learners.predict_dataset = self.wrap("learners.predict", learners.predict_dataset,
                                             describe_predict)
        smote.apply = self.wrap("smote.apply", smote.apply, describe_smote)
        for runner in RUNNERS:
            setattr(cli, runner, self.wrap(f"harness.{runner}", getattr(cli, runner)))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def tail_percentile(n: int) -> float:
    """Highest of p99.9, p99, p90 with at least ten samples beyond it, else p50."""
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def layer_metrics(spans: list[dict], cell_durations: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced run's spans."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def duration(span):
        return span["end"] - span["start"]

    def total(name):
        return sum(duration(s) for s in by_name[name])

    own = _self_times(spans)

    def self_time(name):
        return sum(own[s["id"]] for s in by_name[name])

    def median(values, scale=1.0):
        return float(np.median(values)) * scale if len(values) else 0.0

    m = {}
    m["dataset.load_csv.s"] = (total("dataset.load_csv"), "s")
    m["dataset.load_csv.rows"] = (sum(s["rows"] for s in by_name["dataset.load_csv"]), "count")
    m["dataset.split.s"] = (total("dataset.random_split") + total("dataset.kfold"), "s")

    m["harness.cells"] = (len(cell_durations), "count")
    m["harness.cell_s.p50"] = (median(cell_durations), "s")
    m["harness.self_s"] = (sum(self_time(f"harness.{r}") for r in RUNNERS), "s")

    runs = by_name["tuner.run_de"]
    objective = [duration(s) * 1e3 for s in by_name["tuner.objective"]]
    evaluations = sum(s["evaluations"] for s in runs)
    distinct = sum(len({c["tunings"] for c in children[s["id"]]}) for s in runs)
    m["tuner.runs"] = (len(runs), "count")
    m["tuner.evaluations"] = (evaluations, "count")
    m["tuner.generations"] = (sum(s["generations"] for s in runs), "count")
    m["tuner.max_generation_stops"] = (sum(s["stop"] == "max_generations" for s in runs),
                                       "count")
    m["tuner.self_s"] = (self_time("tuner.run_de"), "s")
    m["tuner.objective_ms.p50"] = (median(objective), "ms")
    m["tuner.objective_ms.tail"] = (
        float(np.percentile(objective, tail_percentile(len(objective)))) if objective else 0.0,
        "ms")
    m["tuner.distinct_ratio"] = (distinct / evaluations if evaluations else 0.0, "ratio")

    fits = by_name["learners.fit"]
    predicts = by_name["learners.predict"]
    m["learners.fit.calls"] = (len(fits), "count")
    m["learners.fit.distinct_ratio"] = (len({s["key"] for s in fits}) / len(fits) if fits
                                        else 0.0, "ratio")
    for kind in LEARNER_KINDS:
        m[f"learners.fit.s.{kind}"] = (sum(duration(s) for s in fits if s["kind"] == kind), "s")
    m["learners.predict.calls"] = (len(predicts), "count")
    m["learners.predict.s"] = (total("learners.predict"), "s")
    m["learners.predict.rows"] = (sum(s["rows"] for s in predicts), "count")
    m["learners.knn_bytes.max"] = (max((s.get("knn_bytes", 0) for s in predicts), default=0),
                                   "bytes")

    fft_fits = [duration(s) * 1e3 for s in by_name["fft.fit"]]
    evaluations_by_goal = defaultdict(list)
    for s in by_name["metrics.evaluate"]:
        evaluations_by_goal[s["goal"]].append(duration(s))
    m["fft.fit.calls"] = (len(fft_fits), "count")
    m["fft.fit.ms.p50"] = (median(fft_fits), "ms")
    m["fft.fit.self_s"] = (self_time("fft.fit"), "s")
    m["fft.evaluate.calls"] = (sum(s["via"] == "fft" for s in by_name["metrics.evaluate"]),
                               "count")
    for g in GOALS:
        times = evaluations_by_goal[g]
        m[f"metrics.evaluate.calls.{g}"] = (len(times), "count")
        m[f"metrics.evaluate.s.{g}"] = (sum(times), "s")
        m[f"metrics.evaluate.us.p50.{g}"] = (median(times, 1e6), "us")

    applies = by_name["smote.apply"]
    m["smote.apply.calls"] = (len(applies), "count")
    m["smote.apply.s"] = (total("smote.apply"), "s")
    m["smote.apply.ms.p50"] = (median([duration(s) for s in applies], 1e3), "ms")
    m["smote.rows_synth"] = (sum(s["rows_synth"] for s in applies), "count")
    m["smote.neighbour_bytes.max"] = (max((s["neighbour_bytes"] for s in applies), default=0),
                                      "bytes")
    return m


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: its duration minus what its children (and their
    bookkeeping) cover."""
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += (span["end"] - span["start"]
                                        + span.get("overhead", 0.0))
    return {span["id"]: span["end"] - span["start"] - covered[span["id"]] for span in spans}


def self_times_by_name(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name, for the where-did-the-time-go table."""
    own = _self_times(spans)
    out = defaultdict(float)
    for span in spans:
        out[span["name"]] += own[span["id"]]
    return dict(out)
