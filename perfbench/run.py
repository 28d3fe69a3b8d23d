"""Seeded end-to-end benchmark of the `defectkit` CLI.

    python3 perfbench/run.py --workload tune_d2h --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

Run it from the root of a checkout; the program is imported from `src/`.
Load model: closed loop, one caller.  Each child process (perfbench/child.py)
runs one CLI batch command to completion, and only one child runs at a time,
with BLAS limited to one thread.  Batch `i` of a run reads its own generated
project (see workloads.py), so a run's figures cover many inputs.

`--trace 0` runs batch 0 once as a warm-up (it fills the bytecode and file
caches and its times are dropped), then batch 0, 1, ... until about
`--seconds` have passed since the warm-up began, and at least MIN_BATCHES
batches.  It reports the medians over the timed batches of setup_s and
peak_rss_mb, and the mean of their run_s: the batch time that a run's whole
throughput gives.  `--trace 1` runs each batch once untraced and once traced
for about `--seconds`, reports the per-layer metrics of traced batch 0, and
runs batch 0 traced again to check that the exact counters repeat.

Every child must exit 0, runs of one batch (so the warm-up and timed batch
0) must share one output digest, and at DEFAULT_SEED the digests of batches
0 to MIN_BATCHES - 1 must equal the ones pinned in digests.json.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
DEFAULT_SECONDS = 40
MIN_BATCHES = 4
# A run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 170.0
WORK_DIR = ".perfbench_work"


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


class Runner:
    """Starts children for one workload and seed, and collects their results."""

    def __init__(self, root: Path, workload, seed: int, scratch: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.inputs: dict[int, tuple[Path, int]] = {}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, set[str]] = {}

    def argv(self, batch: int) -> list[str]:
        if batch not in self.inputs:
            directory = self.scratch / f"batch{batch}"
            directory.mkdir()
            self.inputs[batch] = generate(self.workload, self.seed, batch, directory)
        manifest, cli_seed = self.inputs[batch]
        return [*self.workload.args, "--manifest", str(manifest), "--seed", str(cli_seed)]

    def child(self, mode: str, batch: int) -> dict:
        """Run one child to its end; its result gains exit_code and peak_rss_mb."""
        self.attempted += 1
        tag = self.scratch / f"{self.attempted:03d}"
        job = {"argv": self.argv(batch) + ["--out", f"{tag}-out"], "mode": mode,
               "run_id": tag.name, "result": f"{tag}-result.json",
               "spans": f"{tag}-spans.jsonl", "out": f"{tag}-out"}
        Path(f"{tag}-job.json").write_text(json.dumps(job), encoding="utf-8")
        with open(f"{tag}-log.txt", "wb") as log:
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), f"{tag}-job.json"],
                                    cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            status, usage = self._wait(proc)
        result = {}
        if Path(job["result"]).exists():
            result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        result["exit_code"] = os.waitstatus_to_exitcode(status)
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        result["spans"] = job["spans"]
        result["ok"] = result["exit_code"] == 0 and "setup_s" in result
        if not result["ok"]:
            self.failed += 1
            log_tail = Path(f"{tag}-log.txt").read_text(encoding="utf-8", errors="replace")
            print(f"child {tag.name} ({mode}, batch {batch}) failed with exit code "
                  f"{result['exit_code']}:\n{log_tail[-2000:]}", file=sys.stderr)
        elif "digest" in result:
            self.digests.setdefault(batch, set()).add(result["digest"])
        return result

    def _wait(self, proc: subprocess.Popen):
        # os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give
        # the maximum over every child so far.
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return status, usage

    def repeat(self, step, seconds: float, start: float) -> list:
        """step(0), step(1), ... while the next step is expected to end within
        `seconds` of `start`, and at least MIN_BATCHES steps unless the budget
        runs out."""
        done = []
        while True:
            done.append(step(len(done)))
            elapsed = time.monotonic() - start
            if time.monotonic() > self.deadline or (
                    len(done) >= MIN_BATCHES and elapsed + elapsed / len(done) > seconds):
                return done


def check_digests(runner: Runner, workload: str, seed: int) -> bool:
    """Every batch has one digest; at DEFAULT_SEED the first ones equal the pinned ones."""
    if any(len(d) != 1 for d in runner.digests.values()):
        return False
    if seed != DEFAULT_SEED:
        return True
    pinned = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))[workload]
    return bool(pinned) and all(runner.digests.get(b) == {d} for b, d in enumerate(pinned))


def run_untraced(runner: Runner, seconds: float) -> dict:
    start = time.monotonic()
    warm_up = runner.child("run", 0)
    batches = runner.repeat(lambda i: runner.child("run", i), seconds, start)
    if not warm_up["ok"] or not all(b["ok"] for b in batches):
        return {}
    for metric in ("setup_s", "run_s", "peak_rss_mb"):
        print(f"samples: {metric} " + " ".join(f"{b[metric]:.4f}" for b in batches))
    # The host's speed switches between a fast and a slow state for seconds
    # at a time, so the batch times of a run are bimodal.  Their median jumps
    # between the two states as the mix nears one half; their mean follows
    # the mix smoothly and spreads less from run to run.
    return {"setup_s": (statistics.median(b["setup_s"] for b in batches), "s"),
            "run_s": (statistics.fmean(b["run_s"] for b in batches), "s"),
            "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in batches), "MB")}


def run_traced(runner: Runner, seconds: float) -> tuple[dict, bool]:
    pairs = runner.repeat(lambda i: (runner.child("run", i), runner.child("trace", i)), seconds,
                          time.monotonic())
    again = runner.child("trace", 0)
    if not again["ok"] or not all(c["ok"] for pair in pairs for c in pair):
        return {}, False
    first = pairs[0][1]
    per_run = [tracer.layer_metrics(tracer.read_spans(c["spans"]), c["cell_durations"])
               for c in (first, again)]
    same = all(per_run[0][name] == per_run[1][name] for name in tracer.EXACT_COUNTERS)
    if not same:
        print("exact counters differ between two traced runs of one batch:", file=sys.stderr)
        for name in tracer.EXACT_COUNTERS:
            print(f"  {name}: {per_run[0][name][0]} vs {per_run[1][name][0]}", file=sys.stderr)
    metrics = dict(per_run[0])
    ratios = [traced["run_s"] / untraced["run_s"] for untraced, traced in pairs]
    metrics["trace.overhead_ratio"] = (statistics.median(ratios) - 1.0, "ratio")

    spans = tracer.read_spans(first["spans"])
    own = sorted(tracer.self_times_by_name(spans).items(), key=lambda kv: -kv[1])
    print(f"self time by layer (traced batch 0, run_s {first['run_s']:.3f} s):")
    for name, seconds in own:
        print(f"  {name:24s} {seconds:9.3f} s  {100 * seconds / first['run_s']:5.1f}%")
    return metrics, same


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    (root / WORK_DIR).mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / WORK_DIR))
    try:
        runner = Runner(root, workload, seed, scratch)
        print(f"env: {json.dumps(environment(name, seed))}")
        if trace:
            metrics, counters_ok = run_traced(runner, seconds)
        else:
            metrics, counters_ok = run_untraced(runner, seconds), True
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    digests_ok = check_digests(runner, name, seed)
    print("digests by batch: " + " ".join("/".join(sorted(d[:16] for d in runner.digests[b]))
                                          for b in sorted(runner.digests)))
    print(f"digests {'match' if digests_ok else 'DO NOT MATCH'}"
          f"{' the pinned values' if seed == DEFAULT_SEED else ' across runs of a batch'}")
    correct = bool(metrics) and digests_ok and counters_ok and runner.failed == 0
    return {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": metrics}


def environment(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version()}


def print_metrics(workload: str, summary: dict) -> None:
    for metric, (value, unit) in summary["metrics"].items():
        print(f"{workload} {metric} {value:.6g} {unit}")
    ratio = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    print(f"{workload} fail_ratio {ratio:.6g} ratio "
          f"({summary['failed']} of {summary['attempted']} runs)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "defectkit" / "cli.py").is_file():
        print(f"error: no src/defectkit under {root}; run from the repository root",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    for name in names:
        summaries[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        print_metrics(name, summaries[name])
    if not all(s["metrics"] for s in summaries.values()):
        print("error: a batch failed", file=sys.stderr)
        return 1

    prefix = len(names) > 1
    line = {"correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {(f"{name}.{metric}" if prefix else metric):
                        {"value": value, "unit": unit}
                        for name, s in summaries.items()
                        for metric, (value, unit) in s["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
