"""One `defectkit` batch command in a fresh process, timed from its first line.

    python3 perfbench/child.py JOB.json

JOB.json holds `argv` (the CLI arguments), `mode` and file paths.  Mode
`run` runs the command as it is, `trace` runs it with every layer wrapped
(see tracer.py).  The child writes one JSON result: setup_s (first line to
the first cell, so imports, argument parsing, manifest and CSV loading),
run_s (first cell to the written report), the exit code, the output digest
and the cell durations.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def output_digest(results_json: str, report_csv: str) -> str:
    """Digest of the results rows without `duration`, plus the timing-free report."""
    rows = [{k: v for k, v in row.items() if k != "duration"}
            for row in json.loads(results_json)["rows"]]
    payload = json.dumps(rows, sort_keys=True) + "\n" + report_csv
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    import defectkit.cli as cli
    from defectkit.harness import ExperimentResult, report

    tracer = None
    if job["mode"] == "trace":
        from tracer import Tracer
        tracer = Tracer(job["run_id"])
        tracer.install()

    name = {"untuned": "run_untuned", "tune": "run_tuned", "kfold-tune": "run_kfold_tuned",
            "smotuned": "run_smotuned"}[job["argv"][0]]
    runner = getattr(cli, name)
    first_cell = []

    def first_cell_marker(spec):
        first_cell.append(time.perf_counter())
        return runner(spec)

    setattr(cli, name, first_cell_marker)

    result = {"mode": job["mode"], "exit_code": cli.main(job["argv"])}
    end = time.perf_counter()
    if not first_cell:
        result["exit_code"] = result["exit_code"] or 1
    else:
        result["setup_s"] = first_cell[0] - T0
        result["run_s"] = end - first_cell[0]
    if result["exit_code"] == 0:
        out = Path(job["out"])
        results_json = (out / "results.json").read_text(encoding="utf-8")
        csv = report(ExperimentResult.from_json(results_json), "csv", include_runtime=False)
        result["digest"] = output_digest(results_json, csv)
        result["cell_durations"] = [r["duration"] for r in json.loads(results_json)["rows"]]
    if tracer is not None:
        tracer.write(job["spans"])
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
