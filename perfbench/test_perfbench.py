"""Tests of the benchmark's own code: `python3 -m pytest perfbench -q`."""

import json
from pathlib import Path

import numpy as np

import tracer
from child import output_digest
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_per_seed_and_batch(tmp_path):
    workload = WORKLOADS["tune_d2h"]
    for name in ("a", "b", "c", "d"):
        (tmp_path / name).mkdir()
    _, seed_a = generate(workload, 5, 0, tmp_path / "a")
    _, seed_b = generate(workload, 5, 0, tmp_path / "b")
    _, seed_c = generate(workload, 6, 0, tmp_path / "c")
    _, seed_d = generate(workload, 5, 1, tmp_path / "d")
    assert seed_a == seed_b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [f.read_bytes() for f in sorted((tmp_path / "a").glob("*.csv"))] != \
        [f.read_bytes() for f in sorted((tmp_path / "d").glob("*.csv"))]


def test_generated_versions_hold_both_classes(tmp_path):
    workload = WORKLOADS["smotuned_nb"]
    for seed in range(5):
        manifest, _ = generate(workload, seed, seed, tmp_path)
        projects = json.loads(manifest.read_text())
        assert list(projects) == [f"b{seed}p{i}" for i in range(1, workload.projects + 1)]
        for name in (f for files in projects.values() for f in files):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0].split(",")[-2:] == ["loc", "bug"]
            bugs = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
            assert len(bugs) == workload.rows
            assert 0 < (bugs > 0).sum() < len(bugs)


def _results(score, duration):
    row = {"dataset": "p1", "method": "cart", "repeat": 0, "score": score,
           "duration": duration, "tunings": None, "evaluations": None,
           "default_tune_score": None, "best_tune_score": None}
    return json.dumps({"goal": "dist2heaven", "aggregate_kind": "median", "rows": [row]})


def test_digest_ignores_duration_but_not_scores():
    report = "dataset,method,score,best\np1,cart,41.2,1\n"
    assert output_digest(_results(0.41, 1.5), report) == output_digest(_results(0.41, 9.0), report)
    assert output_digest(_results(0.41, 1.5), report) != output_digest(_results(0.42, 1.5), report)
    assert output_digest(_results(0.41, 1.5), report) != output_digest(
        _results(0.41, 1.5), report.replace("41.2", "41.3"))


def test_self_time_excludes_children_and_their_bookkeeping():
    spans = [
        {"id": 0, "name": "harness.run_tuned", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "tuner.run_de", "parent": 0, "start": 1.0, "end": 9.0,
         "overhead": 0.5},
        {"id": 2, "name": "tuner.objective", "parent": 1, "start": 2.0, "end": 5.0},
    ]
    own = tracer.self_times_by_name(spans)
    assert own == {"harness.run_tuned": 1.5, "tuner.run_de": 5.0, "tuner.objective": 3.0}


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    produced = {name: unit for name, (_, unit) in tracer.layer_metrics([], []).items()}
    produced["trace.overhead_ratio"] = "ratio"
    assert produced == declared
    assert set(tracer.EXACT_COUNTERS) <= set(produced)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tracer.tail_percentile(20000) == 99.9
    assert tracer.tail_percentile(2000) == 99.0
    assert tracer.tail_percentile(200) == 90.0
    assert tracer.tail_percentile(50) == 50.0
