"""The benchmark's pinned outputs, checked in-process: every pinned batch at seed 1.

perfbench/digests.json pins the output digest of each workload's first batches
at the benchmark's default seed.  Running each of them through the CLI here
keeps seeded reports byte-identical under the ordinary test suite.
"""

import json
from pathlib import Path

import pytest

from defectkit import cli
from defectkit.harness import ExperimentResult, report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINNED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import workloads
    return child, workloads


def check_pinned_batch(bench, tmp_path, name, batch):
    child, workloads = bench
    assert sorted(workloads.WORKLOADS) == sorted(PINNED)
    manifest, cli_seed = workloads.generate(workloads.WORKLOADS[name], 1, batch, tmp_path)
    out = tmp_path / "out"
    argv = [*workloads.WORKLOADS[name].args, "--manifest", str(manifest),
            "--seed", str(cli_seed), "--out", str(out)]
    assert cli.main(argv) == 0
    results_json = (out / "results.json").read_text(encoding="utf-8")
    csv = report(ExperimentResult.from_json(results_json), "csv", include_runtime=False)
    assert child.output_digest(results_json, csv) == PINNED[name][batch]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_batch_zero_matches_pinned_digest(bench, tmp_path, name):
    check_pinned_batch(bench, tmp_path, name, 0)


@pytest.mark.parametrize("name,batch", [(name, batch) for name in sorted(PINNED)
                                        for batch in range(1, len(PINNED[name]))])
def test_later_batch_matches_pinned_digest(bench, tmp_path, name, batch):
    check_pinned_batch(bench, tmp_path, name, batch)
