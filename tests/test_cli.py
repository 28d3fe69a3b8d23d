import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from defectkit import cli, learners
from defectkit.cli import main
from defectkit.harness import ExperimentSpec
from defectkit.tuner import DEConfig

from conftest import parse_report_csv


def make_project(tmp_path, n_per_version=60, seed=0):
    """Three version CSVs with a planted signal plus a manifest pointing at them."""
    rng = np.random.default_rng(seed)
    names = ["p-1.0.csv", "p-2.0.csv", "p-3.0.csv"]
    for i, name in enumerate(names):
        labels = rng.integers(0, 2, n_per_version)
        wmc = labels * 8 + rng.random(n_per_version)
        rfc = rng.random(n_per_version)
        loc = rng.integers(10, 300, n_per_version)
        lines = ["wmc,rfc,loc,bug\n"]
        lines += [f"{wmc[j]:.4f},{rfc[j]:.4f},{loc[j]},{labels[j]}\n"
                  for j in range(n_per_version)]
        (tmp_path / name).write_text("".join(lines), encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"p": names}), encoding="utf-8")
    return manifest


ROW = {"dataset": "p", "method": "cart", "repeat": 0, "score": 0.5, "duration": 0.1}


def no_fit(*args, **kwargs):
    raise AssertionError("a configuration error must stop the run before any fit")


class TestUntuned:
    def test_runs_and_writes_outputs(self, tmp_path, capsys):
        manifest = make_project(tmp_path)
        out = tmp_path / "out"
        code = main(["untuned", "--manifest", str(manifest), "--goal", "d2h",
                     "--learner", "fft,cart", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert (out / "results.json").exists()
        assert (out / "report.txt").exists()
        printed = capsys.readouterr().out
        assert "dist2heaven" in printed and "fft" in printed and "cart" in printed

    def test_csv_format(self, tmp_path, capsys):
        manifest = make_project(tmp_path)
        out = tmp_path / "out"
        code = main(["untuned", "--manifest", str(manifest), "--format", "csv",
                     "--learner", "fft", "--out", str(out)])
        assert code == 0
        rows = parse_report_csv((out / "report.csv").read_text(encoding="utf-8"))
        assert rows[0][0] == "p" and rows[0][1] == "fft"

    @pytest.mark.parametrize("name", ["poi,v2", '"poi" v2'], ids=["comma", "quote"])
    def test_csv_report_quotes_names(self, tmp_path, capsys, name):
        make_project(tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({name: ["p-1.0.csv", "p-2.0.csv", "p-3.0.csv"]}),
                            encoding="utf-8")
        assert main(["untuned", "--manifest", str(manifest), "--format", "csv",
                     "--learner", "fft"]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert len(header) == len(row) == 4 and row[0] == name


class TestTune:
    def test_tune_and_report_round_trip(self, tmp_path, capsys):
        manifest = make_project(tmp_path)
        out = tmp_path / "out"
        code = main(["tune", "--manifest", str(manifest), "--learner", "cart",
                     "--goal", "acc", "--repeats", "2", "--seed", "3",
                     "--np", "5", "--life", "2", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        code = main(["report", "--out", str(out), "--format", "csv"])
        assert code == 0
        rendered = capsys.readouterr().out
        assert rendered.startswith("dataset,method,score,best")

    @pytest.mark.parametrize("f,code", [("1e308", 0), ("nan", 2), ("inf", 2)])
    def test_extreme_f_runs_or_names_f(self, tmp_path, capsys, f, code):
        manifest = make_project(tmp_path)
        assert main(["tune", "--manifest", str(manifest), "--learner", "cart",
                     "--np", "5", "--life", "1", "--seed", "2", "--f", f]) == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: de.f must be positive and finite, got {f}")

    def test_goal_popt(self, tmp_path, capsys):
        manifest = make_project(tmp_path)
        code = main(["tune", "--manifest", str(manifest), "--learner", "fft",
                     "--goal", "popt", "--np", "5", "--life", "1", "--seed", "2"])
        assert code == 0
        assert "p_opt" in capsys.readouterr().out


class TestKfoldTune:
    def test_runs(self, tmp_path, capsys):
        manifest = make_project(tmp_path)
        code = main(["kfold-tune", "--manifest", str(manifest), "--learner", "cart",
                     "--folds", "2", "--np", "5", "--life", "1", "--seed", "4"])
        assert code == 0
        assert "mean" in capsys.readouterr().out

    def test_repeats_above_one_is_config_error(self, tmp_path, capsys):
        # Folds are k-fold's repeats; more repeats would rerun the same folds.
        manifest = make_project(tmp_path)
        assert main(["kfold-tune", "--manifest", str(manifest), "--learner", "cart",
                     "--folds", "2", "--repeats", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "repeats" in err


class TestSmotuned:
    def test_runs(self, tmp_path, capsys):
        manifest = make_project(tmp_path)
        code = main(["smotuned", "--manifest", str(manifest), "--learner", "cart",
                     "--np", "5", "--life", "1", "--seed", "5"])
        assert code == 0
        assert "cart+smotuned" in capsys.readouterr().out


class TestConfigFile:
    def test_config_supplies_settings(self, tmp_path, capsys):
        manifest = make_project(tmp_path)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "manifest": str(manifest), "goal": "acc", "learner": "knn",
            "seed": 9, "de": {"np": 5, "life": 1},
        }), encoding="utf-8")
        code = main(["untuned", "--config", str(config)])
        assert code == 0
        assert "knn" in capsys.readouterr().out

    def test_config_supplies_format_and_out(self, tmp_path, capsys):
        manifest = make_project(tmp_path)
        out = tmp_path / "from-config"
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "manifest": str(manifest), "learner": "fft",
            "format": "csv", "out": str(out),
        }), encoding="utf-8")
        assert main(["untuned", "--config", str(config)]) == 0
        assert (out / "report.csv").exists()

    def test_flags_override_config(self, tmp_path, capsys):
        manifest = make_project(tmp_path)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"manifest": str(manifest), "learner": "knn"}),
                          encoding="utf-8")
        code = main(["untuned", "--config", str(config), "--learner", "cart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cart" in out and "knn" not in out


class TestSpecDefaults:
    """DEConfig and ExperimentSpec own their defaults: the CLI passes only what was set."""

    @pytest.mark.parametrize("command, flags, config, de_given, spec_given", [
        ("tune", [], {}, {}, {}),
        ("tune", ["--np", "6", "--cr", "0.5"], {"de": {"life": 2}},
         {"np": 6, "cr": 0.5, "life": 2}, {}),
        ("kfold-tune", ["--folds", "3", "--seed", "4"], {"repeats": 1, "de": {"f": 1}},
         {"f": 1}, {"folds": 3, "seed": 4, "repeats": 1}),
        ("smotuned", ["--repeats", "2"], {"seed": 0, "folds": 5}, {},
         {"repeats": 2, "seed": 0, "folds": 5}),
        ("untuned", [], {"de": {"np": 5}, "repeats": 3}, None, {"repeats": 3}),
    ], ids=["tune-bare", "tune", "kfold-tune", "smotuned", "untuned"])
    def test_specs_get_only_the_given_settings(self, tmp_path, monkeypatch, command, flags,
                                               config, de_given, spec_given):
        manifest = make_project(tmp_path, n_per_version=20)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        calls = {}

        def spy(name, cls):
            def build(*args, **kwargs):
                calls[name] = args, kwargs
                return cls(*args, **kwargs)
            return build

        args = cli.build_parser().parse_args(
            [command, "--manifest", str(manifest), "--config", str(path), *flags])
        monkeypatch.setattr(cli, "DEConfig", spy("de", DEConfig))
        monkeypatch.setattr(cli, "ExperimentSpec", spy("spec", ExperimentSpec))
        spec = cli._build_spec(args, cli._load_config(args), command)
        if de_given is None:
            assert "de" not in calls and spec.de is None
        else:
            assert calls["de"] == ((), de_given)
            # DEConfig's own defaults: what a tune run without DE settings searches with
            assert spec.de == replace(DEConfig(np=10, f=0.75, cr=0.3, life=5), **de_given)
        args, kwargs = calls["spec"]
        assert args == () and set(kwargs) - {"datasets", "learners", "goal", "de"} \
            == set(spec_given)
        assert {name: getattr(spec, name) for name in ("repeats", "seed", "folds")} \
            == {**{"repeats": 1, "seed": 0, "folds": 10}, **spec_given}


class TestErrorPaths:
    def test_missing_manifest_is_config_error(self, capsys):
        assert main(["untuned", "--goal", "d2h"]) == 2

    def test_nonexistent_manifest_file(self, tmp_path):
        assert main(["untuned", "--manifest", str(tmp_path / "nope.json")]) == 1

    def test_bad_learner_kind(self, tmp_path):
        manifest = make_project(tmp_path)
        assert main(["untuned", "--manifest", str(manifest),
                     "--learner", "perceptron"]) == 2

    @pytest.mark.parametrize("kinds", ["cart,random_forest,cart", "fft,fft"])
    def test_repeated_learner_is_config_error(self, tmp_path, capsys, monkeypatch, kinds):
        # Two cells with one (dataset, method, repeat) would merge into one report cell.
        manifest = make_project(tmp_path)
        monkeypatch.setattr(learners, "fit", no_fit)
        assert main(["untuned", "--manifest", str(manifest), "--learner", kinds,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        repeated = kinds.split(",")[-1]
        assert err.startswith("configuration error:") and f"'{repeated}'" in err
        assert not (tmp_path / "out").exists()

    def test_single_version_project(self, tmp_path):
        (tmp_path / "p-1.0.csv").write_text("wmc,loc,bug\n1,2,0\n", encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"p": ["p-1.0.csv"]}), encoding="utf-8")
        assert main(["untuned", "--manifest", str(manifest)]) == 2

    def test_degenerate_training_data_is_runtime_error(self, tmp_path):
        for name in ("p-1.0.csv", "p-2.0.csv"):
            rows = "".join(f"{i},1,{10 + i},0\n" for i in range(12))
            (tmp_path / name).write_text("wmc,rfc,loc,bug\n" + rows, encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"p": ["p-1.0.csv", "p-2.0.csv"]}),
                            encoding="utf-8")
        assert main(["untuned", "--manifest", str(manifest), "--learner", "cart"]) == 1

    @pytest.mark.parametrize("command,config,key", [
        ("untuned", {"repeats": "2"}, "repeats"),
        ("untuned", {"repeats": 0}, "repeats"),
        ("untuned", {"learner": 5}, "learner"),
        ("untuned", [1, 2], "object"),
        ("untuned", {"goal": "auc"}, "goal"),
        ("untuned", {"seed": True}, "seed"),
        ("untuned", {"format": "xml"}, "format"),
        ("untuned", {"out": 3}, "out"),
        ("untuned", {"de": 5}, "de"),
        ("tune", {"de": {"np": 5.5}}, "de.np"),
        ("tune", {"de": {"life": 0}}, "de.life"),
        ("tune", {"de": {"f": "big"}}, "de.f"),
        ("tune", {"de": {"np": None}}, "de.np"),
        ("smotuned", {"de": {"cr": None}}, "de.cr"),
        ("untuned", {"repeats": None}, "repeats"),
        ("kfold-tune", {"folds": None}, "folds"),
        ("kfold-tune", {"folds": 1}, "folds"),
    ])
    def test_bad_config_values_are_config_errors(self, tmp_path, capsys, command, config,
                                                 key):
        manifest = make_project(tmp_path)
        if isinstance(config, dict):
            config = {"manifest": str(manifest), **config}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = [command, "--config", str(path)]
        if not isinstance(config, dict):
            argv += ["--manifest", str(manifest)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err

    # A misspelt key would run with the default and exit 0; DE takes no seed of its own.
    @pytest.mark.parametrize("command,config,keys", [
        ("tune", {"learner": "naive_bayes", "repets": 3, "de": {"lif": 1, "seed": 7}},
         ["repets", "de.lif", "de.seed"]),
        ("smotuned", {"de": {"np": 5, "seed": 0}}, ["de.seed"]),
        ("untuned", {"config": "other.json", "folds": 3}, ["config"]),
        ("kfold-tune", {"Seed": 1}, ["Seed"]),
    ])
    def test_keys_no_command_reads_are_config_errors(self, tmp_path, capsys, monkeypatch,
                                                      command, config, keys):
        manifest = make_project(tmp_path)
        monkeypatch.setattr(learners, "fit", no_fit)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"manifest": str(manifest), **config}), encoding="utf-8")
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert [key for key in keys if repr(key) in err] == keys and "'folds'" not in err

    @pytest.mark.parametrize("header", ["wmc,rfc,cbo,loc,bug", "rfc,wmc,loc,bug"],
                             ids=["added-column", "reordered-columns"])
    def test_test_version_columns_must_match_training(self, tmp_path, capsys, monkeypatch,
                                                      header):
        manifest = make_project(tmp_path)
        rows = "".join(f"{i}," * header.count(",") + f"{i % 2}\n" for i in range(12))
        (tmp_path / "p-3.0.csv").write_text(header + "\n" + rows, encoding="utf-8")
        monkeypatch.setattr(learners, "fit", no_fit)
        assert main(["untuned", "--manifest", str(manifest), "--learner", "fft"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "'p'" in err and "p-3.0.csv" in err

    @pytest.mark.parametrize("header", ["dit,rfc,loc,bug", "wmc,rfc,cbo,loc,bug"],
                             ids=["renamed-column", "added-column"])
    def test_training_versions_must_share_columns(self, tmp_path, capsys, monkeypatch,
                                                  header):
        manifest = make_project(tmp_path)
        rows = "".join(f"{i}," * header.count(",") + f"{i % 2}\n" for i in range(12))
        (tmp_path / "p-2.0.csv").write_text(header + "\n" + rows, encoding="utf-8")
        monkeypatch.setattr(learners, "fit", no_fit)
        assert main(["untuned", "--manifest", str(manifest), "--learner", "fft"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "'p'" in err and "p-1.0.csv" in err and "p-2.0.csv" in err

    def test_fewer_training_rows_than_folds_is_config_error(self, tmp_path, capsys,
                                                           monkeypatch):
        manifest = make_project(tmp_path, n_per_version=3)
        monkeypatch.setattr(learners, "fit", no_fit)
        assert main(["kfold-tune", "--manifest", str(manifest), "--learner", "cart"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "'p'" in err and "6 training rows" in err and "folds=10" in err

    @pytest.mark.parametrize("command", ["tune", "smotuned"])
    def test_too_few_training_rows_to_tune_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                           command):
        # Two training rows leave the 80/20 split no tuning rows.
        for name, n in (("p-1.0.csv", 2), ("p-2.0.csv", 3)):
            rows = "".join(f"{i},1,{10 + i},{i % 2}\n" for i in range(n))
            (tmp_path / name).write_text("wmc,rfc,loc,bug\n" + rows, encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"p": ["p-1.0.csv", "p-2.0.csv"]}), encoding="utf-8")
        monkeypatch.setattr(learners, "fit", no_fit)
        assert main([command, "--manifest", str(manifest), "--learner", "cart"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "'p'" in err and "2 training rows" in err

    def test_empty_header_cell_names_file_and_column(self, tmp_path, capsys, monkeypatch):
        manifest = make_project(tmp_path)
        rows = "".join(f"{i},1,{10 + i},{i % 2}\n" for i in range(12))
        (tmp_path / "p-2.0.csv").write_text("wmc,,loc,bug\n" + rows, encoding="utf-8")
        monkeypatch.setattr(learners, "fit", no_fit)
        assert main(["untuned", "--manifest", str(manifest), "--learner", "fft"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "p-2.0.csv" in err and "column 2" in err

    @pytest.mark.parametrize("bad_row", [None, 900], ids=["header", "row-past-first-read"])
    def test_csv_not_utf8_names_file(self, tmp_path, capsys, monkeypatch, bad_row):
        manifest = make_project(tmp_path)
        lines = [f"{i},1,{10 + i},{i % 2}\n".encode() for i in range(1000)]
        header = b"wmc,rfc,loc,bug\n"
        if bad_row is None:
            header = b"w\xffmc,rfc,loc,bug\n"
        else:  # past the first 8 KiB the reader decodes
            lines[bad_row] = b"\xff" + lines[bad_row]
        (tmp_path / "p-2.0.csv").write_bytes(header + b"".join(lines))
        monkeypatch.setattr(learners, "fit", no_fit)
        assert main(["untuned", "--manifest", str(manifest), "--learner", "fft"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "p-2.0.csv" in err and "UTF-8" in err

    @pytest.mark.parametrize("which", ["manifest", "config"])
    def test_json_file_not_utf8_is_config_error(self, tmp_path, capsys, monkeypatch, which):
        manifest = make_project(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"p": ["p-1.0.csv", "p-2.0.csv"], "\xff": []}')
        monkeypatch.setattr(learners, "fit", no_fit)
        argv = ["untuned", "--manifest", str(bad if which == "manifest" else manifest)]
        if which == "config":
            argv += ["--config", str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and str(bad) in err and "utf-8" in err

    def test_report_without_results(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("payload,field", [
        ({"goal": "p_opt", "aggregate_kind": "median"}, "rows"),
        ([], "rows"),
        ({"aggregate_kind": "median", "rows": []}, "goal"),
        ({"goal": ["p_opt"], "aggregate_kind": "median", "rows": []}, "goal"),
        ({"goal": "p_opt", "aggregate_kind": "mode", "rows": []}, "aggregate_kind"),
        ({"goal": "p_opt", "aggregate_kind": "median", "rows": [dict(ROW, colour=1)]}, "colour"),
        ({"goal": "p_opt", "aggregate_kind": "median", "rows": [{"dataset": "p"}]}, "method"),
        ({"goal": "p_opt", "aggregate_kind": "median", "rows": [dict(ROW, score="0.5")]},
         "score"),
        ({"goal": "p_opt", "aggregate_kind": "median", "rows": [dict(ROW, dataset=["p"])]},
         "dataset"),
        ({"goal": "p_opt", "aggregate_kind": "median", "rows": [dict(ROW, score=float("nan"))]},
         "score"),
        ({"goal": "p_opt", "aggregate_kind": "median", "rows": [dict(ROW, score=10 ** 400)]},
         "score"),
        ({"goal": "p_opt", "aggregate_kind": "median", "rows": [dict(ROW, repeat=-3)]},
         "repeat"),
        ({"goal": "p_opt", "aggregate_kind": "median", "rows": [dict(ROW, duration=-1e300)]},
         "duration"),
        ({"goal": "p_opt", "aggregate_kind": "median", "rows": [dict(ROW, duration=1e300)]},
         "duration"),
        ({"goal": "p_opt", "aggregate_kind": "median", "rows": []}, "rows"),
    ], ids=["no_rows", "list", "no_goal", "list_goal", "mode_aggregate", "unknown_row_key",
            "missing_row_key", "string_score", "list_dataset", "nan_score", "huge_int_score",
            "negative_repeat", "negative_duration", "huge_duration", "empty_rows"])
    def test_malformed_results_are_runtime_errors(self, tmp_path, capsys, payload, field):
        results = tmp_path / "results.json"
        results.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["report", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {results}: ") and field in err

    @pytest.mark.parametrize("command", ["untuned", "tune", "kfold-tune", "smotuned"])
    def test_header_only_version_is_config_error(self, tmp_path, capsys, command):
        make_project(tmp_path)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"p": ["p-1.0.csv", "p-2.0.csv"]}), encoding="utf-8")
        (tmp_path / "p-1.0.csv").write_text("wmc,rfc,loc,bug\n", encoding="utf-8")
        assert main([command, "--manifest", str(manifest), "--learner", "cart"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "'p'" in err and "p-1.0.csv" in err


# Runs every command through cli.main in a fresh interpreter, then reports
# whether numpy.ma was ever imported (np.unique and np.median import it lazily)
# and whether numpy.random was by the end of the untuned run, which draws nothing.
RUN_EVERY_COMMAND = """
import json, sys
from defectkit.cli import main
manifest, out = sys.argv[1:]
tuned = ["--np", "4", "--life", "1", "--manifest", manifest]
codes = [main(["untuned", "--goal", "popt", "--manifest", manifest,
               "--learner", "cart,random_forest,naive_bayes,logistic,knn,linear_svm,fft"])]
untuned_random = "numpy.random" in sys.modules
codes += [main(["tune", "--learner", "cart,naive_bayes,fft", "--repeats", "2"] + tuned),
          main(["kfold-tune", "--goal", "popt", "--learner", "fft", "--folds", "2"] + tuned),
          main(["smotuned", "--learner", "naive_bayes", "--out", out] + tuned),
          main(["report", "--out", out, "--runtime"])]
print(json.dumps({"codes": codes, "numpy.ma": "numpy.ma" in sys.modules,
                  "numpy.random after untuned": untuned_random}))
"""


class TestImportCost:
    def test_no_command_imports_numpy_ma(self, tmp_path):
        # A subprocess: other tests import numpy.ma into this interpreter.
        root = Path(__file__).resolve().parent.parent
        manifest = make_project(tmp_path, n_per_version=30)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, "-c", RUN_EVERY_COMMAND, str(manifest),
                               str(tmp_path / "out")], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == {
            "codes": [0] * 5, "numpy.ma": False, "numpy.random after untuned": False}
