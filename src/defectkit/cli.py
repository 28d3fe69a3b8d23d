"""Batch command line: untuned / tune / kfold-tune / smotuned / report.

Datasets come from a JSON manifest mapping project -> ordered version CSVs
(oldest first; the newest file is the test set, the rest merge into the
training set).  Every flag can also come from a JSON config file via
--config; explicit flags win.  Exit codes: 0 success, 2 configuration
error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dataset import Manifest
from .errors import ConfigError, DefectkitError, SchemaError
from .harness import (ExperimentResult, ExperimentSpec, report, run_kfold_tuned,
                      run_smotuned, run_tuned, run_untuned)
from .learners import KINDS, LearnerSpec
from .metrics import goal as make_goal
from .tuner import DEConfig

GOAL_NAMES = {"d2h": "dist2heaven", "popt": "p_opt", "f1": "f1", "acc": "accuracy"}
# The config keys some command reads; a command ignores the others' keys.  There is no
# "de.seed": each cell seeds its DE run from the run's seed.
CONFIG_KEYS = ("manifest", "goal", "learner", "repeats", "seed", "folds", "out", "format",
               "de.np", "de.f", "de.cr", "de.life")


def _add_common(parser: argparse.ArgumentParser, tuned: bool) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file; flags override it")
    parser.add_argument("--manifest", type=Path, help="JSON manifest of project version CSVs")
    parser.add_argument("--goal", choices=sorted(GOAL_NAMES), help="optimisation goal")
    parser.add_argument("--learner", help="comma-separated learner kinds "
                                          f"(choose from {', '.join(KINDS)})")
    parser.add_argument("--repeats", type=int, help="independent repeats to aggregate")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--out", type=Path, help="directory for results.json and the report")
    parser.add_argument("--format", choices=("table", "csv"), help="report format")
    if tuned:
        parser.add_argument("--np", type=int, dest="de_np", help="DE population size")
        parser.add_argument("--f", type=float, dest="de_f", help="DE extrapolation factor")
        parser.add_argument("--cr", type=float, dest="de_cr", help="DE crossover probability")
        parser.add_argument("--life", type=int, dest="de_life", help="DE stagnation budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="defectkit",
                                     description="Effort-aware defect prediction experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("untuned", help="fit learners with their given parameters"),
                tuned=False)
    _add_common(sub.add_parser("tune", help="tune learner parameters by DE on an 80/20 split"),
                tuned=True)
    kf = sub.add_parser("kfold-tune", help="tune with k-fold carving of the training data")
    _add_common(kf, tuned=True)
    kf.add_argument("--folds", type=int, help=f"number of folds (default {ExperimentSpec.folds})")
    _add_common(sub.add_parser("smotuned", help="tune the SMOTE preprocessor by DE"),
                tuned=True)
    rep = sub.add_parser("report", help="re-render a saved results.json")
    rep.add_argument("--out", type=Path, required=True,
                     help="directory holding results.json")
    rep.add_argument("--format", choices=("table", "csv"), default="table")
    rep.add_argument("--runtime", action="store_true", help="force the runtime section on")
    return parser


def _setting(args, config: dict, key: str, default, kinds: tuple, choices=None):
    """The flag for `key` if given, else its config entry, else `default`.

    A value that is set must be one of `kinds` (never a bool) and among `choices`
    when those are given; else a ConfigError names the key.  The specs check bounds.
    """
    value = getattr(args, key.replace(".", "_"), None)
    if value is None:
        value = config.get(key, default)
    if value is not None and (isinstance(value, bool) or not isinstance(value, kinds)
                              or (choices and value not in choices)):
        expected = (f"one of {', '.join(choices)}" if choices
                    else " or ".join(k.__name__ for k in kinds))
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    return value


def _given(args, config: dict, kinds: dict) -> dict:
    """{key without "de.": its _setting} for each key of `kinds` a flag or config entry gave."""
    return {key.removeprefix("de."): _setting(args, config, key, None, types)
            for key, types in kinds.items()
            if getattr(args, key.replace(".", "_"), None) is not None or key in config}


def _load_config(args) -> dict:
    """The --config object, with the entries of its "de" object keyed "de.<name>"; a key
    outside CONFIG_KEYS is a ConfigError."""
    if getattr(args, "config", None) is None:
        return {}
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config {args.config} must hold a JSON object")
    de = config.pop("de", {})
    if not isinstance(de, dict):
        raise ConfigError(f"de must be an object of DE settings, got {de!r}")
    config.update({f"de.{key}": value for key, value in de.items()})
    unknown = [key for key in config if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"config {args.config}: no command reads "
                          f"{', '.join(map(repr, unknown))}")
    return config


def _build_spec(args, config: dict, command: str) -> ExperimentSpec:
    manifest_path = _setting(args, config, "manifest", None, (str, Path))
    if manifest_path is None:
        raise ConfigError("a --manifest (or config manifest entry) is required")
    goal_name = _setting(args, config, "goal", "d2h", (str,), choices=sorted(GOAL_NAMES))
    learner_kinds = _setting(args, config, "learner", "fft", (str, list))
    if isinstance(learner_kinds, str):
        learner_kinds = [k.strip() for k in learner_kinds.split(",") if k.strip()]
    try:
        learner_specs = [LearnerSpec(kind) for kind in learner_kinds]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"learner: {exc}") from None

    de = None
    if command != "untuned":
        try:
            de = DEConfig(**_given(args, config, {"de.np": (int,), "de.f": (int, float),
                                                  "de.cr": (int, float), "de.life": (int,)}))
        except ValueError as exc:  # its message leads with the field's name
            raise ConfigError(f"de.{exc}") from None

    counts = _given(args, config, {"repeats": (int,), "seed": (int,), "folds": (int,)})
    return ExperimentSpec(learners=learner_specs, goal=make_goal(GOAL_NAMES[goal_name]), de=de,
                          datasets=Manifest.load(manifest_path).assemble(), **counts)


def _emit(result: ExperimentResult, fmt: str, out_dir) -> None:
    rendered = report(result, fmt)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "results.json").write_text(result.to_json(), encoding="utf-8")
        suffix = "csv" if fmt == "csv" else "txt"
        (out_dir / f"report.{suffix}").write_text(rendered, encoding="utf-8")
    sys.stdout.write(rendered)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runners = {"untuned": run_untuned, "tune": run_tuned,
               "kfold-tune": run_kfold_tuned, "smotuned": run_smotuned}
    try:
        if args.command == "report":
            results_file = args.out / "results.json"
            if not results_file.exists():
                raise ConfigError(f"no results.json under {args.out}")
            try:
                result = ExperimentResult.from_json(results_file.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise ValueError(f"{results_file}: {exc}") from None
            sys.stdout.write(report(result, args.format,
                                    include_runtime=True if args.runtime else None))
            return 0
        config = _load_config(args)
        spec = _build_spec(args, config, args.command)
        fmt = _setting(args, config, "format", "table", (str,), choices=("table", "csv"))
        out_dir = _setting(args, config, "out", None, (str, Path))
        _emit(runners[args.command](spec), fmt, out_dir)
        return 0
    except (ConfigError, SchemaError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DefectkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
