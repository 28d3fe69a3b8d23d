"""Effort-aware defect prediction toolkit.

Builds fast-and-frugal tree ensembles, tunes learners and preprocessors
with differential evolution, rebalances training data with SMOTE, and
scores everything with binary threshold and effort-aware metrics.
"""

from .dataset import AttributeSchema, Dataset, Manifest, kfold, load_csv, merge, random_split
from .fft import FFTEnsemble, FFTree, Range, median_split
from .harness import (ExperimentResult, ExperimentSpec, ResultRow, report,
                      run_kfold_tuned, run_smotuned, run_tuned, run_untuned)
from .learners import LearnerSpec, Model, param_space, predict_dataset
from .metrics import GoalSpec, dist2heaven, evaluate, goal, inspection_areas, p_opt
from .smote import SmoteConfig
from .tuner import Candidate, DEConfig, ParamSpace, ParamSpec, extrapolate

__all__ = [
    "AttributeSchema", "Dataset", "Manifest", "kfold", "load_csv", "merge", "random_split",
    "FFTEnsemble", "FFTree", "Range", "median_split",
    "ExperimentResult", "ExperimentSpec", "ResultRow", "report", "run_kfold_tuned",
    "run_smotuned", "run_tuned", "run_untuned",
    "LearnerSpec", "Model", "param_space", "predict_dataset",
    "GoalSpec", "dist2heaven", "evaluate", "goal", "inspection_areas", "p_opt",
    "SmoteConfig",
    "Candidate", "DEConfig", "ParamSpace", "ParamSpec", "extrapolate",
]
