"""Differential evolution over mixed parameter spaces, with early termination.

Mutants extrapolate between three population members (a + f*(b - c) on
numeric dimensions) and challenge their parents; when a whole generation
fails to improve anything, the search loses one of its `life` budget and
stops at zero.  The same machinery tunes learner parameters, SMOTE
parameters, or any objective you hand it.
"""

from defectkit import DEConfig, ParamSpace, ParamSpec
from defectkit.tuner import CATEGORICAL, CONTINUOUS, INTEGER, run_de

# --- a one-dimensional sanity problem --------------------------------------
space = ParamSpace((ParamSpec("x", CONTINUOUS, 1.0, 50.0, default=25.0),))


def quadratic(candidate):
    return -(candidate.tunings["x"] - 25.0) ** 2


run = run_de(space, quadratic, "maximize", DEConfig(), seed=0)
print(f"quadratic peak at x=25: DE found x={run.best.tunings['x']:.5f}")
print(f"  {run.generations} generations, {run.evaluations} objective calls")
print(f"  best-so-far trace (first 8): "
      f"{[round(v, 3) for v in run.best_history[:8]]}")

# --- the life mechanism -----------------------------------------------------
flat = run_de(space, lambda c: 1.0, "maximize", DEConfig(life=5), seed=0)
print(f"\na constant objective can never improve, so the search spends its "
      f"5 lives\nand stops after exactly {flat.generations} generations "
      f"({flat.evaluations} calls; stop reason {flat.stop_reason!r})")

# --- mixed spaces: continuous, integer, categorical (a flag is (False, True)) -
mixed = ParamSpace((
    ParamSpec("threshold", CONTINUOUS, 0.01, 1.0, default=0.5),
    ParamSpec("n_estimators", INTEGER, 50, 150, default=100),
    ParamSpec("normalize", CATEGORICAL, values=(False, True), default=False),
    ParamSpec("kernel", CATEGORICAL, values=("linear", "poly", "rbf"), default="rbf"),
))


def preference(candidate):
    t = candidate.tunings
    return (-abs(t["threshold"] - 0.25) - abs(t["n_estimators"] - 120) / 100
            + (1.0 if t["normalize"] else 0.0)
            + {"linear": 0.5, "poly": 0.0, "rbf": 0.25}[t["kernel"]])


best = run_de(mixed, preference, "maximize", DEConfig(), seed=3).best
print("\nmixed-space optimum found by DE:")
for name, value in best.tunings.items():
    print(f"  {name} = {value}")
