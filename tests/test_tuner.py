import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectkit import tuner
from defectkit.tuner import (CATEGORICAL, CONTINUOUS, INTEGER, Candidate,
                             DEConfig, ParamSpace, ParamSpec, _sample_population, extrapolate,
                             run_de)

QUADRATIC_SPACE = ParamSpace((ParamSpec("x", CONTINUOUS, 1.0, 50.0, default=25.0),))
MIXED_SPACE = ParamSpace((
    ParamSpec("x", CONTINUOUS, 0.0, 10.0, default=5.0),
    ParamSpec("n", INTEGER, 1, 20, default=10),
    ParamSpec("flag", CATEGORICAL, values=(False, True), default=False),
    ParamSpec("mode", CATEGORICAL, values=("a", "b", "c"), default="a"),
))


def quadratic(c: Candidate) -> float:
    return -(c.tunings["x"] - 25.0) ** 2


def mixed(c: Candidate) -> float:
    return c.tunings["x"] + c.tunings["n"] + c.tunings["flag"] + "abc".index(c.tunings["mode"])


def challenges(space, objective, direction, cfg, prepare=None):
    """run_de's result, plus each challenge as (generation, slot, incumbent score, challenger
    score, replaced).

    The objective's calls are the np initial members, then one challenger per slot per
    generation; each challenger's incumbent is the target it was extrapolated from.  A slot
    was replaced when its next incumbent is its challenger, which is unknown (None) after
    the last generation.
    """
    calls, targets = [], []

    def recording(candidate):
        calls.append(candidate)
        return objective(candidate)

    def watching(target, *args):
        targets.append(target)
        return extrapolate(target, *args)

    with mock.patch.object(tuner, "extrapolate", watching):
        run = run_de(space, recording, direction, cfg, prepare=prepare)
    challengers = calls[cfg.np:]
    assert len(challengers) == len(targets) == cfg.np * run.generations
    next_incumbents = targets[cfg.np:] + [None] * cfg.np
    return run, [(j // cfg.np + 1, j % cfg.np, incumbent.score, challenger.score,
                  None if after is None else after is challenger)
                 for j, (incumbent, challenger, after)
                 in enumerate(zip(targets, challengers, next_incumbents))]


def round_then_clamp(spec: ParamSpec, raw: float) -> int:
    """Integer trim that rounds before it clamps (the oracle for finite raw values)."""
    rounded = math.floor(raw + 0.5) if raw >= 0 else math.ceil(raw - 0.5)
    return int(min(max(rounded, spec.lo), spec.hi))


class TestParamSpec:
    def test_numeric_needs_lo_below_hi(self):
        with pytest.raises(ValueError):
            ParamSpec("x", CONTINUOUS, 5.0, 5.0)

    def test_categorical_needs_values(self):
        with pytest.raises(ValueError):
            ParamSpec("mode", CATEGORICAL, values=())

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ParamSpec("x", "ordinal", 0, 1)

    def test_integer_trim_rounds_half_away_from_zero(self):
        spec = ParamSpec("n", INTEGER, -10, 10, default=0)
        assert spec.trim(2.5) == 3
        assert spec.trim(-2.5) == -3
        assert spec.trim(2.4) == 2
        assert spec.trim(99.0) == 10

    def test_continuous_trim(self):
        spec = ParamSpec("x", CONTINUOUS, 1.0, 50.0, default=1.0)
        assert spec.trim(81.75) == 50.0
        assert spec.trim(-3.0) == 1.0
        assert spec.trim(12.5) == 12.5

    @settings(max_examples=150, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(-30, 30),
           st.integers(1, 40))
    def test_integer_trim_clamps_like_rounding_first(self, raw, lo, width):
        spec = ParamSpec("n", INTEGER, lo, lo + width, default=lo)
        assert spec.trim(raw) == round_then_clamp(spec, raw)

    @pytest.mark.parametrize("kind", [INTEGER, CONTINUOUS])
    def test_infinite_raw_clamps_to_the_bounds(self, kind):
        # a + f * (b - c) overflows to +-inf when f is near the float maximum.
        spec = ParamSpec("n", kind, 1, 20, default=1)
        assert spec.trim(math.inf) == 20 and spec.trim(-math.inf) == 1
        assert spec.trim(1.0 + 1e308 * 19) == 20


class TestParamSpace:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ParamSpace((ParamSpec("x", CONTINUOUS, 0, 1), ParamSpec("x", INTEGER, 0, 1)))

    def test_validate_names_parameter_and_range(self):
        with pytest.raises(ValueError, match=r"x=99.*0.*10"):
            MIXED_SPACE.validate({"x": 99.0})

    def test_defaults(self):
        assert MIXED_SPACE.defaults() == {"x": 5.0, "n": 10, "flag": False, "mode": "a"}


class TestInitPopulation:
    def test_count_and_ranges(self):
        population = _sample_population(MIXED_SPACE, 10, np.random.default_rng(3))
        assert len(population) == 10
        for candidate in population:
            for spec in MIXED_SPACE:
                assert spec.contains(candidate.tunings[spec.name])

    def test_boolean_dimension_draws_both_values(self):
        population = _sample_population(MIXED_SPACE, 30, np.random.default_rng(3))
        flags = {c.tunings["flag"] for c in population}
        assert flags == {True, False}

    def test_deterministic(self):
        a = _sample_population(MIXED_SPACE, 10, np.random.default_rng(7))
        b = _sample_population(MIXED_SPACE, 10, np.random.default_rng(7))
        assert [c.tunings for c in a] == [c.tunings for c in b]


class TestExtrapolate:
    def test_zero_difference_vector_keeps_target(self):
        members = [Candidate({"x": 4.0, "n": 7, "flag": False, "mode": "b"})
                   for _ in range(4)]
        mutant = extrapolate(members[0], members[1], members[2], members[3],
                             MIXED_SPACE, DEConfig(cr=1.0), np.random.default_rng(0))
        assert mutant.tunings["x"] == 4.0
        assert mutant.tunings["n"] == 7
        assert mutant.tunings["mode"] == "b"

    def test_mutation_formula(self):
        target, a, b, c = (Candidate({"x": v}) for v in (5.0, 10.0, 40.0, 20.0))
        mutant = extrapolate(target, a, b, c, QUADRATIC_SPACE, DEConfig(cr=1.0),
                             np.random.default_rng(0))
        assert mutant.tunings["x"] == pytest.approx(25.0, abs=1e-12)

    def test_mutation_trims_to_range(self):
        target, a, b, c = (Candidate({"x": v}) for v in (5.0, 45.0, 50.0, 1.0))
        mutant = extrapolate(target, a, b, c, QUADRATIC_SPACE, DEConfig(cr=1.0),
                             np.random.default_rng(0))
        assert mutant.tunings["x"] == 50.0  # raw 81.75 trimmed

    def test_categorical_samples_from_donors(self):
        space = ParamSpace((ParamSpec("mode", CATEGORICAL,
                                      values=("a", "b", "c", "d"), default="a"),))
        target = Candidate({"mode": "d"})
        donors = [Candidate({"mode": m}) for m in ("a", "b", "c")]
        rng = np.random.default_rng(1)
        seen = {extrapolate(target, *donors, space, DEConfig(cr=1.0), rng).tunings["mode"]
                for _ in range(50)}
        assert seen == {"a", "b", "c"}

    def test_requires_four_distinct_members(self):
        a = Candidate({"x": 1.0})
        b = Candidate({"x": 2.0})
        with pytest.raises(ValueError):
            extrapolate(a, a, b, Candidate({"x": 3.0}), QUADRATIC_SPACE,
                        DEConfig(), np.random.default_rng(0))

    def test_in_range_on_random_triples(self):
        rng = np.random.default_rng(6)
        cfg = DEConfig(cr=1.0)
        for _ in range(500):
            cands = [Candidate({"x": float(rng.uniform(1, 50)),
                                "n": int(rng.integers(1, 21)),
                                "flag": bool(rng.integers(2)),
                                "mode": "abc"[rng.integers(3)]})
                     for _ in range(4)]
            mutant = extrapolate(*cands, MIXED_SPACE, DEConfig(cr=1.0, f=3.0), rng)
            for spec in MIXED_SPACE:
                assert spec.contains(mutant.tunings[spec.name])


class TestDEConfig:
    @pytest.mark.parametrize("kwargs", [
        {"np": 3}, {"f": 0.0}, {"cr": -0.1}, {"cr": 1.5}, {"life": 0},
        {"f": math.nan}, {"f": math.inf}, {"f": -math.inf},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DEConfig(**kwargs)

    # Each failed only inside run_de, or ran: a float life, a bool f.  A str or complex
    # f or cr raised a bare TypeError from the bound comparison.
    @pytest.mark.parametrize("kwargs", [
        {"np": 5.5}, {"np": True}, {"np": "10"}, {"life": 2.5}, {"life": True},
        {"seed": 1.5}, {"seed": True}, {"seed": -1}, {"f": True}, {"cr": False},
        {"f": "big"}, {"cr": "0.3"}, {"f": None}, {"cr": 0.5j}, {"cr": np.bool_(True)},
    ])
    def test_bool_or_non_integer_count_is_named(self, kwargs):
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {value!r}$"):
            DEConfig(**kwargs)

    def test_numpy_integers_are_counts(self):
        assert DEConfig(np=np.int64(6), life=np.int32(2), seed=np.uint32(7)).np == 6


class TestOptimize:
    def test_constant_objective_spends_exactly_life(self):
        run = run_de(QUADRATIC_SPACE, lambda c: 1.0, "maximize", DEConfig(seed=4, life=5))
        assert run.generations == 5
        assert run.evaluations == 10 * (5 + 1)
        initial = _sample_population(QUADRATIC_SPACE, 10, np.random.default_rng(4))
        assert run.best.tunings in [c.tunings for c in initial]

    def test_run_that_spends_its_lives_stops_for_life(self):
        run = run_de(QUADRATIC_SPACE, quadratic, "maximize", DEConfig(seed=4))
        assert run.generations < tuner.MAX_GENERATIONS
        assert run.stop_reason == "life"

    def test_objective_that_always_improves_stops_at_the_cap(self):
        calls = iter(range(10 ** 6))
        run = run_de(QUADRATIC_SPACE, lambda c: next(calls), "maximize",
                     DEConfig(np=4, life=10 ** 6, seed=4))
        assert run.generations == tuner.MAX_GENERATIONS
        assert run.stop_reason == "max_generations"

    def test_last_life_spent_at_the_cap_stops_for_life(self, monkeypatch):
        monkeypatch.setattr(tuner, "MAX_GENERATIONS", 5)
        run = run_de(QUADRATIC_SPACE, lambda c: 1.0, "maximize", DEConfig(seed=4, life=5))
        assert run.generations == 5
        assert run.stop_reason == "life"

    def test_quadratic_converges(self):
        for seed in (0, 1, 2):
            best = run_de(QUADRATIC_SPACE, quadratic, "maximize", DEConfig(seed=seed)).best
            assert abs(best.tunings["x"] - 25.0) < 1.0

    # Rounded scores tie often, so the tie-breaks of challenges and of the best are drawn too.
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), np_=st.integers(4, 8), life=st.integers(1, 4),
           mixed_space=st.booleans(), step=st.sampled_from([0.5, 3.0, 40.0, 1e9]))
    def test_minimize_maximize_duality(self, seed, np_, life, mixed_space, step):
        space, base = (MIXED_SPACE, mixed) if mixed_space else (QUADRATIC_SPACE, quadratic)
        cfg = DEConfig(np=np_, life=life, seed=seed)

        def tied(c):
            return float(round(base(c) / step))

        run_max, log_max = challenges(space, tied, "maximize", cfg)
        run_min, log_min = challenges(space, lambda c: -tied(c), "minimize", cfg)
        assert (run_max.best.tunings, run_max.evaluations, run_max.generations,
                run_max.stop_reason) == (run_min.best.tunings, run_min.evaluations,
                                         run_min.generations, run_min.stop_reason)
        assert run_max.initial_scores == [-score for score in run_min.initial_scores]
        assert run_max.best_history == [-score for score in run_min.best_history]
        assert [e[:2] + (e[4],) for e in log_max] == [e[:2] + (e[4],) for e in log_min]

    def test_best_history_is_monotone(self):
        run = run_de(QUADRATIC_SPACE, quadratic, "maximize", DEConfig(seed=11))
        for earlier, later in zip(run.best_history, run.best_history[1:]):
            assert later >= earlier

    def test_every_slot_holds_winner_of_challenge(self):
        _, log = challenges(QUADRATIC_SPACE, quadratic, "maximize", DEConfig(seed=12))
        decided = [e for e in log if e[4] is not None]
        assert decided and any(e[4] for e in decided) and not all(e[4] for e in decided)
        for _, _, incumbent, challenger, replaced in decided:
            assert replaced == (challenger > incumbent)

    def test_best_ever_equals_best_of_final_population(self):
        for seed in (1, 5, 13):
            returned = []

            def recording(c: Candidate) -> float:
                returned.append(quadratic(c))
                return returned[-1]

            run = run_de(QUADRATIC_SPACE, recording, "maximize", DEConfig(seed=seed))
            assert len(returned) == run.evaluations
            assert run.best.score == max(returned)

    def test_reproducible(self):
        a = run_de(QUADRATIC_SPACE, quadratic, "maximize", DEConfig(seed=21))
        b = run_de(QUADRATIC_SPACE, quadratic, "maximize", DEConfig(seed=21))
        assert a.best.tunings == b.best.tunings
        assert a.best_history == b.best_history

    def test_seed_candidates_fill_initial_slots(self):
        run = run_de(QUADRATIC_SPACE, quadratic, "maximize", DEConfig(seed=2),
                     seed_candidates=[{"x": 25.0}])
        assert run.initial_scores[0] == 0.0
        assert run.best.score >= 0.0

    def test_seed_candidates_validated(self):
        with pytest.raises(ValueError):
            run_de(QUADRATIC_SPACE, quadratic, "maximize", DEConfig(seed=2),
                   seed_candidates=[{"x": 500.0}])

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            run_de(QUADRATIC_SPACE, quadratic, "upward", DEConfig())

    @pytest.mark.parametrize("space, objective", [(QUADRATIC_SPACE, quadratic),
                                                  (MIXED_SPACE, mixed)], ids=["quadratic", "mixed"])
    @pytest.mark.parametrize("seed", [0, 3, 17, 40])
    def test_prepare_sees_each_batch_once_before_scoring_and_keeps_the_stream(self, space,
                                                                              objective, seed):
        cfg = DEConfig(np=6, life=3, seed=seed)
        scored, batches = [], []  # batches: (candidates, how many were scored before)

        def recording(candidate):
            scored.append(candidate)
            return objective(candidate)

        def prepare(candidates):
            assert all(candidate.score is None for candidate in candidates)
            batches.append((list(candidates), len(scored)))

        run, log = challenges(space, recording, "maximize", cfg, prepare)
        plain_run, plain_log = challenges(space, objective, "maximize", cfg)
        assert log == plain_log
        assert (run.best.tunings, run.evaluations, run.generations, run.initial_scores,
                run.best_history, run.stop_reason) == (
            plain_run.best.tunings, plain_run.evaluations, plain_run.generations,
            plain_run.initial_scores, plain_run.best_history, plain_run.stop_reason)
        # The initial population, then each generation, each before its first score.
        assert len(batches) == run.generations + 1
        for b, (candidates, before) in enumerate(batches):
            assert before == b * cfg.np
            assert [id(c) for c in candidates] == [id(c) for c in scored[before:before + cfg.np]]

    def test_mixed_space_run_stays_in_range(self):
        seen = []

        def objective(c: Candidate) -> float:
            seen.append(dict(c.tunings))
            return mixed(c)
        run = run_de(MIXED_SPACE, objective, "maximize", DEConfig(seed=3))
        assert len(seen) == run.evaluations
        for tunings in seen:
            for spec in MIXED_SPACE:
                assert spec.contains(tunings[spec.name])
        assert run.best.tunings["mode"] == "c"
        assert run.best.tunings["flag"] is True
