import numbers
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from defectkit.dataset import CHUNK_TERMS, Dataset, Memo, row_chunks
from defectkit.errors import DegenerateDataError, check_int
from defectkit.smote import (K_MAX, M_CHOICES, SMOTE_SPACE, SmoteConfig, _segment_draws, apply,
                             neighbour_table)

from conftest import make_dataset, same_data


def is_convex_combination(point, parents, tol=1e-8):
    """True when `point` sits on a segment between two rows of `parents`."""
    for i in range(len(parents)):
        for j in range(len(parents)):
            if i == j:
                continue
            x, nn = parents[i], parents[j]
            d = nn - x
            if np.allclose(d, 0, atol=tol):
                if np.allclose(point, x, atol=tol):
                    return True
                continue
            k = int(np.argmax(np.abs(d)))
            u = (point[k] - x[k]) / d[k]
            if -1e-9 <= u <= 1 + 1e-9 and np.allclose(x + u * d, point, atol=tol):
                return True
    return False


def imbalanced(n_minority=6, n_majority=24, seed=0, n_features=3):
    rng = np.random.default_rng(seed)
    features = np.vstack([rng.uniform(5, 6, (n_minority, n_features)),
                          rng.uniform(0, 1, (n_majority, n_features))])
    labels = np.array([1] * n_minority + [0] * n_majority)
    locs = rng.integers(1, 100, n_minority + n_majority).astype(float)
    return make_dataset(features, labels, loc=locs)


def checked_by_hand(k, m, r, seed):
    """SmoteConfig's checks as written out field by field before SMOTE_SPACE held its
    bounds: the oracle its space-driven checks must equal."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= 20:
        raise ValueError(f"k must be an integer in [1, 20], got {k!r}")
    if m not in (50, 100, 200, 400):
        raise ValueError(f"m must be one of (50, 100, 200, 400), got {m}")
    if type(r) is bool or not isinstance(r, numbers.Real) or not 0.1 <= r <= 5:
        raise ValueError(f"r must be a real number in [0.1, 5], got {r!r}")
    check_int("seed", seed, 0)


# Python and numpy ints and floats, integral or not, near and inside each field's range
# (r's bounds and their float neighbours too), plus bools, strings and None.
NEAR_RANGE = st.one_of(st.integers(-2, 25), st.sampled_from(M_CHOICES), st.floats(0, 6),
                       st.sampled_from([0.1, 5.0, np.nextafter(0.1, 0), np.nextafter(5.0, 6)]))
CONFIG_VALUES = st.one_of(
    NEAR_RANGE,
    NEAR_RANGE.map(float),
    st.integers(-2, 25).map(np.int64),
    st.sampled_from([np.int16, np.uint16, np.int64]).flatmap(
        lambda kind: st.sampled_from(M_CHOICES).map(kind)),
    NEAR_RANGE.map(np.float64),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.text(max_size=3),
    st.none(),
)
# Each field is legal about half the time, so a drawn config often fails on one field alone.
LEGAL = {"k": st.integers(1, 20), "m": st.sampled_from(M_CHOICES), "r": st.floats(0.1, 5.0),
         "seed": st.integers(0, 2 ** 40)}


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"k": 0}, {"k": 21}, {"m": 75}, {"r": 0.05}, {"r": 6.0},
    ])
    def test_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            SmoteConfig(**kwargs)

    @pytest.mark.parametrize("kwargs,field", [
        ({"k": 2.5}, "k"), ({"k": 3.0}, "k"), ({"k": True}, "k"), ({"k": "3"}, "k"),
        ({"r": "2"}, "r"), ({"r": None}, "r"), ({"seed": -1}, "seed"),
        ({"r": True}, "r"), ({"seed": True}, "seed"), ({"seed": 1.5}, "seed"),
        ({"seed": 2.0}, "seed"), ({"seed": "1"}, "seed"),
    ])
    def test_wrong_type_or_sign_names_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            SmoteConfig(**kwargs)

    @settings(max_examples=500, deadline=None)
    @given(**{name: legal | CONFIG_VALUES for name, legal in LEGAL.items()})
    @example(k=5.0, m=50, r=2, seed=0)
    @example(k=1, m=400, r=np.nextafter(5.0, 6), seed=0)
    @example(k=21, m=100, r=np.nextafter(0.1, 0), seed=0)
    @example(k=3, m=200, r=1.0, seed=-1)
    @example(k=np.int64(20), m=50.0, r=np.float64(0.1), seed=np.uint8(3))
    @example(k=10 ** 30, m=np.True_, r=float("nan"), seed=-1)
    def test_accepts_exactly_what_the_checks_by_hand_accept(self, k, m, r, seed):
        try:
            checked_by_hand(k, m, r, seed)
        except ValueError as exc:
            field = str(exc).split()[0]
            with pytest.raises(ValueError, match=f"^{field} "):
                SmoteConfig(k, m, r, seed)
        else:
            cfg = SmoteConfig(k, m, r, seed)
            assert (cfg.k, cfg.m, cfg.r, cfg.seed) == (k, m, r, seed)

    def test_defaults_are_the_spaces(self):
        cfg = SmoteConfig()
        assert {"k": cfg.k, "m": cfg.m, "r": cfg.r} == SMOTE_SPACE.defaults() \
            == {"k": 5, "m": 50, "r": 2.0}

    def test_numpy_scalars_accepted(self):
        cfg = SmoteConfig(k=np.int64(3), r=np.float64(1.5), seed=np.int64(2))
        assert (cfg.k, cfg.r, cfg.seed) == (3, 1.5, 2)

    def test_de_integer_dimension_passes_k_through(self):
        rng = np.random.default_rng(0)
        k_spec = SMOTE_SPACE["k"]
        values = [k_spec.sample(rng) for _ in range(50)]
        values += [k_spec.trim(raw) for raw in rng.uniform(-10, 30, 50)]
        for k in values:
            assert SmoteConfig(k=k, m=50, r=2.0, seed=1).k is k


class TestApply:
    def test_m50_balances_exactly(self):
        data = imbalanced(6, 24)
        out = apply(data, SmoteConfig(k=3, m=50, seed=1))
        counts = np.bincount(out.labels)
        assert counts[0] == counts[1] == len(data) // 2
        assert len(out) == len(data)

    def test_identical_minority_points_synthesise_themselves(self):
        data = make_dataset([[2.0, 2.0], [2.0, 2.0], [0.0, 0.0], [0.1, 0.0],
                             [0.2, 0.3], [0.3, 0.1], [0.4, 0.2], [0.5, 0.1]],
                            [1, 1, 0, 0, 0, 0, 0, 0],
                            loc=[7, 7, 1, 1, 1, 1, 1, 1])
        out = apply(data, SmoteConfig(k=1, m=50, seed=3))
        synthetic = out.features[out.labels == 1][2:]
        assert len(synthetic) == 2
        assert np.allclose(synthetic, [2.0, 2.0, 7.0])

    def test_two_point_minority_stays_on_segment(self):
        data = make_dataset([[0.0, 0.0], [1.0, 1.0], [5.0, 0.0], [6.0, 0.0],
                             [7.0, 0.0], [8.0, 0.0], [9.0, 0.0], [5.5, 0.0]],
                            [1, 1, 0, 0, 0, 0, 0, 0],
                            loc=[10, 20, 1, 1, 1, 1, 1, 1])
        out = apply(data, SmoteConfig(k=1, m=50, seed=5))
        synthetic = out.features[out.labels == 1][2:]
        for s in synthetic:
            # both feature coordinates equal (the segment is y=x) and in [0,1]
            assert s[0] == pytest.approx(s[1], abs=1e-12)
            assert 0.0 <= s[0] <= 1.0
            # loc interpolates with the same u along [10, 20]
            assert s[2] == pytest.approx(10 + 10 * s[0], abs=1e-9)

    def test_synthetics_are_convex_combinations(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            n_minority = int(rng.integers(2, 9))
            data = imbalanced(n_minority, 20, seed=trial)
            out = apply(data, SmoteConfig(k=min(5, n_minority - 1), m=50, seed=trial))
            parents = data.features[data.labels == 1]
            synthetic = out.features[out.labels == 1][n_minority:]
            for s in synthetic:
                assert is_convex_combination(s, parents)

    def test_input_not_mutated_and_originals_identical(self):
        data = imbalanced(5, 20)
        before = data.features.copy()
        out = apply(data, SmoteConfig(k=2, m=50, seed=9))
        assert np.array_equal(data.features, before)
        kept_minority = out.features[out.labels == 1][:5]
        assert np.array_equal(kept_minority, data.features[data.labels == 1])

    def test_deterministic(self):
        data = imbalanced(5, 20)
        a = apply(data, SmoteConfig(k=2, m=50, seed=11))
        b = apply(data, SmoteConfig(k=2, m=50, seed=11))
        assert same_data(a, b)

    def test_m100_and_above_keep_majority(self):
        data = imbalanced(5, 20)
        for m, expected_minority in ((100, 25), (200, 50), (400, 100)):
            out = apply(data, SmoteConfig(k=2, m=m, seed=2))
            counts = np.bincount(out.labels)
            assert counts[1] == expected_minority
            assert counts[0] == 20

    def test_k_clamped_with_warning(self):
        data = imbalanced(3, 12)
        with pytest.warns(UserWarning, match="clamped"):
            out = apply(data, SmoteConfig(k=10, m=50, seed=4))
        assert np.bincount(out.labels)[1] == round(len(data) / 2)  # half rounds up

    def test_tiny_minority_rejected(self):
        data = imbalanced(1, 10)
        with pytest.raises(DegenerateDataError):
            apply(data, SmoteConfig(k=1, m=50, seed=0))

    def test_single_class_rejected(self):
        data = make_dataset([[1.0], [2.0]], [0, 0])
        with pytest.raises(DegenerateDataError):
            apply(data, SmoteConfig(seed=0))

    def test_synthetics_carry_minority_label(self):
        data = imbalanced(4, 16)
        out = apply(data, SmoteConfig(k=2, m=100, seed=6))
        assert (out.labels[len(out.labels) - (20 - 4):] == 1).all()


def smote_neighbour_table(points, k, r):
    """SMOTE's own chunked self-excluding table, before it moved into `nearest` (an oracle)."""
    tables = []
    for rows in row_chunks(len(points), points.size):
        diffs = np.abs(points[rows, None, :] - points[None, :, :]) ** r
        distances = diffs.sum(axis=2) ** (1.0 / r)
        own = np.arange(len(points))[rows]
        distances[np.arange(len(own)), own] = np.inf
        tables.append(np.argsort(distances, axis=1, kind="stable")[:, :k])
    return np.concatenate(tables)


class TestNeighbourTable:
    # Coordinates in {0, 1, 2, 3} make many equal distances, so tie order counts.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 60), st.integers(1, 8), st.integers(1, 20),
           st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.7]), st.floats(0.1, 5.0)))
    def test_equals_the_smote_kernel_it_replaced(self, seed, n_points, n_features, k, r):
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 4, (n_points, n_features)).astype(float)
        k = min(k, n_points - 1)
        assert np.array_equal(neighbour_table(points, k, r, Memo(None, 1)),
                              smote_neighbour_table(points, k, r))

    # One memo serves every r in turn, from its pair differences below CHUNK_TERMS
    # terms and from chunks above (m >= 257 at 8 features).
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_points=st.integers(2, 40),
           n_features=st.integers(1, 8), above_bound=st.booleans(),
           rs=st.lists(st.one_of(st.sampled_from([0.5, 1, 1.0, 2.0, 3.7]), st.floats(0.1, 5.0)),
                       min_size=2, max_size=5))
    def test_tables_from_one_memo_equal_the_oracle(self, seed, n_points, n_features,
                                                   above_bound, rs):
        if above_bound:
            n_points, n_features = 257 + n_points, 8
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 4, (n_points, n_features)).astype(float)
        memo, k = Memo(None, len(rs) + 1), min(K_MAX, n_points - 1)
        for r in rs:
            assert np.array_equal(neighbour_table(points, k, r, memo),
                                  smote_neighbour_table(points, k, r))
        above = n_points * (n_points - 1) // 2 * n_features > CHUNK_TERMS
        assert above is above_bound and ("pairs" in memo.entries) is not above


def one_shot_neighbours(points, k, r):
    """The neighbour table from one m x m x F distance array (the chunking oracle)."""
    diffs = np.abs(points[:, None, :] - points[None, :, :]) ** r
    distances = diffs.sum(axis=2) ** (1.0 / r)
    np.fill_diagonal(distances, np.inf)
    return np.argsort(distances, axis=1, kind="stable")[:, :k]


class TestNeighbourChunks:
    @pytest.mark.parametrize("m,n_features,k,r", [
        (250, 22, 5, 2.0), (301, 9, 1, 1.0), (180, 40, 20, 0.5), (223, 17, 7, 3.7)])
    def test_chunked_table_equals_one_shot(self, m, n_features, k, r):
        rng = np.random.default_rng(m)
        # Small integer coordinates make many equal distances, so tie order counts.
        points = rng.integers(0, 4, size=(m, n_features)).astype(float)
        assert len(row_chunks(m, points.size)) > 1
        memo = Memo(None, 2)
        assert np.array_equal(neighbour_table(points, k, r, memo),
                              one_shot_neighbours(points, k, r))
        assert not memo.entries  # above CHUNK_TERMS terms no memo keeps the pair differences

    def test_peak_memory_does_not_grow_with_minority_squared(self):
        data = imbalanced(n_minority=600, n_majority=700, n_features=10)
        tracemalloc.start()
        try:
            apply(data, SmoteConfig(k=5, m=50, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One 600 x 600 x 11 float array alone is 31.7 MB.  Two 2 MiB steps live at once and
        # every row's full 600-point ranking kept read 6.7 MiB; one 512 KiB step, 0.75 MiB.
        assert peak < 2 * 2 ** 20


def reference_apply(data: Dataset, cfg: SmoteConfig) -> Dataset:
    """SMOTE with one synthetic row per loop iteration (the vectorised kernel's oracle)."""
    labels = data.labels
    counts = np.bincount(labels, minlength=2)
    if counts.min() == 0:
        raise DegenerateDataError("both classes must be present to rebalance")
    minority = 1 if counts[1] <= counts[0] else 0
    minority_idx = np.nonzero(labels == minority)[0]
    majority_idx = np.nonzero(labels != minority)[0]
    if len(minority_idx) < 2:
        raise DegenerateDataError("need at least 2 minority instances to interpolate")

    k = cfg.k
    if k >= len(minority_idx):
        k = len(minority_idx) - 1
        warnings.warn(f"k={cfg.k} clamped to {k}: only {len(minority_idx)} minority instances")

    n = len(data)
    target_minority = int(np.floor(cfg.m / 100 * n + 0.5))
    n_synthetic = max(0, target_minority - len(minority_idx))
    if target_minority < n:
        keep_majority = min(len(majority_idx), n - target_minority)
    else:
        keep_majority = len(majority_idx)

    rng = np.random.default_rng(cfg.seed)
    minority_points = data.features[minority_idx]
    neighbours = smote_neighbour_table(minority_points, k, cfg.r)

    synthetic = np.empty((n_synthetic, data.features.shape[1]))
    for i in range(n_synthetic):
        seed_pos = int(rng.integers(0, len(minority_idx)))
        nn_pos = int(neighbours[seed_pos][int(rng.integers(0, k))])
        u = rng.uniform()
        synthetic[i] = minority_points[seed_pos] + u * (minority_points[nn_pos]
                                                        - minority_points[seed_pos])

    if keep_majority < len(majority_idx):
        kept = np.sort(rng.choice(majority_idx, size=keep_majority, replace=False))
    else:
        kept = majority_idx
    originals = np.sort(np.concatenate([minority_idx, kept]))

    features = np.concatenate([data.features[originals], synthetic])
    new_labels = np.concatenate([labels[originals],
                                 np.full(n_synthetic, minority, dtype=int)])
    return Dataset(data.schema, features, new_labels)


class TestVectorisedKernel:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_minority=st.integers(2, 40),
           extra_majority=st.integers(0, 40), n_features=st.integers(1, 5),
           levels=st.sampled_from([1, 2, 3, None]), k=st.integers(1, 20),
           m=st.sampled_from(M_CHOICES), r=st.floats(0.1, 5.0))
    @example(seed=0, n_minority=6, extra_majority=0, n_features=2, levels=None, k=3, m=50, r=2.0)
    @example(seed=7, n_minority=2, extra_majority=3, n_features=1, levels=1, k=20, m=400, r=0.37)
    def test_equals_per_row_reference(self, seed, n_minority, extra_majority, n_features,
                                      levels, k, m, r):
        rng = np.random.default_rng(seed)
        n = 2 * n_minority + extra_majority
        # Few coordinate levels give duplicate minority rows and tied distances.
        features = (rng.uniform(0, 10, (n, n_features)) if levels is None
                    else rng.integers(0, levels, (n, n_features)).astype(float))
        labels = rng.permutation([1] * n_minority + [0] * (n - n_minority))
        data = make_dataset(features, labels, loc=rng.integers(1, 100, n).astype(float))
        cfg = SmoteConfig(k=k, m=m, r=r, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert same_data(apply(data, cfg), reference_apply(data, cfg))


def comparable_state(rng):
    """The generator state, minus the stale 32-bit buffer that no draw will read."""
    state = dict(rng.bit_generator.state)
    if not state["has_uint32"]:
        del state["uinteger"]
    return state


class ScalarDrawsForbidden:
    """A generator whose raw words can be read but whose scalar draws raise."""

    def __init__(self, rng):
        self.bit_generator = rng.bit_generator


class TestSegmentDraws:
    # n = 2**31 + 1 rejects about half of all 32-bit words, so those cases take
    # the rewind-and-redraw path; the small ranges almost never reject, and a
    # half-used 32-bit buffer always redraws one round at a time.  At k == 1 an
    # odd count leaves the last index word's high half buffered for `choice`.
    @pytest.mark.parametrize("n_points", [2, 64, 1000, 2 ** 31 + 1])
    @pytest.mark.parametrize("k", [1, 2, 20])
    @pytest.mark.parametrize("count", [0, 1, 300, 301])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_matches_scalar_draws(self, n_points, k, count, buffered):
        fast, scalar = np.random.default_rng(count + k), np.random.default_rng(count + k)
        if buffered:
            assert fast.integers(0, 5) == scalar.integers(0, 5)
        seed_pos, nn_rank, u = _segment_draws(fast, n_points, k, count)
        rounds = [(scalar.integers(0, n_points), scalar.integers(0, k), scalar.uniform())
                  for _ in range(count)]
        assert seed_pos.tolist() == [row[0] for row in rounds]
        assert nn_rank.tolist() == [row[1] for row in rounds]
        assert u.tolist() == [row[2] for row in rounds]
        assert comparable_state(fast) == comparable_state(scalar)
        assert np.array_equal(fast.choice(np.arange(500), size=120, replace=False),
                              scalar.choice(np.arange(500), size=120, replace=False))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("count", [1, 2, 301])
    def test_fresh_generator_needs_no_scalar_draw(self, k, count):
        # With power-of-two ranges no 32-bit word is ever rejected, so every
        # round must come from the raw words; a scalar draw would raise here.
        _segment_draws(ScalarDrawsForbidden(np.random.default_rng(count)), 64, k, count)


class TestNeighbourMemo:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_minority=st.integers(2, 30),
           levels=st.sampled_from([2, None]), size=st.integers(1, 3),
           configs=st.lists(st.tuples(st.integers(1, K_MAX), st.sampled_from(M_CHOICES),
                                      st.sampled_from([0.5, 1, 1.0, 2.0, 3.7])),
                            min_size=1, max_size=8))
    def test_shared_memo_equals_fresh_tables(self, seed, n_minority, levels, size, configs):
        rng = np.random.default_rng(seed)
        n = 3 * n_minority
        # Few coordinate levels give tied distances, so the prefix must keep tie order.
        features = (rng.uniform(0, 10, (n, 3)) if levels is None
                    else rng.integers(0, levels, (n, 3)).astype(float))
        labels = rng.permutation([1] * n_minority + [0] * (n - n_minority))
        data = make_dataset(features, labels)
        memo = Memo(data, size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for i, (k, m, r) in enumerate(configs):
                cfg = SmoteConfig(k=k, m=m, r=r, seed=seed + i)
                expected = reference_apply(data, cfg)
                assert same_data(apply(data, cfg, memo=memo), expected)
                assert same_data(apply(data, cfg), expected)
                assert len(memo.entries) <= size
                assert next(reversed(memo.entries)) == (type(r), r)

    def test_refuses_another_dataset(self):
        data, other = imbalanced(5, 20, seed=1), imbalanced(5, 20, seed=1)
        memo = Memo(data, 2)
        apply(data, SmoteConfig(k=2, seed=1), memo=memo)
        with pytest.raises(ValueError, match="Memo serves its own dataset"):
            apply(other, SmoteConfig(k=2, seed=1), memo=memo)
