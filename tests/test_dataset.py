import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defectkit.dataset import (AttributeSchema, Dataset, Manifest, kfold, load_csv, merge, nearest,
                               random_split, row_chunks)
from defectkit.errors import ConfigError, CsvParseError, SchemaError

from conftest import make_dataset, same_data

HEADER = "wmc,dit,cbo,rfc,loc,bug\n"


def write_rows(tmp_path, rows, header=HEADER, name="proj-1.0.csv"):
    path = tmp_path / name
    path.write_text(header + "".join(rows), encoding="utf-8")
    return path


class TestSchema:
    def test_valid(self):
        s = AttributeSchema(("wmc", "loc"), 1)
        assert s.feature_names == ("wmc", "loc")
        assert s.loc_index == 1

    @pytest.mark.parametrize("names,loc", [
        (("a", "a", "b"), 0),        # duplicate name
        (("a", "", "b"), 0),         # empty name
        (("a", "b"), 2),             # loc out of range
    ])
    def test_invalid(self, names, loc):
        with pytest.raises(SchemaError):
            AttributeSchema(names, loc)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_non_binary_label_rejected(self, bad):
        with pytest.raises(SchemaError, match="^labels must be binary$"):
            Dataset(AttributeSchema(("loc",), 0), np.ones((3, 1)), [0, bad, 1])

    def test_features_must_be_a_matrix(self):
        with pytest.raises(SchemaError, match="2-D"):
            Dataset(AttributeSchema(("loc",), 0), np.array([1.0, 2.0]), [0, 1])


class TestLoadCsv:
    def test_counts_and_labels(self, tmp_path):
        path = write_rows(tmp_path, ["1,2,3,4,100,0\n", "5,6,7,8,200,2\n", "9,1,2,3,50,1\n"])
        data = load_csv(path)
        assert len(data) == 3
        assert data.labels.tolist() == [0, 1, 1]
        assert data.defect_ratio == pytest.approx(2 / 3)
        assert data.locs.tolist() == [100.0, 200.0, 50.0]

    def test_header_only(self, tmp_path):
        data = load_csv(write_rows(tmp_path, []))
        assert len(data) == 0
        assert data.defect_ratio == 0.0

    def test_label_aliases_case_insensitive(self, tmp_path):
        path = write_rows(tmp_path, ["1,10,3\n"], header="wmc,LOC,Defects\n")
        data = load_csv(path)
        assert data.labels.tolist() == [1]
        assert data.locs.tolist() == [10.0]

    def test_label_before_loc(self, tmp_path):
        path = write_rows(tmp_path, ["1,7,10\n"], header="bug,wmc,loc\n")
        data = load_csv(path)
        assert data.schema.feature_names == ("wmc", "loc")
        assert data.locs.tolist() == [10.0]
        assert data.labels.tolist() == [1]

    def test_identifier_columns_dropped(self, tmp_path):
        path = write_rows(tmp_path, ["poi,1.5,4,100,1\n"], header="name,version,wmc,loc,bug\n")
        data = load_csv(path)
        assert data.schema.feature_names == ("wmc", "loc")

    def test_byte_order_mark_keeps_first_column_name(self, tmp_path):
        path = tmp_path / "proj-1.0.csv"
        path.write_text("name,wmc,loc,bug\na.B0,1.5,100,1\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        data = load_csv(path)
        assert data.schema.feature_names == ("wmc", "loc")
        assert data.features.tolist() == [[1.5, 100.0]]

    def test_missing_label_column(self, tmp_path):
        with pytest.raises(SchemaError, match="label"):
            load_csv(write_rows(tmp_path, [], header="wmc,loc,other\n"))

    def test_missing_loc_column(self, tmp_path):
        with pytest.raises(SchemaError, match="loc"):
            load_csv(write_rows(tmp_path, [], header="wmc,size,bug\n"))

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write_rows(tmp_path, ["1,2,3,4,100,0\n", "1,2,oops,4,100,0\n"])
        with pytest.raises(CsvParseError, match=r"row 3.*'cbo'"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = write_rows(tmp_path, ["1,2,3,4,100,0\n", f"1,{cell},3,4,100,0\n"])
        with pytest.raises(CsvParseError, match=r"non-finite.*row 3.*'dit'"):
            load_csv(path)

    def test_negative_loc_names_file_row_and_column(self, tmp_path):
        path = write_rows(tmp_path, ["1,2,3,4,100,0\n", "1,2,3,4,-5,0\n"])
        with pytest.raises(SchemaError, match=r"proj-1\.0\.csv: negative loc.*row 3.*'loc'"):
            load_csv(path)

    def test_missing_value_rejected(self, tmp_path):
        path = write_rows(tmp_path, ["1,2,3,4,,0\n"])
        with pytest.raises(CsvParseError):
            load_csv(path)


class TestMerge:
    def test_counts_add_up(self):
        a = make_dataset([[1.0], [2.0]], [0, 1])
        b = make_dataset([[3.0], [4.0]], [1, 1])
        merged = merge([a, b])
        assert len(merged) == 4
        assert merged.n_defective == 3
        assert merged.labels.tolist() == [0, 1, 1, 1]
        assert merged.features[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_identity(self):
        a = make_dataset([[1.0], [2.0]], [0, 1])
        assert same_data(merge([a]), a)

    def test_defect_ratio_matches_brute_force(self):
        rng = np.random.default_rng(0)
        parts = [make_dataset(rng.random((n, 2)), rng.integers(0, 2, n))
                 for n in (3, 5, 7)]
        merged = merge(parts)
        expected = sum(p.n_defective for p in parts) / sum(len(p) for p in parts)
        assert merged.defect_ratio == pytest.approx(expected)

    def test_schema_mismatch_names_column(self):
        a = make_dataset([[1.0]], [0], names=["wmc"])
        b = make_dataset([[1.0]], [0], names=["dit"])
        with pytest.raises(SchemaError, match="wmc"):
            merge([a, b])


class TestRandomSplit:
    def test_80_20(self):
        data = make_dataset(np.arange(100.0), np.zeros(100, dtype=int))
        first, second = random_split(data, 0.8, seed=1)
        assert (len(first), len(second)) == (80, 20)

    def test_single_instance(self):
        data = make_dataset([[1.0]], [0])
        first, second = random_split(data, 0.8, seed=1)
        assert (len(first), len(second)) == (1, 0)

    def test_deterministic_and_disjoint(self):
        data = make_dataset(np.arange(31.0), np.zeros(31, dtype=int))
        a1, b1 = random_split(data, 0.6, seed=9)
        a2, b2 = random_split(data, 0.6, seed=9)
        assert same_data(a1, a2) and same_data(b1, b2)
        combined = sorted(a1.features[:, 0].tolist() + b1.features[:, 0].tolist())
        assert combined == data.features[:, 0].tolist()

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 2.0])
    def test_bad_fraction(self, fraction):
        data = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            random_split(data, fraction, seed=0)


class TestKfold:
    def test_even_folds(self):
        data = make_dataset(np.arange(40.0), np.zeros(40, dtype=int))
        pairs = kfold(data, 10, seed=2)
        assert len(pairs) == 10
        assert all(len(holdout) == 4 for _, holdout in pairs)
        assert all(len(train) == 36 for train, _ in pairs)

    def test_leave_one_out(self):
        data = make_dataset(np.arange(10.0), np.zeros(10, dtype=int))
        pairs = kfold(data, 10, seed=2)
        assert all(len(holdout) == 1 for _, holdout in pairs)

    def test_holdouts_partition_dataset(self):
        data = make_dataset(np.arange(23.0), np.zeros(23, dtype=int))
        pairs = kfold(data, 5, seed=4)
        sizes = sorted(len(h) for _, h in pairs)
        assert max(sizes) - min(sizes) <= 1
        values = sorted(v for _, h in pairs for v in h.features[:, 0].tolist())
        assert values == data.features[:, 0].tolist()

    def test_k_larger_than_n(self):
        data = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            kfold(data, 3, seed=0)


class TestManifest:
    def test_assemble_merges_older_versions(self, tmp_path):
        write_rows(tmp_path, ["1,2,3,4,100,1\n"], name="p-1.0.csv")
        write_rows(tmp_path, ["1,2,3,4,100,0\n", "1,2,3,4,90,1\n"], name="p-2.0.csv")
        write_rows(tmp_path, ["5,6,7,8,50,0\n"], name="p-3.0.csv")
        (tmp_path / "manifest.json").write_text(
            '{"p": ["p-1.0.csv", "p-2.0.csv", "p-3.0.csv"]}', encoding="utf-8")
        resolved = Manifest.load(tmp_path / "manifest.json").assemble()
        train, test = resolved["p"]
        assert len(train) == 3 and len(test) == 1
        assert train.locs.tolist() == [100.0, 100.0, 90.0]  # oldest version first
        assert test.locs.tolist() == [50.0]

    def test_single_version_project_rejected(self, tmp_path):
        write_rows(tmp_path, ["1,2,3,4,100,1\n"], name="p-1.0.csv")
        (tmp_path / "manifest.json").write_text('{"p": ["p-1.0.csv"]}', encoding="utf-8")
        with pytest.raises(ConfigError, match="two versions"):
            Manifest.load(tmp_path / "manifest.json").assemble()


def knn_nearest(z, points, k):
    """knn's own chunked Euclidean ranking, before it moved into `nearest` (an oracle)."""
    return np.concatenate([
        np.argsort(np.sqrt(((z[rows, None, :] - points[None, :, :]) ** 2).sum(axis=2)),
                   axis=1, kind="stable")[:, :k]
        for rows in row_chunks(len(z), points.size)])


class TestNearest:
    # Coordinates in {0, 1, 2, 3} make many equal distances, so tie order counts.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 60), st.integers(0, 40),
           st.integers(1, 8), st.integers(1, 20))
    def test_equals_the_knn_kernel_it_replaced(self, seed, n_points, n_queries, n_features, k):
        rng = np.random.default_rng(seed)
        points = rng.integers(0, 4, (n_points, n_features)).astype(float)
        queries = rng.integers(0, 4, (n_queries, n_features)).astype(float)
        k = min(k, n_points - 1)
        assert np.array_equal(nearest(queries, points, k, 2.0), knn_nearest(queries, points, k))


def test_dataset_is_immutable():
    data = make_dataset([[1.0], [2.0]], [0, 1])
    with pytest.raises(ValueError):
        data.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        data.labels[0] = 1
