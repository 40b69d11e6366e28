"""Dataset loading, storage semantics, and round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import dense_to_csr, sparse_matrices

import forestfuse as ff


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def two_continuous():
    return ff.continuous_schema(["a", "b"])


class TestDenseCsv:
    def test_basic_load_with_missing(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1.0,2.0\n3.0,NA\n")
        ds = ff.load_dense_csv(path, two_continuous())
        assert ds.n_rows == 2
        assert ds.n_features == 2
        assert ds.n_missing == 1
        assert ds.missing[1, 1]
        assert ds.read_cells(0, 1) == 2.0
        assert np.isnan(ds.read_cells(1, 1))

    def test_unknown_category_label(self, tmp_path):
        schema = ff.FeatureSchema([
            ff.Feature("color", ff.CATEGORICAL, ("red", "blue")),
        ])
        path = write(tmp_path, "d.csv", "color\nred\ngreen\n")
        with pytest.raises(ff.SchemaError, match="green"):
            ff.load_dense_csv(path, schema)

    def test_missing_token_count_matches_text_scan(self, tmp_path):
        # independent oracle: count NA tokens in the raw text before parsing
        rng = np.random.default_rng(42)
        rows = []
        for _ in range(100):
            cells = []
            for _ in range(4):
                if rng.uniform() < 0.15:
                    cells.append("NA")
                else:
                    cells.append(repr(float(rng.normal())))
            rows.append(",".join(cells))
        text = "a,b,c,d\n" + "\n".join(rows) + "\n"
        expected = sum(line.split(",").count("NA") for line in rows)
        path = write(tmp_path, "d.csv", text)
        ds = ff.load_dense_csv(path, ff.continuous_schema(list("abcd")))
        assert ds.n_missing == expected

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ff.FormatError, match="expected 2 fields"):
            ff.load_dense_csv(path, two_continuous())

    def test_non_numeric_continuous(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1.0,zap\n")
        with pytest.raises(ff.ParseError, match="zap"):
            ff.load_dense_csv(path, two_continuous())

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_continuous_names_line_and_column(self, tmp_path,
                                                         cell):
        path = write(tmp_path, "d.csv", f"a,b\n1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(ff.ParseError, match=r"d\.csv:3: column 'b'"):
            ff.load_dense_csv(path, two_continuous())

    @pytest.mark.parametrize("text, error, match", [
        # different lines: a later column's fault on an earlier line wins
        ("a,c,b,y\n1,red,zap,0\n2,green,3,0\n", ff.ParseError,
         r"d\.csv:2: column 'b': cannot parse 'zap' as a number"),
        ("a,c,b,y\n1,red,2,0\n2,red,zap,0\n1,green,3,0\n", ff.ParseError,
         r"d\.csv:3: column 'b': cannot parse 'zap'"),
        # one line: the earlier column wins, the target comes last
        ("a,c,b,y\n1,red,2,0\n2,green,zap,0\n", ff.SchemaError,
         r"d\.csv:3: column 'c'"),
        ("a,c,b,y\nzap,green,2,0\n", ff.ParseError, r"d\.csv:2: column 'a'"),
        ("a,c,b,y\n1,red,zap,?\n", ff.ParseError, r"d\.csv:2: column 'b'"),
        ("a,c,b,y\n1,red,2,?\n1,red,zap,0\n", ff.ParseError,
         r"d\.csv:2: cannot parse target '\?'"),
        # a bad cell before a short line is named first, and after it not
        ("a,c,b,y\n1,red,zap,0\n1,red\n", ff.ParseError,
         r"d\.csv:2: column 'b'"),
        ("a,c,b,y\n1,red\n1,red,zap,0\n", ff.FormatError,
         r"d\.csv:2: expected 4 fields, got 2"),
        # a parse fault anywhere comes before a non-finite cell
        ("a,c,b,y\nnan,red,2,0\n1,red,zap,0\n", ff.ParseError,
         r"d\.csv:3: column 'b': cannot parse"),
    ])
    @pytest.mark.parametrize("block_rows", [1, 2, 256])
    def test_first_bad_cell_in_row_major_order(self, tmp_path, monkeypatch,
                                               block_rows, text, error, match):
        # records are parsed a block at a time; a fault names its file line
        monkeypatch.setattr(ff.dataset, "_CSV_BLOCK_ROWS", block_rows)
        schema = ff.FeatureSchema([
            ff.Feature("a", ff.CONTINUOUS),
            ff.Feature("c", ff.CATEGORICAL, ("red", "blue")),
            ff.Feature("b", ff.CONTINUOUS),
        ])
        path = write(tmp_path, "d.csv", text)
        with pytest.raises(error, match=match):
            ff.load_dense_csv(path, schema, target_column="y")

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_blocks_of_records_parse_as_one_table(self, tmp_path, monkeypatch,
                                                  block_rows):
        schema = ff.FeatureSchema([
            ff.Feature("a", ff.CONTINUOUS),
            ff.Feature("c", ff.CATEGORICAL, ("red", "blue")),
        ])
        rng = np.random.default_rng(3)
        lines = [f"{'NA' if rng.uniform() < 0.2 else repr(rng.normal())},"
                 f"{rng.choice(['red', 'blue', 'NA'])},{r}" for r in range(40)]
        path = write(tmp_path, "d.csv", "a,c,y\n" + "\n".join(lines) + "\n")
        whole = ff.load_dense_csv(path, schema, target_column="y")
        monkeypatch.setattr(ff.dataset, "_CSV_BLOCK_ROWS", block_rows)
        parts = ff.load_dense_csv(path, schema, target_column="y")
        np.testing.assert_array_equal(parts.values, whole.values)
        np.testing.assert_array_equal(parts.missing, whole.missing)
        np.testing.assert_array_equal(parts.target, np.arange(40.0))
        assert whole.n_missing > 0

    def test_header_mismatch(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,c\n1.0,2.0\n")
        with pytest.raises(ff.SchemaError):
            ff.load_dense_csv(path, two_continuous())

    def test_target_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,y,b\n1.0,0,2.0\n3.0,1,4.0\n")
        ds = ff.load_dense_csv(path, two_continuous(), target_column="y")
        assert list(ds.target) == [0.0, 1.0]
        assert ds.read_cells(1, 1) == 4.0

    def test_missing_target_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1.0,2.0\n")
        with pytest.raises(ff.SchemaError, match="'y'"):
            ff.load_dense_csv(path, two_continuous(), target_column="y")

    def test_categorical_codes(self, tmp_path):
        schema = ff.FeatureSchema([
            ff.Feature("x", ff.CONTINUOUS),
            ff.Feature("color", ff.CATEGORICAL, ("red", "blue", "green")),
        ])
        path = write(tmp_path, "d.csv", "x,color\n1.0,blue\n2.0,red\n3.0,green\n")
        ds = ff.load_dense_csv(path, schema)
        assert ds.read_cells(np.arange(3), 1).tolist() == [1.0, 0.0, 2.0]

    def test_roundtrip_matches_raw_text(self, tmp_path):
        # oracle: parse the file contents with a plain text scan
        rng = np.random.default_rng(3)
        values = rng.normal(size=(20, 3))
        lines = ["a,b,c"] + [",".join(repr(float(v)) for v in row)
                             for row in values]
        path = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
        ds = ff.load_dense_csv(path, ff.continuous_schema(list("abc")))
        for r in range(20):
            for k in range(3):
                assert ds.read_cells(r, k) == float(lines[r + 1].split(",")[k])

    def test_write_then_load_idempotent(self, tmp_path):
        path = write(tmp_path, "d.csv",
                     "a,b\n0.30000000000000004,NA\n1.5,2.25\n")
        schema = two_continuous()
        ds1 = ff.load_dense_csv(path, schema)
        out1 = tmp_path / "o1.csv"
        ff.write_dense_csv(ds1, out1)
        ds2 = ff.load_dense_csv(out1, schema)
        out2 = tmp_path / "o2.csv"
        ff.write_dense_csv(ds2, out2)
        assert out1.read_bytes() == out2.read_bytes()


class TestSvmlight:
    def test_single_entry_line(self, tmp_path):
        path = write(tmp_path, "s.txt", "1 3:0.5\n")
        ds = ff.load_sparse_svmlight(path, n_features=4)
        assert ds.is_sparse
        assert ds.read_cells(0, np.arange(4)).tolist() == [0.0, 0.0, 0.5, 0.0]
        assert ds.target[0] == 1.0
        assert ds.n_missing == 0

    def test_empty_feature_list(self, tmp_path):
        path = write(tmp_path, "s.txt", "0\n1 1:2.0\n")
        ds = ff.load_sparse_svmlight(path, n_features=2)
        assert ds.read_cells(0, np.arange(2)).tolist() == [0.0, 0.0]

    def test_nnz_matches_token_count(self, tmp_path):
        # oracle: number of ':' tokens in the raw text
        rng = np.random.default_rng(5)
        lines = []
        for _ in range(50):
            cols = sorted(rng.choice(np.arange(1, 11), size=rng.integers(0, 6),
                                     replace=False))
            toks = [f"{c}:{rng.normal():.4f}" for c in cols]
            lines.append(" ".join([str(rng.integers(0, 2))] + toks))
        text = "\n".join(lines) + "\n"
        path = write(tmp_path, "s.txt", text)
        ds = ff.load_sparse_svmlight(path, n_features=10)
        assert len(ds.data) == text.count(":")

    def test_column_zero_rejected(self, tmp_path):
        path = write(tmp_path, "s.txt", "1 0:2.0\n")
        with pytest.raises(ff.FormatError):
            ff.load_sparse_svmlight(path, n_features=3)

    def test_column_beyond_range_rejected(self, tmp_path):
        path = write(tmp_path, "s.txt", "1 4:2.0\n")
        with pytest.raises(ff.FormatError):
            ff.load_sparse_svmlight(path, n_features=3)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line_and_column(self, tmp_path, value):
        path = write(tmp_path, "s.txt", f"1 1:2.0\n0 1:1.0 3:{value}\n")
        with pytest.raises(ff.ParseError, match=r"s\.txt:2: column 3"):
            ff.load_sparse_svmlight(path, n_features=3)

    def test_non_increasing_columns_rejected(self, tmp_path):
        path = write(tmp_path, "s.txt", "1 2:1.0 2:2.0\n")
        with pytest.raises(ff.FormatError, match="strictly increasing"):
            ff.load_sparse_svmlight(path, n_features=3)

    def test_non_utf8_bytes_raise_parse_error(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"1 1:2.0\n0 1:\xff\n")
        with pytest.raises(ff.ParseError, match=r"s\.txt: not UTF-8 text"):
            ff.load_sparse_svmlight(path, n_features=3)


class TestCellSemantics:
    def test_dense_missing_cell(self):
        ds = ff.Dataset.from_dense([[1.0, 2.0]],
                                   missing_mask=[[False, True]])
        assert ds.read_cells(0, 0) == 1.0
        assert ds.missing[0, 1] and np.isnan(ds.read_cells(0, 1))

    def test_csr_absent_column_is_zero(self):
        ds = ff.Dataset.from_csr([0, 1], [0], [3.0], n_features=3)
        assert ds.read_cells(0, 2) == 0.0
        assert not ds.missing[0, 2] and ds.n_missing == 0

    def test_out_of_bounds(self):
        dense = ff.Dataset.from_dense([[1.0]])
        with pytest.raises(IndexError):
            dense.read_cells(0, 1)
        for ds in (dense, ff.Dataset.from_csr([0, 1], [0], [1.0], 1)):
            for row in (1, -1):
                with pytest.raises(IndexError):
                    ds.read_cells(row, 0)

    def test_iteration_covers_every_cell(self):
        ds = ff.Dataset.from_dense(np.arange(12.0).reshape(3, 4),
                                   missing_mask=np.eye(3, 4, dtype=bool))
        results = ds.read_cells(np.arange(ds.n_rows)[:, None],
                                np.arange(ds.n_features))
        assert results.shape == (3, 4)
        assert np.array_equal(np.isnan(results), ds.missing)
        assert ds.n_missing == 3

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    def test_csr_equals_dense_with_explicit_zeros(self, n, m, seed):
        rng = np.random.default_rng(seed)
        dense = np.round(rng.normal(size=(n, m)), 3)
        dense[rng.uniform(size=(n, m)) < 0.5] = 0.0
        indptr = [0]
        indices, data = [], []
        for r in range(n):
            for k in range(m):
                if dense[r, k] != 0.0:
                    indices.append(k)
                    data.append(dense[r, k])
            indptr.append(len(indices))
        csr = ff.Dataset.from_csr(indptr, indices, data, m)
        dd = ff.Dataset.from_dense(dense)
        for r in range(n):
            for k in range(m):
                assert csr.read_cells(r, k) == dd.read_cells(r, k)

    @pytest.mark.parametrize("indptr, indices, data", [
        ([], [], []), ([[0, 1]], [0], [1.0]), ([0, 1], [[0]], [1.0])],
        ids=["no offsets", "2-D offsets", "2-D indices"])
    def test_csr_arrays_must_be_vectors_with_an_offset(self, indptr, indices,
                                                       data):
        with pytest.raises(ff.FormatError, match="at least one offset"):
            ff.Dataset.from_csr(indptr, indices, data, 3)

    def test_dense_values_must_be_a_table(self):
        with pytest.raises(ff.ArgumentError, match="2-D"):
            ff.Dataset.from_dense(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("values", [[["a", "b"]], [[1.0], [2.0, 3.0]]],
                             ids=["strings", "ragged"])
    def test_dense_values_must_be_numbers(self, values):
        with pytest.raises(ff.ArgumentError, match="must be numbers"):
            ff.Dataset.from_dense(values)

    def test_dense_target_must_be_numbers(self):
        with pytest.raises(ff.ArgumentError, match="target must be numbers"):
            ff.Dataset.from_dense([[1.0]], target=["a"])

    @pytest.mark.parametrize("data, target", [(["x"], None), ([1.0], ["y"])],
                             ids=["values", "target"])
    def test_csr_values_and_target_must_be_numbers(self, data, target):
        with pytest.raises(ff.FormatError, match="must be numbers"):
            ff.Dataset.from_csr([0, 1], [0], data, 2, target=target)

    @pytest.mark.parametrize("indptr, indices", [
        ([0, 1.5], [0]), ([0, 1], [0.5]), ([0, np.nan], [0])],
        ids=["fractional offset", "fractional index", "nan offset"])
    def test_csr_ids_must_be_whole_numbers(self, indptr, indices):
        with pytest.raises(ff.FormatError, match="whole numbers"):
            ff.Dataset.from_csr(indptr, indices, [1.0], 2)
        # whole floats are accepted as their integers
        ds = ff.Dataset.from_csr([0.0, 1.0], [1.0], [1.0], 2)
        assert ds.read_cells(0, 1) == 1.0 and ds.indptr.dtype == np.int64

    @pytest.mark.parametrize("indptr, indices, n_features", [
        ([0, "x"], [0], 2), ([0, 1], ["x"], 2), ([0, 1], [0], "2")],
        ids=["offsets", "indices", "n_features"])
    def test_csr_ids_must_not_be_strings(self, indptr, indices, n_features):
        with pytest.raises(ff.FormatError, match="whole numbers"):
            ff.Dataset.from_csr(indptr, indices, [1.0], n_features)

    def test_missing_mask_must_hold_booleans(self):
        with pytest.raises(ff.ArgumentError, match="booleans"):
            ff.Dataset.from_dense([[1.0]], missing_mask=[["a"]])
        ds = ff.Dataset.from_dense([[1.0, 2.0]], missing_mask=[[0, 1]])
        assert ds.n_missing == 1 and ds.has_missing

    def test_csr_completeness_reads_no_mask(self):
        # CSR storage is complete by construction; summing its broadcast
        # mask took 0.46 s per call at 20,000 x 50,000
        ds = ff.Dataset.from_csr([0, 1, 1], [3], [1.0], 5)
        ds.missing = None
        assert ds.n_missing == 0 and not ds.has_missing

    def test_csr_validation(self):
        with pytest.raises(ff.FormatError):
            ff.Dataset.from_csr([0, 2, 1], [0, 1], [1.0, 2.0], n_features=2)
        with pytest.raises(ff.FormatError):
            ff.Dataset.from_csr([0, 2], [1, 0], [1.0, 2.0], n_features=2)
        with pytest.raises(ff.FormatError):
            ff.Dataset.from_csr([0, 1], [5], [1.0], n_features=2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cells_rejected(self, value):
        values = [[1.0, 2.0], [3.0, value]]
        with pytest.raises(ff.ArgumentError, match=r"\(1, 1\)"):
            ff.Dataset.from_dense(values)
        # a missing cell may hold anything: the mask makes it NaN
        ds = ff.Dataset.from_dense(values, missing_mask=[[False, False],
                                                         [False, True]])
        assert ds.n_missing == 1 and np.isnan(ds.read_cells(1, 1))
        # replacement values are complete: no cell may be non-finite
        with pytest.raises(ff.ArgumentError, match=r"\(1, 1\) is not finite"):
            ds.with_values(values)
        with pytest.raises(ff.FormatError, match="row 1, column 1"):
            ff.Dataset.from_csr([0, 1, 3], [0, 0, 1], [1.0, 3.0, value],
                                n_features=2)

    def test_bad_categorical_codes_rejected(self):
        schema = ff.FeatureSchema([ff.Feature("c", ff.CATEGORICAL, ("x", "y"))])
        with pytest.raises(ff.SchemaError):
            ff.Dataset.from_dense([[2.0]], schema)
        with pytest.raises(ff.SchemaError):
            ff.Dataset.from_dense([[0.5]], schema)


class TestCsrColumnIndex:
    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_gather_column_matches_dense(self, matrix, data):
        dense, stored_zero = matrix
        n, m = dense.shape
        csr = ff.Dataset.from_csr(*dense_to_csr(dense, stored_zero), m)
        dd = ff.Dataset.from_dense(dense)
        # any order, repeats allowed, first and last row always present
        rows = [0] + data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n)) \
            + [n - 1]
        rows = np.array(data.draw(st.permutations(rows)))
        for k in range(m):
            assert np.array_equal(csr.gather_column(rows, k),
                                  dd.gather_column(rows, k))
        assert csr.gather_column(np.array([], dtype=np.int64), 0).shape == (0,)
        # any cells at once: every row against every feature
        assert np.array_equal(csr.read_cells(rows[:, None], np.arange(m)),
                              dense[rows])

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices())
    def test_cell_reads_match_dense(self, matrix):
        dense, stored_zero = matrix
        n, m = dense.shape
        csr = ff.Dataset.from_csr(*dense_to_csr(dense, stored_zero), m)
        dd = ff.Dataset.from_dense(dense)
        every = np.arange(m)
        assert np.array_equal(csr.read_cells(np.arange(n)[:, None], every),
                              dense)
        for r in range(n):
            assert np.array_equal(csr.read_cells(r, every),
                                  dd.read_cells(r, every))
            for k in range(m):
                assert csr.read_cells(r, k) == dd.read_cells(r, k)

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_non_increasing_columns_name_first_bad_row(self, matrix, data):
        dense, _ = matrix
        n, m = dense.shape
        dense[:, 0] = 1.0  # every row has an entry to corrupt
        indptr, indices, values = dense_to_csr(dense)
        bad = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        row_cols = [list(indices[indptr[r]:indptr[r + 1]]) for r in range(n)]
        for r in bad:
            cols = row_cols[r]
            # a repeated column, or two columns swapped
            row_cols[r] = [cols[0]] + cols if len(cols) == 1 \
                else [cols[1], cols[0]] + cols[2:]
        indptr = np.concatenate([[0], np.cumsum([len(c) for c in row_cols])])
        indices = np.concatenate(row_cols)
        values = np.ones(len(indices))
        with pytest.raises(ff.FormatError, match=f"^row {min(bad)}: "):
            ff.Dataset.from_csr(indptr, indices, values, m)

    def test_rows_beyond_the_table_rejected(self):
        csr = ff.Dataset.from_csr([0, 1, 1], [0], [3.0], n_features=2)
        dense = ff.Dataset.from_dense([[3.0, 0.0], [0.0, 0.0]])
        for ds in (csr, dense):
            with pytest.raises(IndexError):
                ds.read_cells(np.array([0, 2]), 1)
            # a negative row would alias a cell of the previous column in
            # CSR, and would read the last row in dense storage
            with pytest.raises(IndexError):
                ds.read_cells(np.array([-1]), 1)

    def test_features_beyond_the_table_rejected(self):
        csr = ff.Dataset.from_csr([0, 1, 1], [0], [3.0], n_features=2)
        dense = ff.Dataset.from_dense([[3.0, 0.0], [0.0, 0.0]])
        for ds in (csr, dense):
            # CSR would read a structural zero for either, dense storage
            # the last column for -1
            for features in (2, -1, np.array([[0, 1, 5]])):
                with pytest.raises(IndexError, match="features"):
                    ds.read_cells(np.array([[0], [1]]), features)
            assert ds.read_cells(np.array([[0], [1]]), np.arange(2)).tolist() \
                == [[3.0, 0.0], [0.0, 0.0]]


class TestSchemaFile:
    def test_load_schema(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_text(
            "x,continuous\ncolor,categorical,red|blue\n# comment\n",
            encoding="utf-8")
        schema = ff.load_schema(path)
        assert schema.names == ["x", "color"]
        assert schema.features[1].categories == ("red", "blue")

    def test_non_utf8_bytes_raise_parse_error(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_bytes(b"x,continuous\ncolor,categorical,r\xffd|blue\n")
        with pytest.raises(ff.ParseError,
                           match=r"schema\.txt: not UTF-8 text"):
            ff.load_schema(path)

    def test_duplicate_names(self):
        with pytest.raises(ff.SchemaError):
            ff.FeatureSchema([ff.Feature("a", ff.CONTINUOUS),
                              ff.Feature("a", ff.CONTINUOUS)])

    def test_categorical_needs_categories(self):
        with pytest.raises(ff.SchemaError):
            ff.Feature("c", ff.CATEGORICAL)
