"""The command-line interface, end to end through cli.main."""

import csv
import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loads_numpy_ma, with_config

import forestfuse as ff
from forestfuse.cli import _texts, build_parser, main
from forestfuse.forest import _query_leaves


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def trained(tmp_path):
    """A tiny classification model trained through the CLI.

    Returns (paths, features, labels): train.csv carries the target column
    `label`, features.csv holds the same rows without it.
    """
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(40, 3)), 3)
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    paths = {name: tmp_path / name for name in
             ("schema.txt", "train.csv", "features.csv", "model.ffm")}
    paths["schema.txt"].write_text("a,continuous\nb,continuous\nc,continuous\n")
    with open(paths["train.csv"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "label", "c"])
        w.writerows([[*map(repr, x[:2]), int(t), repr(x[2])]
                     for x, t in zip(X.tolist(), y)])
    with open(paths["features.csv"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "c"])
        w.writerows([list(map(repr, x)) for x in X.tolist()])
    assert main(["train", str(paths["train.csv"]), str(paths["schema.txt"]),
                 "-o", str(paths["model.ffm"]), "--target", "label",
                 "--mode", "classification", "--trees", "7",
                 "--seed", "3"]) == 0
    return paths, X, y


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "cmd_similar writes repr(numpy.float64), read as 'np.float64(...)'; the "
    "fix must land together with ffbench's explore_cli test, which asserts "
    "the current cells"))
def test_similar_scores_are_cooccurrence_fractions(trained, tmp_path):
    paths, X, _ = trained
    out = tmp_path / "similar.csv"
    assert main(["similar", str(paths["model.ffm"]), str(paths["features.csv"]),
                 "--query-row", "4", "--k", "6", "--build-index",
                 "-o", str(out)]) == 0
    header, *rows = read_csv(out)
    assert header == ["rank", "row_id", "score"]
    assert len(rows) == 6
    # oracle: trees in which the training row shares the query's leaf
    forest = ff.load_model(paths["model.ffm"]).forest
    query_leaves = _query_leaves(forest, X[4])
    counts = (forest.leaf_of_train == query_leaves).sum(axis=1)
    for _, row_id, score in rows:
        assert float(score) == counts[int(row_id)] / forest.n_trees


def test_predict_ignores_target_column(trained, tmp_path):
    paths, _, _ = trained
    with_target = tmp_path / "with_target.csv"
    without = tmp_path / "without.csv"
    assert main(["predict", str(paths["model.ffm"]), str(paths["train.csv"]),
                 "--target", "label", "-o", str(with_target)]) == 0
    assert main(["predict", str(paths["model.ffm"]), str(paths["features.csv"]),
                 "-o", str(without)]) == 0
    assert read_csv(with_target) == read_csv(without)
    assert len(read_csv(without)) == 41


def test_similar_needs_no_build_index_flag(trained, tmp_path):
    paths, _, _ = trained
    runs = {}
    for extra in ([], ["--build-index"]):
        out = tmp_path / f"similar{len(extra)}.csv"
        assert main(["similar", str(paths["model.ffm"]),
                     str(paths["features.csv"]), "--query-row", "2",
                     "--k", "5", "-o", str(out)] + extra) == 0
        runs[len(extra)] = read_csv(out)
    assert len(runs[0]) == 6
    assert runs[0] == runs[1]


@pytest.mark.parametrize("explain", [False, True])
def test_similar_takes_a_query_with_or_without_the_target(trained, tmp_path,
                                                          explain):
    # train.csv carries the target column `label`, features.csv does not
    paths, _, _ = trained
    extra = ["--explain", "--data", str(paths["train.csv"])] if explain else []
    runs = []
    for query in ("train.csv", "features.csv"):
        out = tmp_path / f"similar_{query}"
        assert main(["similar", str(paths["model.ffm"]), str(paths[query]),
                     "--query-row", "3", "--k", "5", "--target", "label",
                     "-o", str(out)] + extra) == 0
        runs.append(read_csv(out))
    assert runs[0] == runs[1]
    assert len(runs[0]) == (11 if explain else 6)


def test_similar_names_the_query_header_it_cannot_read(trained, tmp_path,
                                                       capsys):
    paths, _, _ = trained
    query = tmp_path / "query.csv"
    query.write_text("a,label,b\n0.1,1,0.2\n")
    capsys.readouterr()
    assert main(["similar", str(paths["model.ffm"]), str(query),
                 "--target", "label"]) == 1
    assert_one_line_error(capsys, "header ['a', 'label', 'b'] does not match")


def assert_one_line_error(capsys, expected):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert expected in lines[0]


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_similar_rejects_repeats_below_one(trained, capsys, repeats):
    paths, _, _ = trained
    capsys.readouterr()
    assert main(["similar", str(paths["model.ffm"]), str(paths["features.csv"]),
                 "--explain", "--data", str(paths["train.csv"]),
                 "--target", "label", "--repeats", repeats]) == 1
    assert_one_line_error(capsys, "n_repeats must be >= 1")


def test_train_rejects_a_non_finite_cell(trained, tmp_path, capsys):
    paths, _, _ = trained
    data = tmp_path / "nan.csv"
    data.write_text("a,b,c\n0.1,0.2,0.3\n0.4,nan,0.6\n1.0,2.0,3.0\n"
                    "-1.0,-2.0,-3.0\n")
    capsys.readouterr()
    assert main(["train", str(data), str(paths["schema.txt"]),
                 "-o", str(tmp_path / "m.ffm"), "--mode", "unsupervised",
                 "--trees", "2"]) == 1
    assert_one_line_error(capsys, "nan.csv:3: column 'b'")
    assert not (tmp_path / "m.ffm").exists()


@pytest.mark.parametrize("seed", ["-5", "-1", str(2 ** 64), str(2 ** 70)])
def test_train_rejects_a_seed_outside_64_bits(trained, tmp_path, capsys,
                                              seed):
    paths, _, _ = trained
    capsys.readouterr()
    assert main(["train", str(paths["train.csv"]), str(paths["schema.txt"]),
                 "-o", str(tmp_path / "m.ffm"), "--target", "label",
                 "--mode", "classification", "--trees", "2",
                 "--seed", seed]) == 1
    assert_one_line_error(capsys, f"seed must be in 0..{2 ** 64 - 1}")
    assert not (tmp_path / "m.ffm").exists()


def test_train_accepts_the_largest_seed(trained, tmp_path):
    paths, _, _ = trained
    assert main(["train", str(paths["train.csv"]), str(paths["schema.txt"]),
                 "-o", str(tmp_path / "m.ffm"), "--target", "label",
                 "--mode", "classification", "--trees", "2",
                 "--seed", str(2 ** 64 - 1)]) == 0
    assert ff.load_model(tmp_path / "m.ffm").forest.config.seed == 2 ** 64 - 1


def test_train_rejects_a_huge_class_label(trained, tmp_path, capsys):
    paths, _, _ = trained
    data = tmp_path / "huge.csv"
    data.write_text("a,b,label,c\n0.1,0.2,0,0.3\n0.4,0.5,1e12,0.6\n"
                    "0.7,0.8,1,0.9\n")
    capsys.readouterr()
    assert main(["train", str(data), str(paths["schema.txt"]),
                 "-o", str(tmp_path / "m.ffm"), "--target", "label",
                 "--mode", "classification", "--trees", "2"]) == 1
    assert_one_line_error(capsys, "integer labels in 0..1023")
    assert not (tmp_path / "m.ffm").exists()


@pytest.mark.parametrize("command", ["train", "predict"])
def test_non_utf8_csv_is_a_one_line_error(trained, tmp_path, capsys,
                                          command):
    paths, _, _ = trained
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"a,b,c\n0.1,0.2,0.3\n0.4,0.5,\xff\n")
    args = {"train": ["train", str(data), str(paths["schema.txt"]), "-o",
                      str(tmp_path / "m.ffm"), "--mode", "unsupervised"],
            "predict": ["predict", str(paths["model.ffm"]), str(data)]}
    capsys.readouterr()
    assert main(args[command]) == 1
    assert_one_line_error(capsys, "latin1.csv: not UTF-8 text")


@pytest.mark.parametrize("line", [1, 2, 4])
def test_a_cell_over_the_csv_field_limit_is_a_one_line_error(
        trained, tmp_path, capsys, line):
    # a quoted cell sends its block to csv.reader, which refuses a field
    # over csv.field_size_limit() (131072 characters by default)
    paths, _, _ = trained
    lines = ["a,b,c", "0.1,0.2,0.3", "0.4,0.5,0.6", "0.7,0.8,0.9"]
    lines[line - 1] = '"' + "1" * 200_000 + '"' + lines[line - 1][3:]
    data = tmp_path / "big.csv"
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["predict", str(paths["model.ffm"]), str(data)]) == 1
    assert_one_line_error(capsys, f"big.csv:{line}: field larger than "
                          "field limit")


def test_impute_rejects_a_nan_tolerance(trained, tmp_path, capsys):
    paths, _, _ = trained
    data = tmp_path / "holes.csv"
    data.write_text("a,b,c\n0.1,NA,0.3\n0.4,0.5,0.6\n1.0,2.0,NA\n")
    out = tmp_path / "filled.csv"
    capsys.readouterr()
    assert main(["impute", str(data), str(paths["schema.txt"]), "-o", str(out),
                 "--trees", "2", "--tol", "nan"]) == 1
    assert_one_line_error(capsys, "tol must be > 0")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, expected", [
    ("--trees", "0", "n_trees must be in"), ("--bins", "1", "n_bins must be"),
    ("--mtry", "0", "mtry must be"), ("--seed", "-1", "seed must be in")])
def test_impute_rejects_a_bad_forest_flag(trained, tmp_path, capsys, flag,
                                          value, expected):
    # features.csv is complete, so impute trains no forest
    paths, _, _ = trained
    out = tmp_path / "filled.csv"
    capsys.readouterr()
    assert main(["impute", str(paths["features.csv"]),
                 str(paths["schema.txt"]), "-o", str(out), flag, value]) == 1
    assert_one_line_error(capsys, expected)
    assert not out.exists()


def test_validate_imputation_takes_no_mode(trained, capsys):
    # the validator always trains an unsupervised forest
    paths, _, _ = trained
    features = str(paths["features.csv"])
    with pytest.raises(SystemExit) as exc:
        main(["validate-imputation", features, features, "--schema",
              str(paths["schema.txt"]), "--mode", "classification"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


def test_train_importance_out_is_the_importance_command(trained, tmp_path):
    paths, _, _ = trained
    model, prefix = tmp_path / "again.ffm", tmp_path / "imp"
    assert main(["train", str(paths["train.csv"]), str(paths["schema.txt"]),
                 "-o", str(model), "--target", "label", "--mode",
                 "classification", "--trees", "7", "--seed", "3",
                 "--importance-out", str(prefix)]) == 0
    assert model.read_bytes() == paths["model.ffm"].read_bytes()
    for kind in ("overall-var", "local-var", "overall-prox", "local-prox"):
        out = tmp_path / f"{kind}.csv"
        assert main(["importance", str(model), str(paths["train.csv"]),
                     "--type", kind, "--target", "label", "-o",
                     str(out)]) == 0
        written = tmp_path / f"imp.{kind.replace('-', '_')}.csv"
        assert written.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("kind", ["overall-var", "overall-prox"])
def test_importance_rejects_row_with_an_overall_type(trained, capsys, kind):
    paths, _, _ = trained
    capsys.readouterr()
    assert main(["importance", str(paths["model.ffm"]),
                 str(paths["train.csv"]), "--target", "label", "--type", kind,
                 "--row", "3"]) == 1
    assert_one_line_error(capsys, "--row applies to local-var and local-prox")


COMMANDS = ("train", "predict", "similar", "importance", "outliers",
            "prototypes", "impute", "validate-imputation")
# each command's required arguments, then an option no parser knows
UNRECOGNIZED = (
    ["train", "d", "s", "-o", "m", "--mode", "regression", "--bogus"],
    ["predict", "m", "d", "--bogus"],
    ["similar", "m", "q", "--bogus"],
    ["importance", "m", "d", "--type", "local-var", "--bogus"],
    ["outliers", "m", "d", "--bogus"],
    ["prototypes", "m", "d", "--bogus"],
    ["impute", "d", "s", "-o", "f", "--bogus"],
    ["validate-imputation", "r", "c", "--schema", "s", "--bogus"],
)


def exit_texts(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return captured.out, captured.err, exc.value.code


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"],
    *([command, "--help"] for command in COMMANDS),
    *([command] for command in COMMANDS),
    ["bogus"], *UNRECOGNIZED,
    ["importance", "m", "d", "--type", "bogus"],
    ["similar", "m", "q", "--k", "x"],
])
def test_main_prints_what_the_full_parser_prints(argv, capsys):
    # main builds only the invoked command's subparser
    full = exit_texts(build_parser().parse_args, argv, capsys)
    assert exit_texts(main, argv, capsys) == full
    assert full[2] == (0 if "--help" in argv or "--version" in argv else 2)



def test_usage_errors_name_the_command_argument(capsys):
    # a metavar on the full parser would name it "{train,...}" instead
    assert exit_texts(main, [], capsys)[1].endswith(
        "error: the following arguments are required: command\n")
    assert ("error: argument command: invalid choice: 'bogus'"
            in exit_texts(main, ["bogus"], capsys)[1])

@pytest.mark.parametrize("method", ["bc", "young"])
def test_impute_does_not_import_numpy_ma(trained, tmp_path, method):
    # a one-shot `forestfuse impute` would pay numpy.ma's import
    paths, X, _ = trained
    data = tmp_path / "holes.csv"
    rows = [",".join("NA" if (i + k) % 7 == 0 else repr(v)
                     for k, v in enumerate(x)) for i, x in enumerate(X.tolist())]
    data.write_text("a,b,c\n" + "\n".join(rows) + "\n")
    argv = ["impute", str(data), str(paths["schema.txt"]), "-o",
            str(tmp_path / "filled.csv"), "--impute-method", method,
            "--trees", "5", "--seed", "2"]
    assert not loads_numpy_ma(["from forestfuse.cli import main"],
                              [f"assert main({argv!r}) == 0"])


def test_prototypes_does_not_import_numpy_ma(trained, tmp_path):
    # a one-shot `forestfuse prototypes` would pay numpy.ma's import
    paths, _, _ = trained
    argv = ["prototypes", str(paths["model.ffm"]), str(paths["train.csv"]),
            "--target", "label", "--k", "5", "--n-protos", "2", "-o",
            str(tmp_path / "prototypes.csv")]
    assert not loads_numpy_ma(["from forestfuse.cli import main"],
                              [f"assert main({argv!r}) == 0"])


@pytest.mark.parametrize("method", ["bc", "young"])
def test_imputed_csv_is_complete_and_feeds_the_pipeline(trained, tmp_path,
                                                         method):
    paths, X, _ = trained
    holes = np.random.default_rng(8).uniform(size=X.shape) < 0.15
    assert holes.any()
    data, out = tmp_path / "holes.csv", tmp_path / "filled.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "c"])
        w.writerows([["NA" if hole else repr(v) for v, hole in zip(x, row)]
                     for x, row in zip(X.tolist(), holes)])
    flags = ["--trees", "5", "--seed", "2"]
    schema = str(paths["schema.txt"])
    assert main(["impute", str(data), schema, "-o", str(out),
                 "--impute-method", method, *flags]) == 0
    assert not any("NA" in row for row in read_csv(out))
    # the written table reloads as the in-process result, bit for bit
    cfg = ff.ImputationConfig(
        forest_config=ff.ForestConfig(mode="unsupervised", n_trees=5, seed=2),
        method={"bc": "breiman_cutler", "young": "young"}[method])
    expected = ff.impute(ff.load_dense_csv(data, ff.load_schema(schema)),
                         cfg).dataset
    filled = ff.load_dense_csv(out, ff.load_schema(schema))
    for name in ("values", "missing"):
        assert getattr(filled, name).tobytes() == \
            getattr(expected, name).tobytes()
    assert filled.target is None and expected.target is None
    assert main(["train", str(out), schema, "-o", str(tmp_path / "m.ffm"),
                 "--mode", "unsupervised", *flags]) == 0
    assert main(["validate-imputation", str(paths["features.csv"]), str(out),
                 "--schema", schema, "-o", str(tmp_path / "rank.jsonl"),
                 *flags]) == 0


def test_predict_rejects_a_leaf_with_zeroed_class_counts(trained, capsys):
    paths, _, _ = trained
    artifact = ff.load_model(paths["model.ffm"])
    # the trees are views of the forest's node arrays, so this is saved
    artifact.forest.value[artifact.forest.leaf_nodes[3]] = 0.0
    ff.save_model(paths["model.ffm"], artifact)
    with pytest.raises(ff.ModelFormatError, match="class counts"):
        ff.load_model(paths["model.ffm"])
    capsys.readouterr()
    assert main(["predict", str(paths["model.ffm"]),
                 str(paths["features.csv"])]) == 1
    assert_one_line_error(capsys, "class counts")


def test_predict_rejects_children_that_are_not_consecutive(trained, capsys):
    # the walk steps to left + 1 for the right child, so a file whose
    # children are swapped must not load, though both stay in the tree
    paths, _, _ = trained
    artifact = ff.load_model(paths["model.ffm"])
    forest = artifact.forest
    root = forest.node_offset[0]
    assert forest.feature[root] >= 0
    forest.left[root], forest.right[root] = forest.right[root], \
        forest.left[root]
    ff.save_model(paths["model.ffm"], artifact)
    with pytest.raises(ff.ModelFormatError, match="tree nodes"):
        ff.load_model(paths["model.ffm"])
    capsys.readouterr()
    assert main(["predict", str(paths["model.ffm"]),
                 str(paths["features.csv"])]) == 1
    assert_one_line_error(capsys, "tree nodes are inconsistent")


def test_predict_rejects_a_mode_that_contradicts_the_forest(trained,
                                                            capsys):
    # a classification file relabelled regression would predict each
    # row's class counts as its value
    paths, _, _ = trained
    model = paths["model.ffm"]
    model.write_bytes(with_config(model.read_bytes(), mode="regression"))
    capsys.readouterr()
    assert main(["predict", str(model), str(paths["features.csv"])]) == 1
    assert_one_line_error(capsys, "mode 'regression' does not match")


# repeats, both zeros, NaN and the infinities, so most texts are indexed
# from the repr of their bit pattern
TEXT_POOL = [0.0, -0.0, 0.1, 1 / 3, 1.0, -2.5, 1e-300, 1e300, np.inf,
             -np.inf, np.nan]


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(st.sampled_from(TEXT_POOL) | st.floats(), max_size=40),
       width=st.integers(1, 5))
def test_texts_are_the_repr_of_every_cell(cells, width):
    vec = np.array(cells, dtype=np.float64)
    assert _texts(vec) == list(map(repr, vec.tolist()))
    matrix = vec[:len(vec) // width * width].reshape(-1, width)
    assert _texts(matrix) == [list(map(repr, row)) for row in matrix.tolist()]
    assert _texts(np.empty((len(cells), 0))) == [[]] * len(cells)


@pytest.mark.parametrize("mode, m_cap", [("exact", 256), ("greedy", 1),
                                         ("greedy", 3)])
def test_outliers_file_is_the_report_as_csv(trained, tmp_path, mode, m_cap):
    paths, _, y = trained
    out = tmp_path / "outliers.csv"
    assert main(["outliers", str(paths["model.ffm"]), str(paths["train.csv"]),
                 "--target", "label", "--mode", mode, "--m-cap", str(m_cap),
                 "-o", str(out)]) == 0
    forest = ff.load_model(paths["model.ffm"]).forest
    report = (ff.outlier_exact(forest, y) if mode == "exact"
              else ff.outlier_greedy(forest, y, m_cap=m_cap))
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["row_id", "class", "raw", "score", "flags"])
    writer.writerows([r, c, repr(raw), repr(score), ";".join(flags)]
                     for r, (c, raw, score, flags) in enumerate(zip(
                         y.tolist(), report.raw.tolist(),
                         report.score.tolist(), report.flags)))
    assert out.read_bytes() == want.getvalue().encode()


def test_train_stores_the_rows_it_parsed_and_their_files_digest(trained):
    # csv.writer ends train.csv's lines with CRLF
    paths, X, y = trained
    raw = paths["train.csv"].read_bytes()
    assert b"\r\n" in raw
    artifact = ff.load_model(paths["model.ffm"])
    assert artifact.source_sha256 == hashlib.sha256(raw).hexdigest()
    assert artifact.target_column == "label"
    parsed = ff.load_dense_csv(paths["train.csv"],
                               ff.load_schema(paths["schema.txt"]), "label")
    for name in ("values", "missing", "target"):
        assert getattr(artifact.data, name).tobytes() == \
            getattr(parsed, name).tobytes()
    assert np.array_equal(artifact.data.values, X)
    assert np.array_equal(artifact.data.target, y)


@pytest.mark.parametrize("command, flags", [
    ("outliers", ["--mode", "exact"]),
    ("outliers", ["--mode", "greedy", "--m-cap", "4"]),
    ("prototypes", ["--k", "5", "--n-protos", "2"]),
    ("importance", ["--type", "overall-var"]),
    ("importance", ["--type", "local-prox"]),
    ("similar", ["--explain", "--k", "5", "--query-row", "2"]),
])
def test_explore_commands_read_the_rows_the_model_carries(trained, tmp_path,
                                                          command, flags):
    # the training file, if given, is checked, not read: each command
    # writes the same bytes without it
    paths, _, _ = trained
    model, train = str(paths["model.ffm"]), str(paths["train.csv"])
    if command == "similar":
        query = [str(paths["features.csv"])]
        runs = (query + ["--data", train, "--target", "label"], query)
    else:
        runs = ([train, "--target", "label"], [])
    written = []
    for i, data in enumerate(runs):
        out = tmp_path / f"{command}{i}.csv"
        assert main([command, model, *data, *flags, "-o", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_a_copy_of_the_training_file_in_other_bytes_is_refused(
        trained, tmp_path, capsys):
    # the same rows with LF line ends: the model records the CRLF file's
    # digest, and omitting the file is the remedy
    paths, _, _ = trained
    copy = tmp_path / "lf.csv"
    copy.write_bytes(paths["train.csv"].read_bytes().replace(b"\r\n", b"\n"))
    schema = ff.load_schema(paths["schema.txt"])
    assert np.array_equal(ff.load_dense_csv(copy, schema, "label").values,
                          ff.load_dense_csv(paths["train.csv"], schema,
                                            "label").values)
    capsys.readouterr()
    assert main(["outliers", str(paths["model.ffm"]), str(copy),
                 "--target", "label"]) == 1
    assert_one_line_error(capsys, "lf.csv: not the file the model was "
                          "trained on; omit the file")


def test_a_model_saved_without_a_digest_refuses_a_training_file(
        trained, tmp_path, capsys):
    paths, _, _ = trained
    artifact = ff.load_model(paths["model.ffm"])
    artifact.source_sha256 = None
    ff.save_model(paths["model.ffm"], artifact)
    capsys.readouterr()
    assert main(["prototypes", str(paths["model.ffm"]),
                 str(paths["train.csv"])]) == 1
    assert_one_line_error(capsys, "records no digest of its training file")
    assert main(["prototypes", str(paths["model.ffm"]),
                 "-o", str(tmp_path / "protos.csv")]) == 0


@pytest.mark.parametrize("command", ["outliers", "prototypes", "importance",
                                     "similar"])
def test_a_target_other_than_the_models_is_refused(trained, capsys,
                                                   command):
    paths, _, _ = trained
    argv = {"importance": ["--type", "local-prox"],
            "similar": [str(paths["features.csv"]), "--explain"]}
    capsys.readouterr()
    assert main([command, str(paths["model.ffm"]), *argv.get(command, []),
                 "--target", "y"]) == 1
    assert_one_line_error(capsys, "--target 'y' is not the model's target "
                          "column ('label')")


def test_a_version_1_model_is_a_one_line_error(trained, capsys):
    paths, _, _ = trained
    blob = paths["model.ffm"].read_bytes()
    paths["model.ffm"].write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
    capsys.readouterr()
    assert main(["outliers", str(paths["model.ffm"])]) == 1
    assert_one_line_error(capsys, "format version 1 is not supported "
                          "(expected 2)")
