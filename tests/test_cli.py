"""The command-line interface, end to end through cli.main."""

import csv

import numpy as np
import pytest

from helpers import loads_numpy_ma, with_config

import forestfuse as ff
from forestfuse.cli import main
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
    np.testing.assert_array_equal(filled.values, expected.values)
    assert ff.dataset_fingerprint(filled, 2) == \
        ff.dataset_fingerprint(expected, 2)
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
