"""Model files: exact round trips, and corrupt files rejected cleanly."""

import json
import struct

import numpy as np
import pytest
from helpers import (assemble_forest, blobs, dense_to_csr,
                     renumber_depth_first, stump, with_config)
from hypothesis import given, settings
from hypothesis import strategies as st

import forestfuse as ff
from forestfuse.cli import main
from forestfuse.proximity import cooccurrence_blocks


def save(forest, ds, path):
    ff.save_model(path, ff.ModelArtifact(forest=forest, schema=ds.schema,
                                         data=ds))


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A small classification model file, its forest and its data."""
    X, y = blobs(12, seed=2, sep=2.0)
    ds = ff.Dataset.from_dense(X, target=y)
    forest = ff.train(ds, ff.ForestConfig(mode="classification", n_trees=3,
                                          seed=4))
    path = tmp_path_factory.mktemp("model") / "model.ffm"
    save(forest, ds, path)
    return path, forest, ds


@pytest.mark.parametrize("mode", ["classification", "regression",
                                  "unsupervised"])
def test_round_trip_keeps_predictions_and_neighbours(mode, tmp_path):
    X, y = blobs(15, seed=6, sep=3.0)
    ds = ff.Dataset.from_dense(X, target=None if mode == "unsupervised"
                               else y)
    forest = ff.train(ds, ff.ForestConfig(mode=mode, n_trees=6, seed=1))
    save(forest, ds, tmp_path / "m.ffm")
    artifact = ff.load_model(tmp_path / "m.ffm")
    loaded = artifact.forest
    predict = ff.predict if mode == "regression" else ff.predict_proba
    np.testing.assert_array_equal(predict(loaded, X), predict(forest, X))
    for q in X[::4]:
        assert ff.top_k_similar(loaded, q, k=7) == \
            ff.top_k_similar(forest, q, k=7)
    # saving what was loaded writes the same bytes
    ff.save_model(tmp_path / "again.ffm", artifact)
    assert (tmp_path / "again.ffm").read_bytes() == \
        (tmp_path / "m.ffm").read_bytes()


def stored_meta(blob):
    """The metadata of a model file's bytes: its first section."""
    (size,) = struct.unpack_from("<Q", blob, 18)
    return json.loads(blob[26:26 + size])


def training_rows(mode, storage, n=40, seed=3):
    """A dataset of `storage` with one categorical feature, many zero
    cells, and the target `mode` trains on."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, 4)), 2)
    X[rng.uniform(size=X.shape) < 0.4] = 0.0
    X[:, 3] = rng.integers(0, 3, size=n)
    schema = ff.FeatureSchema([ff.Feature(f"f{k}", "continuous")
                               for k in range(3)]
                              + [ff.Feature("c", "categorical", ("a", "b",
                                                                 "c"))])
    target = {"classification": (X[:, 0] > 0) + (X[:, 3] == 2.0),
              "regression": X[:, 0] * 2 + X[:, 1],
              "unsupervised": None}[mode]
    if storage == "csr":
        return ff.Dataset.from_csr(*dense_to_csr(X), 4, schema=schema,
                                   target=target)
    return ff.Dataset.from_dense(X, schema, target=target)


@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("mode", ["classification", "regression",
                                  "unsupervised"])
def test_round_trip_keeps_the_training_rows(mode, storage, tmp_path):
    ds = training_rows(mode, storage)
    forest = ff.train(ds, ff.ForestConfig(mode=mode, n_trees=4, seed=2))
    digest = "0123456789abcdef" * 4
    ff.save_model(tmp_path / "m.ffm", ff.ModelArtifact(
        forest, ds.schema, ds, source_sha256=digest, target_column="y"))
    artifact = ff.load_model(tmp_path / "m.ffm")
    assert (artifact.source_sha256, artifact.target_column) == (digest, "y")
    rows = artifact.data
    assert rows.is_sparse == (storage == "csr")
    assert rows.schema == ds.schema == artifact.schema
    names = ["indptr", "indices", "data"] if storage == "csr" else [
        "values", "missing"]
    for name in names + ["target"] * (mode != "unsupervised"):
        got, want = getattr(rows, name), getattr(ds, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert (rows.target is None) == (mode == "unsupervised")
    ff.save_model(tmp_path / "again.ffm", artifact)
    assert (tmp_path / "again.ffm").read_bytes() == \
        (tmp_path / "m.ffm").read_bytes()


def test_per_row_sections_take_the_narrowest_type(tmp_path):
    # single-row leaves: more than 255 leaves a tree, so leaf ids need 16
    # bits, while in-bag counts stay under 256
    X, y = blobs(300, seed=5, sep=0.5)
    ds = ff.Dataset.from_dense(X, target=X[:, 0] + y)
    forest = ff.train(ds, ff.ForestConfig(mode="regression", n_trees=2,
                                          seed=1, min_node_size=1))
    assert 255 < forest.leaf_of_train.max() < 2 ** 16
    save(forest, ds, tmp_path / "m.ffm")
    blob = (tmp_path / "m.ffm").read_bytes()
    meta = stored_meta(blob)
    assert (meta["inbag_dtype"], meta["leaf_train_dtype"]) == ("uint8",
                                                               "uint16")
    loaded = ff.load_model(tmp_path / "m.ffm").forest
    for name in ("inbag_counts", "leaf_of_train"):
        got, want = getattr(loaded, name), getattr(forest, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # a stored type wider than the array it widens to is refused
    bad = tmp_path / "bad.ffm"
    bad.write_bytes(with_config(blob, meta={"inbag_dtype": "uint32"}))
    with pytest.raises(ff.ModelFormatError, match="inbag stored as"):
        ff.load_model(bad)


def test_version_1_file_is_refused_by_its_version(model_file, tmp_path):
    path, _, _ = model_file
    old = tmp_path / "v1.ffm"
    blob = path.read_bytes()
    old.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
    with pytest.raises(ff.ModelFormatError,
                       match="format version 1 is not supported"):
        ff.load_model(old)


@pytest.mark.parametrize("target, match", [
    ([0.0, 2.0], "forest's classes"),      # a class the forest lacks
    ([0.0, 0.5], "forest's classes"),      # not a class at all
    ([0.0, np.nan], "not finite"),
    (None, "needs target section"),
])
def test_stored_target_must_be_the_forests_classes(target, match, tmp_path):
    ds = ff.Dataset.from_dense([[0.0], [1.0]], target=[0.0, 1.0])
    forest = assemble_forest([stump(0, 0.5, [1.0, 0.0], [0.0, 1.0])], ds,
                             n_classes=2)
    # the target is written as given; the loader refuses it
    save(forest, ds._replace(target=None if target is None
                             else np.array(target)), tmp_path / "m.ffm")
    with pytest.raises(ff.ModelFormatError, match=match):
        ff.load_model(tmp_path / "m.ffm")


@pytest.mark.parametrize("values, match", [
    ([[0.0, 0.0], [1.0, 3.0]], "categorical codes"),
    ([[0.0, 0.0], [np.inf, 1.0]], "not finite"),
])
def test_stored_rows_are_checked_as_the_dataset_checks(values, match,
                                                       tmp_path):
    schema = ff.FeatureSchema([ff.Feature("x", "continuous"),
                               ff.Feature("c", "categorical", ("a", "b"))])
    ds = ff.Dataset.from_dense([[0.0, 0.0], [1.0, 1.0]], schema,
                               target=[0.0, 1.0])
    forest = assemble_forest([stump(0, 0.5, [1.0, 0.0], [0.0, 1.0],
                                    n_features=2)], ds, n_classes=2)
    save(forest, ds._replace(values=np.array(values)), tmp_path / "m.ffm")
    with pytest.raises(ff.ModelFormatError, match=f"training rows: .*{match}"):
        ff.load_model(tmp_path / "m.ffm")


def test_save_refuses_rows_of_another_shape(model_file, tmp_path):
    _, forest, ds = model_file
    fewer = ff.Dataset.from_dense(ds.values[1:], target=ds.target[1:])
    with pytest.raises(ff.ArgumentError, match="training shape"):
        save(forest, fewer, tmp_path / "m.ffm")


@pytest.fixture(scope="module")
def row_files(tmp_path_factory):
    """A classification model file of each storage, and its rows."""
    out = {}
    for storage in ("dense", "csr"):
        ds = training_rows("classification", storage, n=24)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=3, seed=4))
        path = tmp_path_factory.mktemp(storage) / "model.ffm"
        save(forest, ds, path)
        out[storage] = path, ds
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_flipped_training_rows_raise_only_model_format_error(row_files,
                                                             data):
    storage = data.draw(st.sampled_from(["dense", "csr"]), label="storage")
    path, ds = row_files[storage]
    blob = path.read_bytes()
    # the row sections come last, from the first one's name on
    first = b"values" if storage == "dense" else b"indptr"
    start = blob.index(struct.pack("<H", len(first)) + first)
    at = data.draw(st.integers(start, len(blob) - 1), label="at")
    flipped = bytearray(blob)
    flipped[at] ^= data.draw(st.integers(1, 255), label="mask")
    corrupt = path.with_name("corrupt.ffm")
    corrupt.write_bytes(bytes(flipped))
    try:
        rows = ff.load_model(corrupt).data
    except ff.ModelFormatError:
        return
    # rows that load are complete rows of the forest's shape and classes
    assert (rows.n_rows, rows.n_features, rows.is_sparse) == (
        ds.n_rows, ds.n_features, ds.is_sparse)
    cells = rows.data if rows.is_sparse else rows.values
    assert np.isfinite(cells).all() and not rows.has_missing
    codes = (rows.data[rows.indices == 3] if rows.is_sparse
             else rows.values[:, 3])
    assert np.isin(codes, np.arange(3)).all()
    assert np.isin(rows.target, np.arange(3)).all()


@pytest.mark.parametrize("seed", [-5, 2 ** 64])
def test_seed_outside_64_bits_rejected(model_file, tmp_path, seed):
    """Such a seed grew another seed's forest; a file holding one no longer
    loads."""
    path, _, _ = model_file
    bad = tmp_path / "bad.ffm"
    bad.write_bytes(with_config(path.read_bytes(), seed=seed))
    with pytest.raises(ff.ModelFormatError, match="seed must be in 0"):
        ff.load_model(bad)


@pytest.fixture(scope="module")
def mode_files(tmp_path_factory):
    """A small model file's bytes for each mode."""
    X, y = blobs(12, seed=2, sep=2.0)
    out, path = {}, tmp_path_factory.mktemp("modes") / "model.ffm"
    for mode in ("classification", "regression", "unsupervised"):
        ds = ff.Dataset.from_dense(X, target=None if mode == "unsupervised"
                                   else y)
        save(ff.train(ds, ff.ForestConfig(mode=mode, n_trees=3, seed=4)), ds,
             path)
        out[mode] = path.read_bytes()
    return out


@pytest.mark.parametrize("mode, config, meta", [
    # class counts read as regression values
    ("classification", {"mode": "regression"}, {}),
    # one value a node read as class counts
    ("regression", {"mode": "classification"}, {}),
    # a synthetic half outside unsupervised mode
    ("unsupervised", {"mode": "classification"}, {}),
    # unsupervised mode without its synthetic half
    ("classification", {"mode": "unsupervised"}, {}),
    # an unsupervised forest of other than two classes
    ("unsupervised", {}, {"n_classes": 3}),
], ids=["classification-as-regression", "regression-as-classification",
        "unsupervised-as-classification", "classification-as-unsupervised",
        "unsupervised-with-3-classes"])
def test_mode_contradicting_the_forest_rejected(mode_files, tmp_path, mode,
                                                config, meta):
    bad = tmp_path / "bad.ffm"
    bad.write_bytes(with_config(mode_files[mode], meta=meta, **config))
    with pytest.raises(ff.ModelFormatError, match="mode '.*' does not match"):
        ff.load_model(bad)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_truncated_or_flipped_files_raise_model_format_error(model_file, data):
    path, _, ds = model_file
    blob = path.read_bytes()
    corrupt = path.with_name("corrupt.ffm")
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    corrupt.write_bytes(blob[:cut])
    with pytest.raises(ff.ModelFormatError):
        ff.load_model(corrupt)

    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    flipped = bytearray(blob)
    flipped[at] ^= data.draw(st.integers(1, 255), label="mask")
    corrupt.write_bytes(bytes(flipped))
    try:
        forest = ff.load_model(corrupt).forest
    except ff.ModelFormatError:
        return
    # a file that loads holds walkable trees and in-range leaf assignments
    X = ds.without_target().values
    with np.errstate(divide="ignore", invalid="ignore"):
        assert ff.predict_proba(forest, X).shape == (len(X), 2)
    ff.top_k_similar(forest, X[0], k=3)


@pytest.mark.parametrize("field, node, value", [
    ("right", 0, 0),     # a walk that never ends
    ("left", 0, 3),      # past tree 0's last node, onto tree 1's root
    ("feature", 0, 1),   # past the last feature
    ("right", 0, 5),     # past tree 0's last node, inside tree 1
    ("right", 0, 1),     # inside the tree, but not left + 1
    # leaf ids 0, 2 and 3, 1: all of 0..3 across the trees, but neither
    # tree holds exactly its own 0..1
    pytest.param("leaf_id", [2, 4], [2, 3], id="leaf_id-split-across-trees"),
])
def test_inconsistent_tree_rejected(field, node, value, tmp_path):
    ds = ff.Dataset.from_dense([[0.0], [1.0]], target=[0.0, 1.0])
    trees = [stump(0, 0.5, [1.0, 0.0], [0.0, 1.0]),
             stump(0, 0.7, [1.0, 0.0], [0.0, 1.0])]
    forest = assemble_forest(trees, ds, n_classes=2)
    # node counts across the two 3-node trees: indices into the forest's
    # node arrays
    for at, v in zip(np.atleast_1d(node), np.atleast_1d(value)):
        getattr(forest, field)[at] = v
    save(forest, ds, tmp_path / "m.ffm")
    with pytest.raises(ff.ModelFormatError, match="tree nodes"):
        ff.load_model(tmp_path / "m.ffm")


def test_predict_on_truncated_model_is_a_one_line_error(model_file, tmp_path,
                                                        capsys):
    path, _, ds = model_file
    blob = path.read_bytes()
    model = tmp_path / "truncated.ffm"
    model.write_bytes(blob[:len(blob) // 2])
    data = tmp_path / "rows.csv"
    ff.write_dense_csv(ds.without_target(), data)
    capsys.readouterr()
    assert main(["predict", str(model), str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("left, match", [
    ([-1.0, 2.0], "class counts"),  # sums to the node size, one negative
    ([0.5, 0.5], "class counts"),   # not whole
    ([1.0, 1.0], "class counts"),   # two rows in a one-row leaf
    ([0.0, 0.0], "class counts"),   # no rows: NaN votes
    ([np.inf, 0.0], "not finite"),
    ([np.nan, 1.0], "not finite"),
])
def test_bad_class_counts_rejected(left, match, tmp_path):
    ds = ff.Dataset.from_dense([[0.0], [1.0]], target=[0.0, 1.0])
    tree = stump(0, 0.5, left, [0.0, 1.0])
    tree["value"][0] = [1.0, 1.0]  # the root stays consistent
    save(assemble_forest([tree], ds, n_classes=2), ds, tmp_path / "m.ffm")
    with pytest.raises(ff.ModelFormatError, match=match):
        ff.load_model(tmp_path / "m.ffm")


def test_non_finite_regression_value_rejected(tmp_path):
    ds = ff.Dataset.from_dense([[0.0], [1.0]], target=[0.0, 1.0])
    forest = assemble_forest([stump(0, 0.5, 0.0, 1.0)], ds, mode="regression")
    save(forest, ds, tmp_path / "ok.ffm")
    ff.load_model(tmp_path / "ok.ffm")
    forest.value[2] = np.inf
    save(forest, ds, tmp_path / "m.ffm")
    with pytest.raises(ff.ModelFormatError, match="not finite"):
        ff.load_model(tmp_path / "m.ffm")


@pytest.mark.parametrize("mode", ["classification", "regression",
                                  "unsupervised"])
def test_depth_first_numbered_file_answers_alike(mode, tmp_path):
    # files written before the level-order numbering hold each tree
    # depth-first, leaf ids out of node order; Forest.leaf_nodes maps them
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 4))
    y = {"classification": (X[:, 0] > 0) + (X[:, 1] > 0.5),
         "regression": X[:, 0] + X[:, 1] ** 2, "unsupervised": None}[mode]
    ds = ff.Dataset.from_dense(X, target=y)
    forest = ff.train(ds, ff.ForestConfig(mode=mode, n_trees=5, seed=3))
    save(renumber_depth_first(forest), ds, tmp_path / "m.ffm")
    loaded = ff.load_model(tmp_path / "m.ffm").forest
    assert not np.array_equal(loaded.left, forest.left)
    assert not np.array_equal(loaded.leaf_nodes,
                              np.flatnonzero(loaded.feature < 0))
    predict = ff.predict if mode == "regression" else ff.predict_proba
    np.testing.assert_array_equal(predict(loaded, X), predict(forest, X))
    for q in X[::7]:
        assert ff.top_k_similar(loaded, q, k=9) == \
            ff.top_k_similar(forest, q, k=9)
    for (_, a, _), (_, b, _) in zip(cooccurrence_blocks(loaded),
                                    cooccurrence_blocks(forest)):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ff.overall_variable_importance(loaded, ds),
                                  ff.overall_variable_importance(forest, ds))
