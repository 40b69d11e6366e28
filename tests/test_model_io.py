"""Model files: exact round trips, and corrupt files rejected cleanly."""

import json
import struct

import numpy as np
import pytest
from helpers import assemble_forest, blobs, renumber_depth_first, stump
from hypothesis import given, settings
from hypothesis import strategies as st

import forestfuse as ff
from forestfuse.cli import main
from forestfuse.proximity import cooccurrence_blocks


def save(forest, ds, path):
    ff.save_model(path, ff.ModelArtifact(
        forest=forest, schema=ds.schema,
        fingerprint=ff.dataset_fingerprint(ds, forest.config.seed)))


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


def with_config(blob, **fields):
    """A model file's bytes with fields set in its stored config."""
    # the first section, after the 12-byte header: "meta", then its size
    assert blob[12:18] == b"\x04\x00meta"
    (size,) = struct.unpack_from("<Q", blob, 18)
    meta = json.loads(blob[26:26 + size])
    meta["config"].update(fields)
    raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return blob[:18] + struct.pack("<Q", len(raw)) + raw + blob[26 + size:]


def test_stored_proximity_pairs_key_is_ignored(model_file, tmp_path):
    """Files written while the config held `proximity_pairs` still load."""
    path, forest, ds = model_file
    blob = path.read_bytes()
    assert b"proximity_pairs" not in blob
    old = tmp_path / "old.ffm"
    old.write_bytes(with_config(blob, proximity_pairs="oob"))
    artifact = ff.load_model(old)
    assert artifact.forest.config == forest.config
    X = ds.without_target().values
    np.testing.assert_array_equal(ff.predict_proba(artifact.forest, X),
                                  ff.predict_proba(forest, X))
    ff.save_model(tmp_path / "resaved.ffm", artifact)
    assert (tmp_path / "resaved.ffm").read_bytes() == blob


@pytest.mark.parametrize("seed", [-5, 2 ** 64])
def test_seed_outside_64_bits_rejected(model_file, tmp_path, seed):
    """Such a seed grew another seed's forest; a file holding one no longer
    loads."""
    path, _, _ = model_file
    bad = tmp_path / "bad.ffm"
    bad.write_bytes(with_config(path.read_bytes(), seed=seed))
    with pytest.raises(ff.ModelFormatError, match="seed must be in 0"):
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
