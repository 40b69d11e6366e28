"""Training, prediction, OOB estimation, and the synthetic-row generator."""

from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (assemble_forest, blobs_dataset, dense_to_csr, leaf_tree,
                     sparse_matrices, stump, walk_tree)
from hypothesis import given, settings
from hypothesis import strategies as st

import forestfuse as ff
from forestfuse.forest import (_ancestors, _node_grid, _perturbed_walk,
                               _query_leaves, _walk, train_held_out)
from forestfuse.model_io import ModelArtifact, dataset_fingerprint
from forestfuse.rng import (ROOT_ROUTE, NodeStreams, child_route, donor_rng,
                            donor_streams, node_rng, permute_rng,
                            permute_streams, query_donor_rng,
                            query_donor_streams, synthetic_rng, tree_rng)
from forestfuse.splitfind import find_node_split


class TestGenerateSynthetic:
    def test_columns_are_permutations(self):
        rng = np.random.default_rng(0)
        ds = ff.Dataset.from_dense(rng.normal(size=(40, 3)))
        syn = ff.generate_synthetic(ds, seed=9)
        for k in range(3):
            assert np.array_equal(np.sort(syn.values[:, k]),
                                  np.sort(ds.values[:, k]))

    def test_single_row_identity(self):
        ds = ff.Dataset.from_dense([[1.0, 2.0, 3.0]])
        syn = ff.generate_synthetic(ds, seed=5)
        assert np.array_equal(syn.values, ds.values)

    def test_destroys_correlation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=1000)
        ds = ff.Dataset.from_dense(np.column_stack([x, x]))
        syn = ff.generate_synthetic(ds, seed=2)
        r = np.corrcoef(syn.values[:, 0], syn.values[:, 1])[0, 1]
        assert abs(r) < 0.1

    def test_empty_dataset(self):
        ds = ff.Dataset.from_dense(np.empty((0, 2)))
        with pytest.raises(ff.ArgumentError):
            ff.generate_synthetic(ds, seed=0)

    def test_missing_values_rejected(self):
        ds = ff.Dataset.from_dense([[1.0], [2.0]],
                                   missing_mask=[[True], [False]])
        with pytest.raises(ff.ArgumentError):
            ff.generate_synthetic(ds, seed=0)

    def test_csr_columns_are_permutations(self):
        ds = ff.Dataset.from_csr([0, 2, 3, 3, 4], [0, 1, 1, 0],
                                 [1.0, 2.0, 3.0, 4.0], n_features=2)
        syn = ff.generate_synthetic(ds, seed=3)
        assert syn.is_sparse
        cells = np.arange(4)[:, None], np.arange(2)
        dense = ds.read_cells(*cells)
        sdense = syn.read_cells(*cells)
        for k in range(2):
            assert np.array_equal(np.sort(sdense[:, k]), np.sort(dense[:, k]))


class TestTrainValidation:
    def test_classification_needs_target(self):
        ds = ff.Dataset.from_dense(np.zeros((5, 2)))
        with pytest.raises(ff.ConfigError):
            ff.train(ds, ff.ForestConfig(mode="classification", n_trees=1))

    def test_unsupervised_rejects_target(self):
        ds = ff.Dataset.from_dense(np.zeros((5, 2)), target=np.zeros(5))
        with pytest.raises(ff.ConfigError):
            ff.train(ds, ff.ForestConfig(mode="unsupervised", n_trees=1))

    def test_missing_values_rejected(self):
        ds = ff.Dataset.from_dense([[1.0], [2.0]],
                                   missing_mask=[[True], [False]],
                                   target=[0.0, 1.0])
        with pytest.raises(ff.ArgumentError, match="missing"):
            ff.train(ds, ff.ForestConfig(mode="classification", n_trees=1))

    def test_non_integer_labels_rejected(self):
        ds = ff.Dataset.from_dense([[1.0], [2.0]], target=[0.5, 1.0])
        with pytest.raises(ff.ConfigError):
            ff.train(ds, ff.ForestConfig(mode="classification", n_trees=1))

    def test_class_labels_are_bounded(self):
        # a label sizes every node's class counts: one of 1e12 on three
        # rows must fail before allocating them
        cfg = ff.ForestConfig(mode="classification", n_trees=1)
        for n, label, bound in ((3, 1e12, 1024), (3, 1024.0, 1024),
                                (1100, 1100.0, 1100)):
            target = np.zeros(n)
            target[1] = label
            ds = ff.Dataset.from_dense(np.zeros((n, 1)), target=target)
            with pytest.raises(ff.ConfigError, match=rf"in 0\.\.{bound - 1}$"):
                ff.train(ds, cfg)
        # sparse class ids below the bound still train
        ds = ff.Dataset.from_dense(np.zeros((3, 1)), target=[0.0, 5.0, 1.0])
        assert ff.train(ds, cfg).n_classes == 6

    def test_bad_config(self):
        with pytest.raises(ff.ConfigError):
            ff.ForestConfig(mode="classification", n_trees=0).validate()
        with pytest.raises(ff.ConfigError):
            ff.ForestConfig(mode="nope").validate()
        with pytest.raises(ff.ConfigError):
            ff.ForestConfig(mode="regression", n_bins=1).validate()

    @pytest.mark.parametrize("field, value", [
        (field, value)
        for field in ("n_trees", "mtry", "min_node_size", "max_depth",
                      "n_bins", "seed")
        for value in (2.5, 2.0, True, False, "2", np.float64(2.0))])
    def test_non_integer_fields_rejected(self, field, value):
        cfg = ff.ForestConfig(mode="classification", **{field: value})
        with pytest.raises(ff.ConfigError, match=field):
            cfg.validate()
        ds = blobs_dataset(5, seed=0)
        with pytest.raises(ff.ConfigError, match=field):
            ff.train(ds, cfg)

    def test_numpy_integer_fields_accepted(self, tmp_path):
        ds = blobs_dataset(10, seed=0)
        fields = dict(n_trees=np.int32(3), mtry=np.int64(1),
                      min_node_size=np.uint8(2), max_depth=np.int16(4),
                      n_bins=np.int64(8), seed=np.int64(7))
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              split_strategy="histogram",
                                              **fields))
        plain = ff.train(ds, ff.ForestConfig(
            mode="classification", split_strategy="histogram",
            **{k: int(v) for k, v in fields.items()}))
        assert forest.config == plain.config
        assert np.array_equal(forest.leaf_of_train, plain.leaf_of_train)
        path = tmp_path / "model.ffm"
        ff.save_model(path, ModelArtifact(forest, ds.schema,
                                          dataset_fingerprint(ds, 7)))
        assert ff.load_model(path).forest.config == plain.config

    def test_mtry_bounds(self):
        ds = ff.Dataset.from_dense(np.random.default_rng(0).normal(size=(10, 2)),
                                   target=np.zeros(10))
        with pytest.raises(ff.ConfigError):
            ff.train(ds, ff.ForestConfig(mode="classification", n_trees=1,
                                         mtry=3))

    def test_rng_stream_index_limit(self):
        # streams key trees and features in 28 bits each
        assert tree_rng(0, 2 ** 28 - 1) is not None
        with pytest.raises(ff.ConfigError, match="out of range"):
            tree_rng(0, 2 ** 28)
        with pytest.raises(ff.ConfigError, match="out of range"):
            permute_rng(0, 0, 2 ** 28)

    def test_stream_limit_checked_before_growing(self):
        # validation only compares numbers: nothing of this size is built
        ff.ForestConfig(mode="classification", n_trees=2 ** 28).validate()
        with pytest.raises(ff.ConfigError, match="n_trees"):
            ff.ForestConfig(mode="classification",
                            n_trees=2 ** 28 + 1).validate()
        wide = SimpleNamespace(n_rows=1, n_features=2 ** 28 + 1)
        with pytest.raises(ff.ConfigError, match="n_features"):
            ff.train(wide, ff.ForestConfig(mode="unsupervised", n_trees=1))


class TestTraining:
    def test_separable_blobs_low_oob(self):
        ds = blobs_dataset(100, seed=4)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=50, seed=1))
        assert forest.oob_error < 0.05

    def test_unsupervised_doubles_training_rows(self):
        rng = np.random.default_rng(2)
        ds = ff.Dataset.from_dense(rng.normal(size=(30, 3)))
        forest = ff.train(ds, ff.ForestConfig(mode="unsupervised",
                                              n_trees=5, seed=0))
        assert forest.n_train_rows == 60
        assert forest.synthetic_offset == 30
        assert forest.n_scored_rows == 30
        assert forest.leaf_of_train.shape == (60, 5)

    def test_unsupervised_independent_vs_dependent(self):
        rng = np.random.default_rng(3)
        iid = ff.Dataset.from_dense(rng.uniform(size=(400, 4)))
        f1 = ff.train(iid, ff.ForestConfig(mode="unsupervised", n_trees=25,
                                           min_node_size=5, seed=0))
        assert f1.oob_error >= 0.40

        X = rng.uniform(size=(400, 4))
        X[:, 1] = X[:, 0] + rng.normal(scale=0.02, size=400)
        dep = ff.Dataset.from_dense(X)
        f2 = ff.train(dep, ff.ForestConfig(mode="unsupervised", n_trees=25,
                                           min_node_size=5, seed=0))
        assert f2.oob_error < 0.40

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1),
           st.lists(st.integers(0, 2 ** 28 - 1), min_size=2, max_size=2,
                    unique=True),
           st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2 ** 64 - 1),
                              st.integers(1, 12), st.integers(0, 5)),
                    min_size=1, max_size=25))
    def test_rekeyed_node_draws_match_fresh_streams(self, seed, trees, visits):
        # two trees' streams visited interleaved, with varying mtry and
        # extra draws that leave part of Philox's buffer unread: a stale
        # buffer, counter or 32-bit half would show in the next draw
        streams = [NodeStreams(seed, t) for t in trees]
        for which, route, mtry, extra in visits:
            got = streams[which](route)
            want = node_rng(seed, trees[which], route)
            assert np.array_equal(got.choice(12, size=mtry, replace=False),
                                  want.choice(12, size=mtry, replace=False))
            assert np.array_equal(
                got.integers(0, 1000, size=extra, dtype=np.int32),
                want.integers(0, 1000, size=extra, dtype=np.int32))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1),
           st.lists(st.tuples(st.sampled_from(["donor", "permute", "query"]),
                              st.integers(0, 2 ** 28 - 1),
                              st.integers(0, 2 ** 28 - 1),
                              st.integers(1, 12), st.integers(0, 5)),
                    min_size=1, max_size=25))
    def test_rekeyed_run_draws_match_fresh_streams(self, seed, visits):
        # the importance engines' donor, permutation and query-donor draws,
        # visited interleaved, each re-keying one generator per purpose
        streams = {"donor": (donor_streams(seed), donor_rng),
                   "permute": (permute_streams(seed), permute_rng),
                   "query": (query_donor_streams(seed), query_donor_rng)}
        for purpose, tree, feature, size, extra in visits:
            rekeyed, fresh = streams[purpose]
            index = (feature,) if purpose == "query" else (tree, feature)
            got, want = rekeyed(*index), fresh(seed, *index)
            assert np.array_equal(got.integers(0, 1000, size=(size, 2)),
                                  want.integers(0, 1000, size=(size, 2)))
            assert np.array_equal(got.permutation(size),
                                  want.permutation(size))
            assert np.array_equal(
                got.integers(0, 1000, size=extra, dtype=np.int32),
                want.integers(0, 1000, size=extra, dtype=np.int32))

    def test_probabilities_sum_to_one(self):
        ds = blobs_dataset(50, seed=9)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=20, seed=3))
        proba = ff.predict_proba(forest, ds)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_leaf_histograms_sum_to_inbag_counts(self):
        ds = blobs_dataset(40, seed=11)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=6, seed=5))
        for t, tree in enumerate(forest.trees):
            leaves = tree.leaf_id >= 0
            assert tree.value[leaves].sum() == forest.inbag_counts[:, t].sum()
            np.testing.assert_array_equal(
                tree.value[leaves].sum(axis=1), tree.n_node[leaves])

    def test_csr_and_dense_training_agree(self):
        rng = np.random.default_rng(13)
        dense = rng.normal(size=(80, 4))
        dense[rng.uniform(size=(80, 4)) < 0.5] = 0.0
        y = (dense[:, 0] > 0).astype(float)
        indptr, indices, data = [0], [], []
        for r in range(80):
            for k in range(4):
                if dense[r, k] != 0.0:
                    indices.append(k)
                    data.append(dense[r, k])
            indptr.append(len(indices))
        ds_dense = ff.Dataset.from_dense(dense, target=y)
        ds_csr = ff.Dataset.from_csr(indptr, indices, data, 4,
                                     schema=ds_dense.schema, target=y)
        cfg = ff.ForestConfig(mode="classification", n_trees=5, seed=21)
        f_dense = ff.train(ds_dense, cfg)
        f_csr = ff.train(ds_csr, cfg)
        assert np.array_equal(f_dense.leaf_of_train, f_csr.leaf_of_train)
        np.testing.assert_array_equal(
            ff.predict_proba(f_dense, ds_dense),
            ff.predict_proba(f_csr, ds_dense))

    @settings(max_examples=20, deadline=None)
    @given(sparse_matrices(max_rows=30, max_cols=5), st.integers(0, 2 ** 16))
    def test_unsupervised_csr_and_dense_agree(self, matrix, seed):
        # CSR unsupervised training stacks real and synthetic rows into one
        # CSR Dataset; it must grow the very trees the dense copy grows
        dense, stored_zero = matrix
        ds_csr = ff.Dataset.from_csr(*dense_to_csr(dense, stored_zero),
                                     dense.shape[1])
        ds_dense = ff.Dataset.from_dense(
            ds_csr.read_cells(np.arange(ds_csr.n_rows)[:, None],
                              np.arange(ds_csr.n_features)), ds_csr.schema)
        cfg = ff.ForestConfig(mode="unsupervised", n_trees=3, seed=seed)
        f_dense = ff.train(ds_dense, cfg)
        f_csr = ff.train(ds_csr, cfg)
        assert np.array_equal(f_dense.inbag_counts, f_csr.inbag_counts)
        assert np.array_equal(f_dense.leaf_of_train, f_csr.leaf_of_train)
        np.testing.assert_equal(f_dense.oob_error, f_csr.oob_error)
        assert np.array_equal(ff.predict_proba(f_dense, ds_dense),
                              ff.predict_proba(f_csr, ds_csr))
        assert np.array_equal(ff.overall_variable_importance(f_dense, ds_dense),
                              ff.overall_variable_importance(f_csr, ds_csr))

    def test_regression_mode(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(size=(120, 3))
        y = 3 * X[:, 0] + rng.normal(scale=0.05, size=120)
        ds = ff.Dataset.from_dense(X, target=y)
        forest = ff.train(ds, ff.ForestConfig(mode="regression", n_trees=30,
                                              seed=2))
        pred = ff.predict(forest, ds)
        assert np.corrcoef(pred, y)[0, 1] > 0.9
        # convexity: forest means stay inside the target range
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12


class TestTrainHeldOut:
    @staticmethod
    def masked(seed, mode, strategy="presort"):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(80, 4))
        X[:, 1] = X[:, 0] + rng.normal(scale=0.1, size=80)
        held = rng.uniform(size=X.shape) < 0.2
        target = {"classification": (X[:, 0] > 0).astype(float),
                  "regression": 2 * X[:, 0] - X[:, 2],
                  "unsupervised": None}[mode]
        cfg = ff.ForestConfig(mode=mode, n_trees=6, min_node_size=3, seed=4,
                              split_strategy=strategy, n_bins=8)
        return X, held, target, cfg

    @pytest.mark.parametrize("mode, strategy", [
        pytest.param(mode, strategy, id=mode if strategy == "presort"
                     else f"{mode}-{strategy}")
        for strategy in ("presort", "histogram")
        for mode in ("classification", "regression", "unsupervised")])
    def test_forest_never_reads_held_out_cells(self, mode, strategy):
        X, held, target, cfg = self.masked(31, mode, strategy)
        forests = []
        for fill in (0.0, 50.0):
            filled = np.where(held, fill, X)
            ds = ff.Dataset.from_dense(filled, target=target)
            forests.append(train_held_out(ds, held, cfg))
        a, b = forests
        assert np.array_equal(a.leaf_of_train, b.leaf_of_train)
        assert a.oob_error == b.oob_error
        assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
        assert np.array_equal(a.held_out_left, b.held_out_left)

    def test_no_held_out_cell_matches_train(self):
        X, held, target, cfg = self.masked(32, "unsupervised")
        ds = ff.Dataset.from_dense(X)
        plain = ff.train(ds, cfg)
        masked = train_held_out(ds, np.zeros_like(held), cfg)
        assert np.array_equal(plain.leaf_of_train, masked.leaf_of_train)
        assert np.array_equal(plain.threshold, masked.threshold,
                              equal_nan=True)
        assert masked.held_out_left is None

    def test_bad_mask_rejected(self):
        ds = ff.Dataset.from_dense(np.zeros((4, 2)))
        cfg = ff.ForestConfig(mode="unsupervised", n_trees=2)
        with pytest.raises(ff.ArgumentError, match="shape"):
            train_held_out(ds, np.zeros((4, 3), dtype=bool), cfg)
        csr = ff.Dataset.from_csr([0, 1, 1], [0], [1.0], n_features=2)
        with pytest.raises(ff.ArgumentError, match="dense"):
            train_held_out(csr, [[True, False], [False, False]], cfg)


class TestGrowerOracle:
    """Every node of every tree against its rows, rebuilt from the streams.

    A node's in-bag rows come from tree_rng's bootstrap and the splits
    above it, its candidates from node_rng(seed, t, route); its split must
    be find_node_split's on exactly those, its value and size theirs.
    Leaf ids and child ids follow the left-first depth-first order, and
    split_gain is the sum of gain * n over the splits in that order.
    """

    @staticmethod
    def check(ds, forest, cfg, held=None):
        n, m = ds.n_rows, ds.n_features
        values = ds.read_cells(np.arange(n)[:, None], np.arange(m))
        if cfg.mode == "unsupervised":
            perms = [synthetic_rng(cfg.seed, k).permutation(n)
                     for k in range(m)]
            values = np.vstack([values, np.column_stack(
                [values[p, k] for k, p in enumerate(perms)])])
            if held is not None:
                held = np.vstack([held, np.column_stack(
                    [held[p, k] for k, p in enumerate(perms)])])
            y, n_classes = np.repeat([0, 1], n), 2
        elif cfg.mode == "regression":
            y, n_classes = ds.target, 0
        else:
            y = ds.target.astype(np.int64)
            n_classes = int(y.max()) + 1
        task = "regression" if cfg.mode == "regression" else "classification"
        mtry = cfg.resolved_mtry(m)
        min_node = cfg.resolved_min_node_size()
        is_cat = ds.schema.is_categorical()
        for t, tree in enumerate(forest.trees):
            draw = tree_rng(cfg.seed, t).integers(0, len(y), size=len(y))
            assert np.array_equal(forest.inbag_counts[:, t],
                                  np.bincount(draw, minlength=len(y)))
            gain = np.zeros(m)
            next_leaf, next_node = 0, 1
            stack = [(0, draw, 0, ROOT_ROUTE)]
            while stack:
                node, rows, depth, route = stack.pop()
                yv = y[rows]
                assert tree.n_node[node] == len(rows)
                if task == "classification":
                    assert np.array_equal(
                        tree.value[node], np.bincount(yv, minlength=n_classes))
                else:
                    assert tree.value[node] == np.mean(yv)
                split = None
                if not (np.all(yv == yv[0]) or len(rows) <= min_node
                        or depth == cfg.max_depth):
                    feats = np.sort(node_rng(cfg.seed, t, route).choice(
                        m, size=mtry, replace=False))
                    split = find_node_split(
                        values[rows][:, feats], feats, yv, task=task,
                        n_classes=n_classes, strategy=cfg.split_strategy,
                        n_bins=cfg.n_bins, categorical=is_cat[feats],
                        held=None if held is None else held[rows][:, feats])
                if split is not None:
                    go_left = values[rows, split.feature] <= split.threshold
                    if held is not None:
                        obs = ~held[rows, split.feature]
                        side = 2 * np.sum(go_left & obs) >= np.sum(obs)
                        go_left = np.where(obs, go_left, side)
                    if go_left.all() or not go_left.any():
                        split = None
                if split is None:
                    assert tree.feature[node] == -1
                    assert tree.leaf_id[node] == next_leaf
                    next_leaf += 1
                    continue
                assert (tree.feature[node], tree.threshold[node]) == \
                    (split.feature, split.threshold)
                assert (tree.left[node], tree.right[node]) == \
                    (next_node, next_node + 1)
                if held is not None:
                    assert forest.held_out_left[
                        forest.node_offset[t] + node] == side
                gain[split.feature] += split.gain * len(rows)
                stack.append((next_node + 1, rows[~go_left], depth + 1,
                              child_route(route, True)))
                stack.append((next_node, rows[go_left], depth + 1,
                              child_route(route, False)))
                next_node += 2
            assert next_node == tree.n_nodes
            assert next_leaf == np.count_nonzero(tree.feature < 0)
            assert np.array_equal(tree.split_gain, gain)

    @settings(max_examples=30, deadline=None)
    @given(sparse_matrices(max_rows=16, max_cols=4),
           st.sampled_from(["classification", "regression", "unsupervised"]),
           st.sampled_from(["presort", "histogram"]),
           st.sampled_from(["dense", "csr", "held"]),
           st.integers(0, 2 ** 16), st.sampled_from([None, 2]), st.booleans())
    def test_every_node_is_its_rows_split(self, matrix, mode, strategy,
                                          storage, seed, depth, with_cat):
        dense, _ = matrix
        n, m = dense.shape
        rng = np.random.default_rng(seed)
        if with_cat:
            dense[:, 0] = rng.integers(0, 3, size=n)
        schema = ff.FeatureSchema([
            ff.Feature(f"f{k}", "categorical" if with_cat and k == 0
                       else "continuous", ("a", "b", "c")
                       if with_cat and k == 0 else ()) for k in range(m)])
        target = TestForestWalk.target(mode, n, rng)
        cfg = ff.ForestConfig(mode=mode, n_trees=2, seed=seed, n_bins=4,
                              split_strategy=strategy, max_depth=depth,
                              min_node_size=int(rng.integers(1, 4)))
        held = rng.uniform(size=(n, m)) < 0.25
        if storage == "csr":
            ds = ff.Dataset.from_csr(*dense_to_csr(dense), m, schema=schema,
                                     target=target)
        else:
            ds = ff.Dataset.from_dense(dense, schema, target=target)
        if storage == "held" and held.any():
            self.check(ds, train_held_out(ds, held, cfg), cfg, held)
        else:
            self.check(ds, ff.train(ds, cfg), cfg)

    @pytest.mark.parametrize("mode", ["classification", "regression",
                                      "unsupervised"])
    def test_deep_trees_sum_split_gain_depth_first(self, mode):
        # two features split many times each: another order of the
        # split_gain sums rounds differently
        rng = np.random.default_rng(41)
        X = rng.normal(size=(120, 2))
        target = TestForestWalk.target(mode, 120, rng)
        ds = ff.Dataset.from_dense(X, target=target)
        cfg = ff.ForestConfig(mode=mode, n_trees=3, seed=5, mtry=1)
        self.check(ds, ff.train(ds, cfg), cfg)
        held = rng.uniform(size=X.shape) < 0.2
        self.check(ds, train_held_out(ds, held, cfg), cfg, held)


class TestPredict:
    def test_single_root_leaf_all_one_class(self):
        ds = ff.Dataset.from_dense([[0.0], [1.0]], target=[0.0, 0.0])
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=1, seed=0))
        proba = ff.predict_proba(forest, np.array([[123.0]]))
        assert proba[0, 0] == 1.0

    def test_three_tree_hand_average(self):
        # classification: three stumps on feature 0, votes computed by hand
        t1 = stump(0, 0.5, [3.0, 1.0], [0.0, 4.0])   # left: 3/4 class0
        t2 = stump(0, 1.5, [2.0, 2.0], [1.0, 0.0])   # left: 1/2 class0
        t3 = stump(0, -0.5, [5.0, 0.0], [1.0, 3.0])  # right: 1/4 class0
        ds = ff.Dataset.from_dense([[0.0]], target=[0.0])
        forest = assemble_forest([t1, t2, t3], ds, n_classes=2)
        proba = ff.predict_proba(forest, np.array([[0.0]]))
        # query 0.0 goes left, left, right
        expected0 = (3 / 4 + 1 / 2 + 1 / 4) / 3
        assert proba[0, 0] == pytest.approx(expected0, abs=1e-15)

    def test_three_tree_regression_average(self):
        trees = [stump(0, 0.0, -1.0, 2.0), stump(0, 1.0, 0.5, 3.0),
                 leaf_tree(mean=10.0)]
        ds = ff.Dataset.from_dense([[0.0]], target=[0.0])
        forest = assemble_forest(trees, ds, mode="regression")
        pred = ff.predict(forest, np.array([[0.5]]))
        assert pred[0] == pytest.approx((2.0 + 0.5 + 10.0) / 3, abs=1e-15)

    def test_dimension_mismatch(self):
        ds = blobs_dataset(10, seed=0)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=2, seed=0))
        with pytest.raises(ff.ArgumentError):
            ff.predict(forest, np.zeros((1, 5)))

    def test_argmax_tie_goes_to_lower_class(self):
        tree = leaf_tree(class_counts=[2.0, 2.0], n=4)
        ds = ff.Dataset.from_dense([[0.0]], target=[0.0])
        forest = assemble_forest([tree], ds, n_classes=2)
        assert ff.predict(forest, np.array([[0.0]]))[0] == 0


class TestLeafOf:
    def test_root_leaf(self):
        ds = ff.Dataset.from_dense([[0.0]], target=[0.0])
        forest = assemble_forest([leaf_tree(class_counts=[1.0])], ds,
                                 n_classes=1)
        assert _query_leaves(forest, [12345.0])[0] == 0

    def test_tie_goes_left(self):
        tree = stump(0, 5.0, [1.0, 0.0], [0.0, 1.0])
        ds = ff.Dataset.from_dense([[0.0]], target=[0.0])
        forest = assemble_forest([tree], ds, n_classes=2)
        assert _query_leaves(forest, [5.0])[0] == 0
        assert _query_leaves(forest, [5.0001])[0] == 1

    def test_matches_stored_leaf_assignments(self):
        ds = blobs_dataset(30, seed=19)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=7, seed=3))
        for r in range(ds.n_rows):
            assert np.array_equal(_query_leaves(forest, ds.values[r]),
                                  forest.leaf_of_train[r])

    def test_apply_matches_reference_walk(self):
        ds = blobs_dataset(25, seed=23)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=4, seed=9))
        rows = np.arange(ds.n_rows)
        for tree in forest.trees:
            got = tree.leaf_id[tree.apply_nodes(ds.values, rows)]
            want = [walk_tree(tree, ds.values[r]) for r in range(ds.n_rows)]
            assert np.array_equal(got, want)


class TestOOB:
    def test_all_inbag_reports_all_skipped(self):
        ds = ff.Dataset.from_dense([[0.0], [1.0]], target=[0.0, 1.0])
        tree = stump(0, 0.5, [1.0, 0.0], [0.0, 1.0])
        forest = assemble_forest([tree], ds, n_classes=2,
                                 inbag_counts=np.ones((2, 1)))
        result = ff.oob_error(forest, ds)
        assert np.isnan(result.value)
        assert result.n_skipped == 2
        assert result.n_evaluated == 0

    def test_oob_fraction_near_one_over_e(self):
        rng = np.random.default_rng(29)
        ds = ff.Dataset.from_dense(rng.normal(size=(1000, 2)),
                                   target=(rng.uniform(size=1000) > 0.5)
                                   .astype(float))
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=20, max_depth=2,
                                              seed=8))
        frac = forest.oob_mask().sum(axis=0).mean() / 1000
        assert 0.34 <= frac <= 0.40  # 1 - (1 - 1/n)^n ~ 0.368

    def test_oob_close_to_holdout(self):
        ds = blobs_dataset(150, seed=31)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=60, seed=12))
        test = blobs_dataset(1500, seed=97)
        holdout = np.mean(ff.predict(forest, test) != test.target)
        assert abs(forest.oob_error - holdout) <= 0.03


def walk_held_out(forest, t, x, held_row):
    """Reference walk of tree t that sends a held-out split feature to
    held_out_left."""
    root = node = forest.node_offset[t]
    while forest.feature[node] >= 0:
        f = forest.feature[node]
        go_left = forest.held_out_left[node] if held_row[f] \
            else x[f] <= forest.threshold[node]
        node = root + int(forest.left[node] if go_left else forest.right[node])
    return int(forest.leaf_id[node])


class TestForestWalk:
    """The one level-synchronous walk against the per-row reference walk."""

    @staticmethod
    def target(mode, n, rng):
        if mode == "classification":
            return rng.integers(0, 3, size=n).astype(float)
        if mode == "regression":
            return rng.normal(size=n)
        return None

    @settings(max_examples=40, deadline=None)
    @given(sparse_matrices(),
           st.sampled_from(["classification", "regression", "unsupervised"]),
           st.integers(0, 2 ** 16))
    def test_walk_matches_reference_on_dense_and_csr(self, matrix, mode, seed):
        dense, stored_zero = matrix
        n, m = dense.shape
        rng = np.random.default_rng(seed)
        csr = ff.Dataset.from_csr(*dense_to_csr(dense, stored_zero), m,
                                  target=self.target(mode, n, rng))
        forest = ff.train(csr, ff.ForestConfig(mode=mode, n_trees=4, seed=seed,
                                               min_node_size=1))
        T = forest.n_trees
        want = np.array([[walk_tree(tree, dense[r]) for tree in forest.trees]
                         for r in range(n)])
        assert np.array_equal(forest.leaf_of_train[:n], want)
        for data in (dense, csr):
            got = forest.leaf_id[_node_grid(forest, data, n)]
            assert np.array_equal(got, want)

        # a per-cell override reads like a copy whose cell was replaced
        rows = np.repeat(np.arange(n), T)
        start = np.tile(forest.node_offset[:-1], n)
        cols = rng.integers(0, m, size=n * T)
        vals = np.round(rng.normal(size=n * T), 1)
        for data in (dense, csr):
            got = forest.leaf_id[_walk(forest, data, rows, start,
                                       (cols, vals))]
            for c in range(n * T):
                x = dense[rows[c]].copy()
                x[cols[c]] = vals[c]
                assert got[c] == walk_tree(forest.trees[c % T], x)

    @settings(max_examples=40, deadline=None)
    @given(sparse_matrices(),
           st.sampled_from(["classification", "regression", "unsupervised"]),
           st.integers(0, 2 ** 16))
    def test_perturbed_walk_matches_full_override_walk(self, matrix, mode,
                                                       seed):
        dense, stored_zero = matrix
        n, m = dense.shape
        rng = np.random.default_rng(seed)
        csr = ff.Dataset.from_csr(*dense_to_csr(dense, stored_zero), m,
                                  target=self.target(mode, n, rng))
        forest = ff.train(csr, ff.ForestConfig(mode=mode, n_trees=4, seed=seed,
                                               min_node_size=1))
        T = forest.n_trees
        # every (row, tree, feature) cell; donor values from the split
        # thresholds (so many equal one), the values just above them and
        # the data
        rows = np.repeat(np.arange(n), T * m)
        trees = np.tile(np.repeat(np.arange(T), m), n)
        feats = np.tile(np.arange(m), n * T)
        split = forest.threshold[forest.feature >= 0]
        values = rng.choice(np.concatenate(
            [split, np.nextafter(split, np.inf), dense.ravel()]), len(rows))
        end = forest.node_of_leaf(forest.leaf_of_train[:n])[rows, trees]
        # the table of all trees, and of a tail of them with some features
        t0 = int(rng.integers(0, T))
        tail = (trees >= t0) & (feats % 2 == t0 % 2)
        for cells, first in ((slice(None), 0), (tail, t0)):
            r, t, k, v = rows[cells], trees[cells], feats[cells], values[cells]
            root = forest.node_offset[t]
            ancestors = _ancestors(forest, first, T, k)
            for data in (dense, csr):
                want = _walk(forest, data, r, root, (k, v))
                got = _perturbed_walk(forest, data, r, root, end[cells], k, v,
                                      ancestors)
                assert np.array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 30), st.integers(1, 4),
           st.sampled_from(["classification", "unsupervised"]),
           st.integers(0, 2 ** 16))
    def test_held_out_routing_follows_held_out_left(self, n, m, mode, seed):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, m)), 1)
        held = rng.uniform(size=(n, m)) < 0.3
        ds = ff.Dataset.from_dense(np.where(held, 0.0, X),
                                   target=self.target(mode, n, rng))
        forest = train_held_out(ds, held, ff.ForestConfig(
            mode=mode, n_trees=3, seed=seed, min_node_size=1))
        if not held.any():
            assert forest.held_out_left is None
            return
        want = np.array([[walk_held_out(forest, t, X[r], held[r])
                          for t in range(forest.n_trees)] for r in range(n)])
        assert np.array_equal(forest.leaf_of_train[:n], want)
        got = forest.leaf_id[_node_grid(forest, X, n, held_out=held)]
        assert np.array_equal(got, want)

    def test_grid_walk_spans_blocks(self):
        # 40 trees x 5000 rows is more cells than one block of the grid walk
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 3))
        ds = ff.Dataset.from_dense(X, target=(X[:, 0] > 0).astype(float))
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=40, seed=3))
        Q = rng.normal(size=(5000, 3))
        want = np.column_stack([
            tree.leaf_id[tree.apply_nodes(Q, np.arange(len(Q)))]
            for tree in forest.trees])
        got = forest.leaf_id[_node_grid(forest, Q, len(Q))]
        assert np.array_equal(got, want)
        # predict sums each walked block's votes over trees 0..T-1 in order
        counts = forest.value[forest.node_of_leaf(want)]
        votes = sum(counts[:, t] / counts[:, t].sum(axis=1, keepdims=True)
                    for t in range(forest.n_trees))
        assert np.array_equal(ff.predict_proba(forest, Q), votes / 40)


def test_forest_copies_its_tree_arrays_and_views_write_through():
    ds = ff.Dataset.from_dense([[0.0], [1.0]], target=[0.0, 1.0])
    trees = [stump(0, 0.5, [1.0, 0.0], [0.0, 1.0]),
             stump(0, 0.7, [1.0, 0.0], [0.0, 1.0])]
    given = [{k: v.copy() for k, v in tree.items()} for tree in trees]
    forest = assemble_forest(trees, ds, n_classes=2)
    forest.threshold[3] = 9.0
    forest.trees[1].n_node[2] = 7
    assert forest.n_node[5] == 7 and forest.trees[1].threshold[0] == 9.0
    for tree, copy in zip(trees, given):
        assert tree.keys() == copy.keys()
        for k in tree:
            assert np.array_equal(tree[k], copy[k], equal_nan=True)


def test_public_surface_is_pinned():
    # adding or removing a public name must show up as a diff here
    assert sorted(ff.__all__) == [
        "ArgumentError", "CATEGORICAL", "CONTINUOUS", "CapacityError",
        "ClassSizeError", "ConfigError", "Dataset", "Feature", "FeatureSchema",
        "Forest", "ForestConfig", "ForestFuseError", "FormatError",
        "ImportanceReport", "ImputationConfig", "ImputationError",
        "ImputationResult", "IterationStats", "ModelArtifact",
        "ModelFormatError", "Neighbor", "OOBResult", "OutlierReport",
        "ParseError", "Prototype", "ProvenanceError", "ProximityMatrix",
        "SchemaError", "Split", "Tree", "ValidationReport", "bc_reimpute",
        "check_fingerprint", "compute_importance_report", "compute_proximity",
        "continuous_schema", "counted_trees", "dataset_fingerprint",
        "find_node_split", "find_prototypes",
        "generate_synthetic", "impute",
        "impute_breiman_cutler", "impute_young", "initial_impute",
        "load_dense_csv", "load_model", "load_schema", "load_sparse_svmlight",
        "local_proximity_importance", "local_variable_importance",
        "oob_error", "outlier_exact", "outlier_greedy",
        "overall_proximity_importance", "overall_variable_importance",
        "p_synthetic", "predict", "predict_proba",
        "save_model", "top_k_similar", "top_k_similar_explained",
        "train", "validate_imputations", "write_dense_csv", "young_reimpute",
    ]
