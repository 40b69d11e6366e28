"""The four importance measures against per-tree traversal oracles."""

import tracemalloc

import numpy as np
import pytest
from helpers import assemble_forest, blobs_dataset, leaf_tree, stump, walk_tree

import forestfuse as ff
from forestfuse import forest as forest_module
from forestfuse.forest import _TrainingView
from forestfuse.importance import _CELL_BYTES, _cells
from forestfuse.proximity import query_proximity_importance
from forestfuse.rng import permute_streams


def toy_setup():
    """16-row, 2-feature dataset and a hand-built 6-tree forest.

    Every row is OOB in every tree (hand-built forests never trained), so
    counted trees are simply the correctly-predicting ones; feature 1 is
    used by two trees only.
    """
    rng = np.random.default_rng(41)
    X = np.column_stack([np.linspace(0, 3, 16), rng.normal(size=16)])
    y = (X[:, 0] > 1.4).astype(float)
    ds = ff.Dataset.from_dense(X, target=y)
    trees = [
        stump(0, 1.5, [8.0, 0.0], [0.0, 8.0], n_features=2),
        stump(0, 0.9, [5.0, 0.0], [3.0, 8.0], n_features=2),
        stump(0, 2.1, [6.0, 2.0], [1.0, 7.0], n_features=2),
        stump(1, 0.0, [4.0, 1.0], [4.0, 7.0], n_features=2),
        stump(1, -0.5, [3.0, 1.0], [5.0, 7.0], n_features=2),
        stump(0, 1.2, [7.0, 1.0], [1.0, 7.0], n_features=2),
    ]
    inbag = np.zeros((16, 6), dtype=np.uint16)
    return ds, assemble_forest(trees, ds, n_classes=2, inbag_counts=inbag)


def oracle_local_measures(forest, ds, y):
    """Exhaustive-donor Π and local variable importance by manual loops."""
    n, m = ds.values.shape
    pi = np.zeros((n, m))
    lvar = np.zeros((n, m))
    n_eff = np.zeros(n, dtype=int)
    for i in range(n):
        counted = []
        for t, tree in enumerate(forest.trees):
            if forest.inbag_counts[i, t] != 0:
                continue
            leaf = walk_tree(tree, ds.values[i])
            votes = forest.value[
                forest.leaf_nodes[forest.leaf_offset[t] + leaf]]
            if np.argmax(votes) == y[i]:
                counted.append(t)
        n_eff[i] = len(counted)
        if not counted:
            continue
        for k in range(m):
            moved = 0.0
            flipped = 0.0
            for t in counted:
                tree = forest.trees[t]
                orig = walk_tree(tree, ds.values[i])
                for d in range(n):
                    mod = ds.values[i].copy()
                    mod[k] = ds.values[d, k]
                    new = walk_tree(tree, mod)
                    if new != orig:
                        moved += 1
                    votes = forest.value[
                        forest.leaf_nodes[forest.leaf_offset[t] + new]]
                    if np.argmax(votes) != y[i]:
                        flipped += 1
            pi[i, k] = moved / (len(counted) * n)
            lvar[i, k] = flipped / (len(counted) * n)
    return pi, lvar, n_eff


class TestLocalProximityImportance:
    def test_toy_forest_matches_oracle_exactly(self):
        ds, forest = toy_setup()
        y = ds.target.astype(int)
        expected_pi, expected_lvar, expected_eff = oracle_local_measures(
            forest, ds, y)
        pi = ff.local_proximity_importance(forest, ds, donors="exhaustive")
        lvar = ff.local_variable_importance(forest, ds, donors="exhaustive")
        np.testing.assert_allclose(pi, expected_pi, atol=1e-15)
        np.testing.assert_allclose(lvar, expected_lvar, atol=1e-15)

    def test_unused_feature_has_zero_column(self):
        ds = blobs_dataset(40, seed=2)
        X = np.column_stack([ds.values, np.full(80, 3.0)])
        ds3 = ff.Dataset.from_dense(X, target=ds.target)
        forest = ff.train(ds3, ff.ForestConfig(mode="classification",
                                               n_trees=10, seed=4))
        pi = ff.local_proximity_importance(forest, ds3, n_repeats=2)
        np.testing.assert_array_equal(pi[:, 2], 0.0)

    def test_root_leaf_trees_give_zero(self):
        ds = ff.Dataset.from_dense([[0.0], [1.0], [2.0]],
                                   target=[0.0, 0.0, 0.0])
        trees = [leaf_tree(class_counts=[3.0], n=3) for _ in range(2)]
        inbag = np.zeros((3, 2), dtype=np.uint16)
        forest = assemble_forest(trees, ds, n_classes=1, inbag_counts=inbag)
        pi = ff.local_proximity_importance(forest, ds)
        np.testing.assert_array_equal(pi, 0.0)

    def test_range_bounds(self):
        ds, forest = toy_setup()
        report = ff.compute_importance_report(forest, ds, donors="exhaustive")
        assert report.local_prox.min() >= 0.0
        assert report.local_prox.max() <= 1.0
        assert report.local_var.min() >= 0.0
        assert report.local_var.max() <= 1.0

    def test_zero_effective_rows_flagged_and_zero(self):
        # row 2 is in-bag in every tree -> no counted trees -> zero row
        ds = ff.Dataset.from_dense([[0.0], [1.0], [2.0], [3.0]],
                                   target=[0.0, 0.0, 1.0, 1.0])
        trees = [stump(0, 1.5, [2.0, 0.0], [0.0, 2.0]) for _ in range(3)]
        inbag = np.zeros((4, 3), dtype=np.uint16)
        inbag[2, :] = 1
        forest = assemble_forest(trees, ds, n_classes=2, inbag_counts=inbag)
        report = ff.compute_importance_report(forest, ds, donors="exhaustive")
        assert report.zero_effective[2]
        assert not report.zero_effective[[0, 1, 3]].any()
        np.testing.assert_array_equal(report.local_prox[2], 0.0)
        np.testing.assert_array_equal(report.local_var[2], 0.0)

    def test_sampled_donors_approximate_exhaustive(self):
        ds, forest = toy_setup()
        exact = ff.local_proximity_importance(forest, ds, donors="exhaustive")
        sampled = ff.local_proximity_importance(forest, ds, n_repeats=8)
        assert np.max(np.abs(exact - sampled)) <= 0.15

    def test_leaf_preserving_permutation_cannot_flip(self):
        # shared donor draws make local_var <= local_prox entrywise
        ds = blobs_dataset(50, seed=6)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=12, seed=5))
        pi = ff.local_proximity_importance(forest, ds, n_repeats=3)
        lvar = ff.local_variable_importance(forest, ds, n_repeats=3)
        assert np.all(lvar <= pi + 1e-15)

    def test_determinism(self):
        ds = blobs_dataset(30, seed=8)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=8, seed=6))
        a = ff.local_proximity_importance(forest, ds, n_repeats=2)
        b = ff.local_proximity_importance(forest, ds, n_repeats=2)
        np.testing.assert_array_equal(a, b)

    def test_regression_counts_all_oob_trees(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(size=(60, 2))
        y = 2 * X[:, 0] + rng.normal(scale=0.05, size=60)
        ds = ff.Dataset.from_dense(X, target=y)
        forest = ff.train(ds, ff.ForestConfig(mode="regression", n_trees=10,
                                              seed=7))
        counted = ff.counted_trees(forest, ds)
        np.testing.assert_array_equal(counted, forest.oob_mask())


class TestOverallProximityImportance:
    def test_zero_pi_gives_zero_overall(self):
        pi = np.zeros((4, 3))
        ds, forest = toy_setup()
        np.testing.assert_array_equal(
            ff.overall_proximity_importance(forest, ds, pi=pi), 0.0)

    def test_column_sums(self):
        ds, forest = toy_setup()
        pi = ff.local_proximity_importance(forest, ds, donors="exhaustive")
        overall = ff.overall_proximity_importance(forest, ds,
                                                  donors="exhaustive")
        np.testing.assert_allclose(overall, pi.sum(axis=0), atol=1e-12)

    def test_constant_second_feature_ordering(self):
        X = np.column_stack([np.linspace(0, 1, 40), np.full(40, 2.0)])
        y = (X[:, 0] > 0.5).astype(float)
        ds = ff.Dataset.from_dense(X, target=y)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=10, seed=3))
        overall = ff.overall_proximity_importance(forest, ds, n_repeats=4)
        assert overall[0] > overall[1]
        assert overall[1] == 0.0


class TestOverallVariableImportance:
    def test_constant_feature_zero_under_both(self):
        X = np.column_stack([np.linspace(0, 1, 60), np.full(60, 1.0)])
        y = (X[:, 0] > 0.4).astype(float)
        ds = ff.Dataset.from_dense(X, target=y)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=10, seed=1))
        perm = ff.overall_variable_importance(forest, ds, "permutation")
        gain = ff.overall_variable_importance(forest, ds, "split_gain")
        assert perm[1] == 0.0
        assert gain[1] == 0.0

    def test_split_gain_sums_to_one(self):
        ds = blobs_dataset(50, seed=12)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=15, seed=2))
        gain = ff.overall_variable_importance(forest, ds, "split_gain")
        assert gain.sum() == pytest.approx(1.0, abs=1e-12)

    def test_signal_feature_ranked_first(self):
        rng = np.random.default_rng(14)
        X = np.column_stack([rng.uniform(size=200),
                             rng.uniform(size=200)])
        y = (X[:, 0] > 0.5).astype(float)
        ds = ff.Dataset.from_dense(X, target=y)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=30, seed=9))
        perm = ff.overall_variable_importance(forest, ds, "permutation")
        gain = ff.overall_variable_importance(forest, ds, "split_gain")
        assert perm[0] > perm[1]
        assert gain[0] > gain[1]

    def test_unknown_method(self):
        ds, forest = toy_setup()
        with pytest.raises(ff.ConfigError):
            ff.overall_variable_importance(forest, ds, "magic")

    def test_regression_permutation_importance(self):
        rng = np.random.default_rng(20)
        X = rng.uniform(size=(150, 3))
        y = 4 * X[:, 1] + rng.normal(scale=0.1, size=150)
        ds = ff.Dataset.from_dense(X, target=y)
        forest = ff.train(ds, ff.ForestConfig(mode="regression", n_trees=20,
                                              seed=4))
        perm = ff.overall_variable_importance(forest, ds, "permutation")
        assert np.argmax(perm) == 1

    @pytest.mark.parametrize("mode", ["classification", "regression",
                                      "unsupervised"])
    def test_permutation_matches_a_per_tree_oracle(self, mode):
        # per tree and feature it splits on, the mean score of the tree's
        # OOB rows walked one at a time, before and after the feature is
        # permuted among them, added up tree by tree, feature by feature
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 4))
        y = {"classification": (X[:, 0] > 0) + (X[:, 1] > 0.8),
             "regression": X[:, 0] + X[:, 2] ** 2, "unsupervised": None}[mode]
        ds = ff.Dataset.from_dense(X, target=y)
        forest = ff.train(ds, ff.ForestConfig(mode=mode, n_trees=8, seed=5))
        view = _TrainingView(ds, mode, forest.config.seed)
        data, y = view.columns, view.y
        streams = permute_streams(forest.config.seed)

        def scores(t, rows):
            nodes = [forest.leaf_nodes[forest.leaf_offset[t] +
                                       walk_tree(forest.trees[t], x)]
                     for x in rows]
            if mode == "regression":
                return (forest.value[nodes] - y_oob) ** 2
            return np.argmax(forest.value[nodes], axis=1) == y_oob

        want = np.zeros(4)
        for t in range(forest.n_trees):
            oob = np.flatnonzero(forest.inbag_counts[:, t] == 0)
            y_oob = y[oob]
            base = np.mean(scores(t, data[oob]))
            tree = forest.trees[t]
            for k in np.unique(tree.feature[tree.feature >= 0]).tolist():
                moved = data[oob].copy()
                moved[:, k] = moved[streams(t, k).permutation(len(oob)), k]
                delta = np.mean(scores(t, moved)) - base
                want[k] += float(delta if mode == "regression" else -delta)
        np.testing.assert_array_equal(
            ff.overall_variable_importance(forest, ds), want / forest.n_trees)

    def test_unsupervised_importance_runs_on_augmented_matrix(self):
        rng = np.random.default_rng(25)
        X = rng.uniform(size=(60, 3))
        X[:, 1] = X[:, 0] + rng.normal(scale=0.01, size=60)
        ds = ff.Dataset.from_dense(X)
        forest = ff.train(ds, ff.ForestConfig(mode="unsupervised", n_trees=10,
                                              seed=3))
        perm = ff.overall_variable_importance(forest, ds, "permutation")
        assert perm.shape == (3,)
        # dependency features should carry the real-vs-synthetic signal
        assert max(perm[0], perm[1]) > perm[2]


def mismatched_datasets(ds):
    """ds's rows one feature wider, one narrower, and with a missing cell."""
    X, y = ds.values, ds.target
    mask = np.zeros(X.shape, dtype=bool)
    mask[3, 1] = True
    return [ff.Dataset.from_dense(np.column_stack([X, X[:, :1]]), target=y),
            ff.Dataset.from_dense(X[:, :1], target=y),
            ff.Dataset.from_dense(X, missing_mask=mask, target=y)]


@pytest.mark.parametrize("measure", [ff.local_proximity_importance,
                                     ff.local_variable_importance,
                                     ff.overall_variable_importance])
def test_wrong_width_or_unfilled_dataset_rejected(measure):
    ds, forest = toy_setup()
    for bad, match in zip(mismatched_datasets(ds),
                          ["3 features", "1 features", "missing values"]):
        with pytest.raises(ff.ArgumentError, match=match):
            measure(forest, bad)


def test_small_budget_splits_the_work_and_keeps_every_output(monkeypatch):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(400, 4))
    ds = ff.Dataset.from_dense(X, target=(X[:, 0] + X[:, 1] > 0).astype(float))
    forest = ff.train(ds, ff.ForestConfig(mode="classification", n_trees=20,
                                          seed=3))

    def measures():
        report = ff.compute_importance_report(forest, ds, n_repeats=2)
        query = query_proximity_importance(forest, ds, X[5], n_repeats=3)
        return report.overall_var, report.local_prox, report.local_var, query

    def peak_bytes():
        tracemalloc.start()
        try:
            measures()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block = measures()
    assert len(list(_cells(forest, forest.oob_mask(), _CELL_BYTES))) == 1
    one_block_peak = peak_bytes()
    monkeypatch.setattr(forest_module, "BLOCK_BYTES", 1 << 16)
    assert len(list(_cells(forest, forest.oob_mask(), _CELL_BYTES))) > 20
    for got, want in zip(measures(), one_block):
        assert got.tobytes() == want.tobytes()
    # the (rows, trees) arrays held outside the blocks, and a few blocks
    peak = peak_bytes()
    assert peak < one_block_peak / 4
    assert peak < 40 * ds.n_rows * forest.n_trees + 4 * (1 << 16)
