"""Proximity matrix and top-K queries against oracles."""

import numpy as np
import pytest
from helpers import (assemble_forest, blobs, blobs_dataset, dense_to_csr,
                     leaf_tree, stump, walk_tree)
from hypothesis import given, settings
from hypothesis import strategies as st

import forestfuse as ff
from forestfuse.proximity import query_proximity_importance


def brute_force_proximity(leaf_of_train, n):
    """Double loop over stored leaf assignments."""
    T = leaf_of_train.shape[1]
    prox = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            prox[i, j] = np.mean(leaf_of_train[i] == leaf_of_train[j])
    return prox


def brute_force_oob_proximity(leaf_of_train, oob, n):
    """Double loop over the trees in which both rows are out-of-bag."""
    prox = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            both = oob[i] & oob[j]
            if both.any():
                prox[i, j] = np.mean(leaf_of_train[i, both]
                                     == leaf_of_train[j, both])
    return prox


@pytest.fixture(scope="module")
def small_forest():
    ds = blobs_dataset(25, seed=3)
    forest = ff.train(ds, ff.ForestConfig(mode="classification", n_trees=5,
                                          seed=7))
    return ds, forest


class TestComputeProximity:
    def test_duplicate_rows_have_proximity_one(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 6.0], [4.0, 6.0]])
        ds = ff.Dataset.from_dense(X, target=[0.0, 0.0, 1.0, 1.0])
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=10, seed=1))
        prox = ff.compute_proximity(forest, ds)
        assert prox.values[0, 1] == 1.0

    def test_one_tree_two_leaves(self):
        tree = stump(0, 0.5, [1.0, 0.0], [0.0, 1.0])
        ds = ff.Dataset.from_dense([[0.0], [1.0]], target=[0.0, 1.0])
        forest = assemble_forest([tree], ds, n_classes=2)
        prox = ff.compute_proximity(forest, ds)
        assert prox.values[0, 1] == 0.0
        assert prox.values[0, 0] == 1.0

    def test_matches_brute_force(self, small_forest):
        ds, forest = small_forest
        prox = ff.compute_proximity(forest, ds)
        expected = brute_force_proximity(forest.leaf_of_train, ds.n_rows)
        np.testing.assert_array_equal(prox.values, expected)

    def test_axioms(self, small_forest):
        ds, forest = small_forest
        prox = ff.compute_proximity(forest, ds)
        np.testing.assert_array_equal(prox.values, prox.values.T)
        np.testing.assert_array_equal(np.diag(prox.values), 1.0)
        scaled = prox.values * forest.n_trees
        np.testing.assert_array_equal(scaled, np.round(scaled))
        assert prox.values.min() >= 0.0
        assert prox.values.max() <= 1.0

    def test_matrix_cap(self, small_forest):
        ds, forest = small_forest
        need = 8 * ds.n_rows ** 2  # the float64 matrix
        with pytest.raises(ff.CapacityError, match=f"{need} bytes.*row blocks"):
            ff.compute_proximity(forest, ds, max_bytes=need - 1)
        prox = ff.compute_proximity(forest, ds, max_bytes=need)
        assert prox.values.nbytes == need

    def test_oob_pair_mode_matches_oracle(self, small_forest):
        ds, forest = small_forest
        prox = ff.compute_proximity(forest, ds, pair_mode="oob")
        oob = forest.oob_mask()
        n = ds.n_rows
        for i in range(0, n, 5):
            for j in range(0, n, 7):
                both = oob[i] & oob[j]
                if both.sum() == 0:
                    assert prox.values[i, j] == 0.0
                else:
                    same = (forest.leaf_of_train[i, both]
                            == forest.leaf_of_train[j, both])
                    assert prox.values[i, j] == pytest.approx(
                        same.mean(), abs=1e-15)

    @pytest.mark.parametrize("mode", ["classification", "unsupervised"])
    def test_oob_pair_mode_matches_all_pairs_oracle(self, mode):
        X, y = blobs(20, seed=4, sep=2.0)
        ds = ff.Dataset.from_dense(
            X, target=y if mode == "classification" else None)
        forest = ff.train(ds, ff.ForestConfig(mode=mode, n_trees=9, seed=5))
        prox = ff.compute_proximity(forest, ds, pair_mode="oob")
        expected = brute_force_oob_proximity(
            forest.leaf_of_train, forest.oob_mask(), ds.n_rows)
        assert (expected == 0).any() and (expected == 1).any()
        np.testing.assert_array_equal(prox.values, expected)

    def test_unsupervised_matrix_covers_real_rows_only(self):
        rng = np.random.default_rng(5)
        ds = ff.Dataset.from_dense(rng.normal(size=(20, 2)))
        forest = ff.train(ds, ff.ForestConfig(mode="unsupervised", n_trees=4,
                                              seed=2))
        prox = ff.compute_proximity(forest, ds)
        assert prox.values.shape == (20, 20)


def assert_top_k_brute_force(forest, query, k):
    """top_k_similar equals a lexsort of direct leaf comparisons."""
    n, T = forest.n_scored_rows, forest.n_trees
    leaves = [walk_tree(tree, query) for tree in forest.trees]
    counts = (forest.leaf_of_train[:n] == leaves).sum(axis=1)
    order = np.lexsort((np.arange(n), -counts))[:k]
    got = ff.top_k_similar(forest, query, k)
    assert [nb.row_id for nb in got] == order.tolist()
    for nb in got:
        assert type(nb.score) is np.float64
        assert nb.score == counts[nb.row_id] / T


class TestTopK:
    def isolated_row_forest(self):
        # row 0 sits alone on the left of every stump
        ds = ff.Dataset.from_dense([[0.0], [1.0], [2.0], [3.0]],
                                   target=[0.0, 1.0, 1.0, 1.0])
        trees = [stump(0, 0.5, [1.0, 0.0], [0.0, 3.0]) for _ in range(3)]
        return ds, assemble_forest(trees, ds, n_classes=2)

    def test_query_identical_to_unique_training_row(self):
        ds, forest = self.isolated_row_forest()
        got = ff.top_k_similar(forest, [0.0], k=1)
        assert got[0].row_id == 0
        assert got[0].score == 1.0

    def test_root_leaf_ties_to_lower_ids(self):
        # one leaf holds every row, so all tie at the full count
        ds = ff.Dataset.from_dense([[0.0], [1.0], [2.0]],
                                   target=[0.0, 0.0, 0.0])
        forest = assemble_forest([leaf_tree(class_counts=[3.0], n=3)], ds,
                                 n_classes=1)
        got = ff.top_k_similar(forest, [5.0], k=3)
        assert [(nb.row_id, nb.score) for nb in got] == [
            (0, 1.0), (1, 1.0), (2, 1.0)]

    def test_k_beyond_n_truncates(self):
        ds, forest = self.isolated_row_forest()
        got = ff.top_k_similar(forest, [0.0], k=100)
        assert len(got) == 4

    def test_hand_computed_counts(self):
        # three stumps with different thresholds; count co-occurrences by hand
        ds = ff.Dataset.from_dense([[0.0], [1.0], [2.0]],
                                   target=[0.0, 0.0, 1.0])
        trees = [stump(0, 0.5, [1.0, 0.0], [1.0, 1.0]),
                 stump(0, 1.5, [2.0, 0.0], [0.0, 1.0]),
                 stump(0, 2.5, [2.0, 1.0], [0.0, 0.0])]
        forest = assemble_forest(trees, ds, n_classes=2)
        # query 0.9: leaves = right(of 0.5), left(of 1.5), left(of 2.5)
        # co-occurrences: row0 -> 0 + 1 + 1 = 2; row1 -> 1 + 1 + 1 = 3;
        # row2 -> 1 + 0 + 1 = 2
        got = ff.top_k_similar(forest, [0.9], k=3)
        assert [(nb.row_id, nb.score) for nb in got] == [
            (1, 3 / 3), (0, 2 / 3), (2, 2 / 3)]

    def test_full_k_matches_proximity_ordering(self, small_forest):
        ds, forest = small_forest
        prox = ff.compute_proximity(forest, ds)
        n = ds.n_rows
        for r in range(n):
            neighbors = ff.top_k_similar(forest, ds.values[r], k=n)
            expected = np.lexsort((np.arange(n), -prox.values[r]))
            assert [nb.row_id for nb in neighbors] == list(expected)
            for nb in neighbors:
                assert nb.score == prox.values[r, nb.row_id]

    def test_scores_quantized(self, small_forest):
        ds, forest = small_forest
        neighbors = ff.top_k_similar(forest, ds.values[3], k=10)
        for nb in neighbors:
            assert (nb.score * forest.n_trees) == int(nb.score * forest.n_trees)

    @settings(max_examples=60, deadline=None)
    @given(mode=st.sampled_from(["classification", "regression",
                                 "unsupervised"]),
           sparse=st.booleans(), n=st.integers(2, 30),
           n_trees=st.integers(1, 7), seed=st.integers(0, 2 ** 16),
           data=st.data())
    def test_matches_brute_force_lexsort(self, mode, sparse, n, n_trees,
                                         seed, data):
        rng = np.random.default_rng(seed)
        # few distinct values, so rows share leaves and counts tie
        X = np.where(rng.uniform(size=(n, 3)) < 0.4, 0.0,
                     rng.integers(-2, 3, size=(n, 3)).astype(float))
        y = None if mode == "unsupervised" else (
            rng.integers(0, 3, size=n).astype(float)
            if mode == "classification" else rng.normal(size=n))
        ds = (ff.Dataset.from_csr(*dense_to_csr(X), 3, target=y) if sparse
              else ff.Dataset.from_dense(X, target=y))
        forest = ff.train(ds, ff.ForestConfig(mode=mode, n_trees=n_trees,
                                              seed=seed))
        if data.draw(st.booleans(), label="training row"):
            query = X[data.draw(st.integers(0, n - 1), label="row")]
        else:
            query = rng.integers(-3, 4, size=3).astype(float)
        k = data.draw(st.integers(1, n + 2), label="k")
        assert_top_k_brute_force(forest, query, k)

    def test_more_than_255_trees(self):
        X = np.arange(12.0)[:, None]
        ds = ff.Dataset.from_dense(X, target=(X[:, 0] % 3 == 0).astype(float))
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=300, seed=4))
        # a training row shares all 300 leaves with itself
        for query in X[:4]:
            assert_top_k_brute_force(forest, query, 12)
        assert ff.top_k_similar(forest, X[0], 1)[0].score == 1.0

    def test_unsupervised_returns_real_rows_only(self):
        rng = np.random.default_rng(5)
        ds = ff.Dataset.from_dense(rng.normal(size=(20, 2)))
        forest = ff.train(ds, ff.ForestConfig(mode="unsupervised", n_trees=4,
                                              seed=2))
        got = ff.top_k_similar(forest, ds.values[0], k=100)
        assert sorted(nb.row_id for nb in got) == list(range(20))
        assert_top_k_brute_force(forest, ds.values[0], 100)

    def test_k_zero_rejected(self, small_forest):
        ds, forest = small_forest
        with pytest.raises(ff.ArgumentError):
            ff.top_k_similar(forest, ds.values[0], k=0)


class TestExplainedQuery:
    def test_constant_feature_zero_importance(self):
        X = np.column_stack([np.arange(10.0), np.full(10, 7.0)])
        ds = ff.Dataset.from_dense(X, target=(np.arange(10) >= 5).astype(float))
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=5, seed=3))
        _, imp = ff.top_k_similar_explained(forest, ds, X[2], k=3)
        assert imp[1] == 0.0

    def test_single_feature_carries_mass(self):
        X = np.arange(20.0)[:, None]
        ds = ff.Dataset.from_dense(X, target=(X[:, 0] >= 10).astype(float))
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=10, seed=1))
        _, imp = ff.top_k_similar_explained(forest, ds, [9.5], k=3,
                                            n_repeats=8)
        assert imp.shape == (1,)
        assert imp[0] > 0.0

    @pytest.mark.parametrize("n_repeats", [0, -1])
    def test_repeats_below_one_rejected(self, small_forest, n_repeats):
        ds, forest = small_forest
        with pytest.raises(ff.ArgumentError, match="n_repeats"):
            query_proximity_importance(forest, ds, ds.values[0],
                                       n_repeats=n_repeats)

    def test_matches_direct_per_tree_counting(self):
        ds = ff.Dataset.from_dense([[0.0, 5.0], [1.0, 6.0], [2.0, 7.0]],
                                   target=[0.0, 1.0, 1.0])
        trees = [stump(0, 0.5, [1.0, 0.0], [0.0, 2.0], n_features=2),
                 stump(1, 6.5, [1.0, 1.0], [0.0, 1.0], n_features=2)]
        forest = assemble_forest(trees, ds, n_classes=2)
        query = np.array([0.2, 5.5])
        seed = forest.config.seed
        neighbors, imp = ff.top_k_similar_explained(
            forest, ds, query, k=2, n_repeats=4)
        # oracle: same donor streams, manual traversal over both trees
        from forestfuse.rng import query_donor_rng
        from helpers import walk_tree
        expected = np.zeros(2)
        for k in range(2):
            donors = query_donor_rng(seed, k).integers(0, 3, size=4)
            for tree in forest.trees:
                for d in donors:
                    mod = query.copy()
                    mod[k] = ds.values[d, k]
                    if walk_tree(tree, mod) != walk_tree(tree, query):
                        expected[k] += 1
        expected /= 2 * 4
        np.testing.assert_allclose(imp, expected, atol=1e-15)
