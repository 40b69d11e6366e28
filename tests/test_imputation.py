"""Imputation: fill rules, iterative methods, and the validator."""

from functools import partial
from unittest import mock

import numpy as np
import pytest
from helpers import (assemble_forest, bc_oracle, correlated_data, leaf_tree,
                     mcar_mask, stump, young_oracle)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import forestfuse as ff
from forestfuse import imputation
from forestfuse.forest import train_held_out
from forestfuse.proximity import proximity_rows


def cat_schema():
    return ff.FeatureSchema([
        ff.Feature("x", ff.CONTINUOUS),
        ff.Feature("c", ff.CATEGORICAL, ("a", "b", "z")),
    ])


def small_config(mode="unsupervised", trees=25, seed=0, **kw):
    return ff.ImputationConfig(
        forest_config=ff.ForestConfig(mode=mode, n_trees=trees,
                                      min_node_size=3, seed=seed), **kw)


class TestInitialImpute:
    def test_median_fill(self):
        ds = ff.Dataset.from_dense([[1.0], [0.0], [3.0]],
                                   missing_mask=[[False], [True], [False]])
        out = ff.initial_impute(ds)
        assert out.values[1, 0] == 2.0
        assert out.values[0, 0] == 1.0
        assert not out.has_missing

    def test_categorical_mode_fill(self):
        ds = ff.Dataset.from_dense(
            [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 0.0]],
            schema=cat_schema(),
            missing_mask=[[False, False]] * 3 + [[False, True]])
        out = ff.initial_impute(ds)
        assert out.values[3, 1] == 0.0
        assert not out.has_missing

    def test_mode_tie_goes_to_lowest_code(self):
        ds = ff.Dataset.from_dense(
            [[0.0, 2.0], [0.0, 1.0], [0.0, 2.0], [0.0, 1.0], [0.0, 0.0]],
            schema=cat_schema(),
            missing_mask=[[False, False]] * 4 + [[False, True]])
        out = ff.initial_impute(ds)
        assert out.values[4, 1] == 1.0  # codes 1 and 2 tie with 2 -> lower

    def test_no_missing_is_identity(self):
        ds = ff.Dataset.from_dense([[1.0], [2.0]])
        assert ff.initial_impute(ds) is ds

    def test_all_missing_feature_rejected(self):
        ds = ff.Dataset.from_dense([[1.0, 0.0], [2.0, 0.0]],
                                   missing_mask=[[False, True], [False, True]])
        with pytest.raises(ff.ImputationError, match="f1"):
            ff.initial_impute(ds)


class TestFillRules:
    """Breiman-Cutler fills of row 0's one missing cell from a hand-made
    proximity matrix whose row 0 holds the donors' weights."""

    @staticmethod
    def fill(donor_values, weights, schema=None, fallback=9.0):
        values = np.array([[0.0]] + [[v] for v in donor_values])
        missing = np.zeros(values.shape, dtype=bool)
        missing[0, 0] = True
        ds = ff.Dataset.from_dense(values, schema=schema, missing_mask=missing)
        prox = np.eye(len(values))
        prox[0, 1:] = weights
        new_values, fallbacks = ff.bc_reimpute(ff.initial_impute(ds), missing,
                                               prox, [fallback])
        return new_values[0, 0], fallbacks

    @staticmethod
    def codes(n):
        return ff.FeatureSchema([ff.Feature("c", ff.CATEGORICAL,
                                            ("a", "b", "z")[:n])])

    def test_weighted_mean_even_weights(self):
        assert self.fill([2.0, 4.0], [0.5, 0.5]) == (3.0, [])

    def test_weighted_mean_single_donor(self):
        assert self.fill([2.0, 4.0], [1.0, 0.0]) == (2.0, [])

    def test_weighted_mean_zero_weight(self):
        assert self.fill([2.0, 4.0], [0.0, 0.0]) == (9.0, [(0, 0)])

    def test_weighted_mode_majority_mass(self):
        # class 0 donors carry 0.9 total vs class 1 total 0.3
        got = self.fill([0, 0, 1], [0.5, 0.4, 0.3], self.codes(2), 1.0)
        assert got == (0.0, [])

    def test_weighted_mode_tie_to_lowest(self):
        assert self.fill([1, 0], [0.5, 0.5], self.codes(3), 2.0) == (0.0, [])


def mixed_data(n, n_cont, n_cat, frac, seed, target=False):
    """Rounded normals and three-code categoricals with MCAR cells hidden;
    returns (dataset, its missing mask)."""
    rng = np.random.default_rng(seed)
    schema = ff.FeatureSchema(
        [ff.Feature(f"x{k}", ff.CONTINUOUS) for k in range(n_cont)]
        + [ff.Feature(f"c{k}", ff.CATEGORICAL, ("a", "b", "z"))
           for k in range(n_cat)])
    # three codes over small leaves, so weights, modes and votes tie
    values = np.column_stack(
        [np.round(rng.normal(size=(n, n_cont)), 3),
         rng.integers(0, 3, size=(n, n_cat))]).astype(float)
    missing = hide_cells(values, frac, seed)
    ds = ff.Dataset.from_dense(
        values, schema=schema, missing_mask=missing,
        target=rng.normal(size=n) if target else None)
    return ds, missing


class TestBreimanCutlerFills:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 25), n_cont=st.integers(0, 2),
           n_cat=st.integers(0, 2), n_trees=st.integers(1, 12),
           frac=st.floats(0.05, 0.8), mode=st.sampled_from(
               ["unsupervised", "regression"]),
           block_bytes=st.sampled_from([None, 1, 200]),
           seed=st.integers(0, 2 ** 16))
    def test_matches_per_cell_oracle(self, n, n_cont, n_cat, n_trees, frac,
                                     mode, block_bytes, seed):
        assume(n_cont + n_cat > 0)
        ds, missing = mixed_data(n, n_cont, n_cat, frac, seed,
                                 target=mode == "regression")
        filled = ff.initial_impute(ds)
        fills = imputation._column_fills(ds)
        forest = imputation._inner_train(filled, ff.ForestConfig(
            mode=mode, n_trees=n_trees, min_node_size=1, seed=seed),
            held_out=missing)
        categorical = ds.schema.is_categorical()
        want, want_fallbacks = bc_oracle(forest, filled.values, missing,
                                         categorical, fills)
        # the default budget, then blocks of one row and of a few rows
        blocks = proximity_rows if block_bytes is None \
            else partial(proximity_rows, max_bytes=block_bytes)
        with mock.patch.object(imputation, "proximity_rows", blocks):
            got, fallbacks = ff.bc_reimpute(filled, missing, forest, fills)
        assert fallbacks == want_fallbacks
        np.testing.assert_array_equal(got[:, categorical], want[:, categorical])
        np.testing.assert_allclose(got[:, ~categorical], want[:, ~categorical],
                                   rtol=1e-12, atol=1e-14)
        # a matrix of the counts over the tree count gives the same means;
        # with the same blocks, the same products and floats. (Its modes
        # read float weights, so a tie of counts need not stay a tie.)
        prox = ff.compute_proximity(forest, filled.without_target())
        on_matrix, matrix_fallbacks = ff.bc_reimpute(filled, missing, prox,
                                                     fills)
        assert matrix_fallbacks == fallbacks
        np.testing.assert_allclose(on_matrix[:, ~categorical],
                                   want[:, ~categorical], rtol=1e-12,
                                   atol=1e-14)
        if block_bytes is None:
            np.testing.assert_array_equal(on_matrix[:, ~categorical],
                                          got[:, ~categorical])


class TestPassShapes:
    """Both single passes reject inputs that do not fit the dataset."""

    @staticmethod
    def make(n=12):
        ds, missing = mixed_data(n, 2, 1, 0.2, 4)
        filled = ff.initial_impute(ds)
        forest = imputation._inner_train(filled, ff.ForestConfig(
            mode="unsupervised", n_trees=3, seed=0))
        return filled, missing, forest, imputation._column_fills(ds)

    @staticmethod
    def passes(filled, fills):
        return (lambda m, src: ff.bc_reimpute(filled, m, src, fills),
                lambda m, src: ff.young_reimpute(filled, m, src))

    def test_mask_of_another_shape(self):
        filled, missing, forest, fills = self.make()
        for reimpute in self.passes(filled, fills):
            for bad in (missing[:, :2], missing[:-1], missing[0]):
                with pytest.raises(ff.ArgumentError,
                                   match="missing mask shape"):
                    reimpute(bad, forest)

    def test_source_of_another_row_count(self):
        filled, missing, _, fills = self.make()
        other = self.make(n=11)[2]
        for reimpute in self.passes(filled, fills):
            with pytest.raises(ff.ArgumentError, match="rows must match"):
                reimpute(missing, other)
        with pytest.raises(ff.ArgumentError, match="rows must match"):
            ff.bc_reimpute(filled, missing, np.eye(13), fills)

    def test_fills_of_another_length(self):
        filled, missing, forest, fills = self.make()
        for bad in (fills[:2], np.append(fills, 0.0), 0.0):
            with pytest.raises(ff.ArgumentError, match="one value per feature"):
                ff.bc_reimpute(filled, missing, forest, bad)


class TestYoungEstimates:
    def make_setup(self):
        # 4 rows; f0 missing at row 0 with donor values 2, 4, 5 at rows 1-3;
        # f1 drives the tree structure
        values = np.array([[np.nan, 0.0], [2.0, 0.2], [4.0, 0.4], [5.0, 0.9]])
        ds = ff.Dataset.from_dense(
            np.nan_to_num(values), missing_mask=[[True, False]] + [[False] * 2] * 3)
        filled = ff.initial_impute(ds)
        return ds, filled

    def test_single_tree_mean_of_leaf_members(self):
        ds, filled = self.make_setup()
        # root leaf: co-members of row 0 are rows 1,2,3... restrict donors
        # to {1,2} by splitting row 3 away at f1 <= 0.5
        tree = stump(1, 0.5, [3.0], [1.0], n_features=2)
        inbag = np.array([[0], [1], [1], [1]], dtype=np.uint16)
        forest = assemble_forest([tree], ff.Dataset.from_dense(filled.values),
                                 mode="regression", inbag_counts=inbag)
        new_values, fallbacks = ff.young_reimpute(filled, ds.missing, forest)
        assert new_values[0, 0] == 3.0  # mean of {2, 4}
        assert fallbacks == []

    def test_two_trees_average(self):
        ds, filled = self.make_setup()
        t1 = stump(1, 0.5, [3.0], [1.0], n_features=2)   # leaf {0,1,2}: mean 3
        t2 = stump(1, 0.3, [2.0], [2.0], n_features=2)   # leaf {0,1}? no:
        # f1 values: 0.0, 0.2, 0.4, 0.9 -> t2 left = {0,1}, donors {2.0} -> 2
        t3 = leaf_tree(mean=0.0, n=4, n_features=2)      # all rows: mean of
        # {2,4,5} = 11/3
        train = ff.Dataset.from_dense(filled.values)
        # each tree alone fills its own leaf mean, all three their average
        for trees, want in (([t1], 3.0), ([t2], 2.0),
                            ([t3], pytest.approx(11 / 3)),
                            ([t1, t2, t3],
                             pytest.approx((3.0 + 2.0 + 11 / 3) / 3))):
            inbag = np.zeros((4, len(trees)), dtype=np.uint16)
            inbag[1:, :] = 1
            forest = assemble_forest(trees, train, mode="regression",
                                     inbag_counts=inbag)
            new_values, fallbacks = ff.young_reimpute(filled, ds.missing,
                                                      forest)
            assert new_values[0, 0] == want
            assert fallbacks == []

    def test_no_oob_tree_falls_back(self):
        ds, filled = self.make_setup()
        tree = leaf_tree(mean=0.0, n=4, n_features=2)
        inbag = np.ones((4, 1), dtype=np.uint16)
        forest = assemble_forest([tree], ff.Dataset.from_dense(filled.values),
                                 mode="regression", inbag_counts=inbag)
        new_values, fallbacks = ff.young_reimpute(filled, ds.missing, forest)
        assert fallbacks == [(0, 0)]
        assert new_values[0, 0] == filled.values[0, 0]

    def test_categorical_ties_and_fallbacks(self):
        # f0 is categorical: rows 0 and 1 missing, donors 2-5 hold codes
        # 2, 1, 1, 2; f1 drives the trees
        f1 = [0.0, 0.9, 0.1, 0.2, 0.8, 0.7]
        values = np.column_stack([[0, 0, 2, 1, 1, 2], f1]).astype(float)
        schema = ff.FeatureSchema([
            ff.Feature("c", ff.CATEGORICAL, ("a", "b", "z")),
            ff.Feature("x", ff.CONTINUOUS)])
        ds = ff.Dataset.from_dense(values, schema=schema, missing_mask=[
            [True, False], [True, False]] + [[False, False]] * 4)
        filled = ff.initial_impute(ds)
        trees = [leaf_tree(mean=0.0, n=6, n_features=2),  # codes tie 1:1 -> 1
                 stump(1, 0.5, [0.0], [0.0], n_features=2),
                 stump(1, 0.15, [0.0], [0.0], n_features=2),  # {0, 2} -> 2
                 stump(1, 0.05, [0.0], [0.0], n_features=2)]  # {0}: no donor
        inbag = np.ones((6, 4), dtype=np.uint16)
        inbag[0] = [0, 1, 0, 0]  # row 1 is in-bag in every tree
        forest = assemble_forest(trees, ff.Dataset.from_dense(filled.values),
                                 mode="regression", inbag_counts=inbag)
        new_values, fallbacks = ff.young_reimpute(filled, ds.missing, forest)
        # row 0: tree 0 votes 1, tree 2 votes 2, tree 3 has no donor; the
        # 1:1 vote goes to the lower code
        assert new_values[0, 0] == 1.0
        assert fallbacks == [(1, 0)]
        assert new_values[1, 0] == filled.values[1, 0]
        oracle = young_oracle(forest, filled.values, ds.missing, [True, False])
        np.testing.assert_array_equal(new_values, oracle[0])
        assert fallbacks == oracle[1]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 25), n_cont=st.integers(0, 2),
           n_cat=st.integers(0, 2), n_trees=st.integers(1, 12),
           frac=st.floats(0.05, 0.8), mode=st.sampled_from(
               ["unsupervised", "regression"]), seed=st.integers(0, 2 ** 16))
    def test_matches_per_cell_oracle(self, n, n_cont, n_cat, n_trees, frac,
                                     mode, seed):
        assume(n_cont + n_cat > 0)
        ds, missing = mixed_data(n, n_cont, n_cat, frac, seed,
                                 target=mode == "regression")
        filled = ff.initial_impute(ds)
        forest = imputation._inner_train(filled, ff.ForestConfig(
            mode=mode, n_trees=n_trees, min_node_size=1, seed=seed))
        categorical = ds.schema.is_categorical()
        got, fallbacks = ff.young_reimpute(filled, missing, forest)
        want, want_fallbacks = young_oracle(forest, filled.values, missing,
                                            categorical)
        assert fallbacks == want_fallbacks
        np.testing.assert_array_equal(got[:, categorical],
                                      want[:, categorical])
        np.testing.assert_allclose(got[:, ~categorical], want[:, ~categorical],
                                   rtol=1e-12, atol=1e-14)


def hide_cells(values, frac, seed):
    mask = mcar_mask(values.shape, frac, seed)
    # keep at least one observed value per column
    for k in range(values.shape[1]):
        if mask[:, k].all():
            mask[0, k] = False
    return mask


class TestIterativeMethods:
    def make_mcar(self, seed=0, n=160):
        truth = correlated_data(n, seed=seed, n_features=4, noise=0.05)
        mask = hide_cells(truth, 0.15, seed + 1)
        ds = ff.Dataset.from_dense(truth, missing_mask=mask)
        return truth, mask, ds

    def test_observed_cells_untouched(self):
        truth, mask, ds = self.make_mcar()
        for method in ("breiman_cutler", "young"):
            result = ff.impute(ds, small_config(trees=15, method=method))
            out = result.dataset.values
            np.testing.assert_array_equal(out[~mask], truth[~mask])

    def test_imputed_values_within_observed_range(self):
        truth, mask, ds = self.make_mcar(seed=3)
        for method in ("breiman_cutler", "young"):
            result = ff.impute(ds, small_config(trees=15, method=method))
            out = result.dataset.values
            for k in range(4):
                obs = truth[~mask[:, k], k]
                imputed = out[mask[:, k], k]
                assert imputed.min() >= obs.min() - 1e-12
                assert imputed.max() <= obs.max() + 1e-12

    def test_result_is_complete(self):
        _, mask, ds = self.make_mcar(seed=5, n=60)
        for method in ("breiman_cutler", "young"):
            cfg = small_config(trees=5, max_iters=2, method=method)
            out = ff.impute(ds, cfg).dataset
            assert not out.has_missing
            assert ff.impute(out, cfg).dataset is out
            ff.train(out, cfg.forest_config)
            train_held_out(out, mask, cfg.forest_config)
            ff.generate_synthetic(out, seed=0)

    def test_no_missing_returns_input_unchanged(self):
        ds = ff.Dataset.from_dense(correlated_data(50, seed=5))
        for method in ("breiman_cutler", "young"):
            result = ff.impute(ds, small_config(method=method))
            assert result.dataset is ds
            assert result.converged
            assert result.trace == []

    def test_beats_median_imputation(self):
        truth, mask, ds = self.make_mcar(seed=7, n=200)
        median_rmse = self.rmse(ff.initial_impute(ds).values, truth, mask)
        for method in ("breiman_cutler", "young"):
            result = ff.impute(ds, small_config(trees=25, method=method))
            rmse = self.rmse(result.dataset.values, truth, mask)
            assert rmse < median_rmse

    @staticmethod
    def rmse(filled, truth, mask):
        return float(np.sqrt(np.mean((filled[mask] - truth[mask]) ** 2)))

    def test_bc_converges_within_six_iterations(self):
        truth, mask, ds = self.make_mcar(seed=11)
        result = ff.impute_breiman_cutler(ds, small_config(trees=25))
        assert result.converged
        assert len(result.trace) <= 6
        assert result.trace[-1].max_rel_change < 1e-3

    def test_bc_trains_its_forest_once(self, monkeypatch):
        truth, mask, ds = self.make_mcar(seed=11)
        cfg = small_config(trees=10, max_iters=3)
        calls = []

        def counting_train_held_out(*args, **kwargs):
            calls.append(1)
            return train_held_out(*args, **kwargs)

        def retraining_step(current):
            forest = imputation._inner_train(current, cfg.forest_config,
                                             held_out=ds.missing)
            prox = ff.compute_proximity(forest, current.without_target(),
                                        pair_mode="all").values
            return ff.bc_reimpute(current, ds.missing, prox,
                                  imputation._column_fills(ds))

        monkeypatch.setattr(imputation, "train_held_out",
                            counting_train_held_out)
        result = ff.impute_breiman_cutler(ds, cfg)
        assert len(calls) == 1
        retrained = imputation._run_iterations(ds, cfg, retraining_step)
        assert len(calls) == 1 + len(retrained.trace) == 3
        np.testing.assert_array_equal(result.dataset.values,
                                      retrained.dataset.values)
        assert result.trace == retrained.trace
        assert result.trace[-1].max_rel_change == 0.0
        assert result.converged and retrained.converged
        assert result.fallback_cells == retrained.fallback_cells

    def test_bc_computes_its_fills_once(self, monkeypatch):
        _, _, ds = self.make_mcar(seed=11)
        calls = []

        def counting_bc_reimpute(*args):
            calls.append(1)
            return ff.bc_reimpute(*args)

        monkeypatch.setattr(imputation, "bc_reimpute", counting_bc_reimpute)
        result = ff.impute_breiman_cutler(ds, small_config(trees=10,
                                                           max_iters=3))
        assert len(calls) == 1
        assert len(result.trace) == 2 and result.converged
        assert result.trace[1].max_rel_change == 0.0

    def test_trace_shape(self):
        truth, mask, ds = self.make_mcar(seed=13)
        result = ff.impute_breiman_cutler(
            ds, small_config(trees=10, max_iters=2, tol=1e-12))
        assert [st.iteration for st in result.trace] == \
            list(range(1, len(result.trace) + 1))

    def test_categorical_imputation(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=60)
        codes = (x > 0).astype(float)  # category tracks the sign of x
        values = np.column_stack([x, codes])
        mask = np.zeros_like(values, dtype=bool)
        mask[::6, 1] = True
        ds = ff.Dataset.from_dense(values, schema=cat_schema(),
                                   missing_mask=mask)
        result = ff.impute(ds, small_config(trees=20))
        filled = result.dataset.values
        agreement = np.mean(filled[mask[:, 1], 1] == codes[mask[:, 1]])
        assert agreement >= 0.8

    def test_bad_config(self):
        ds = ff.Dataset.from_dense([[1.0]])
        with pytest.raises(ff.ConfigError):
            ff.impute(ds, small_config(method="nope"))
        with pytest.raises(ff.ConfigError):
            ff.impute(ds, small_config(max_iters=0))
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(ff.ConfigError, match="tol"):
                ff.impute(ds, small_config(tol=tol))

    def test_bad_forest_config_on_complete_data(self):
        # a complete dataset trains no forest, and its config is still
        # checked
        ds = ff.Dataset.from_dense([[1.0], [2.0]])
        for fc in (ff.ForestConfig(mode="nope", n_trees=-5),
                   ff.ForestConfig(mode="unsupervised", n_trees=0),
                   ff.ForestConfig(mode="unsupervised", n_bins=1)):
            for method in ("breiman_cutler", "young"):
                with pytest.raises(ff.ConfigError):
                    ff.impute(ds, ff.ImputationConfig(forest_config=fc,
                                                      method=method))


class TestValidator:
    def test_reference_beats_shuffled(self):
        truth = correlated_data(150, seed=21, n_features=4, noise=0.05)
        reference = ff.Dataset.from_dense(truth)
        rng = np.random.default_rng(22)
        shuffled = np.column_stack([rng.permutation(truth[:, k])
                                    for k in range(4)])
        candidates = [("reference", reference),
                      ("shuffled", ff.Dataset.from_dense(shuffled))]
        report = ff.validate_imputations(reference, candidates,
                                         small_config(trees=30))
        assert report.ranking[0] == "reference"
        assert report.ranking[-1] == "shuffled"
        assert report.scores["shuffled"] > report.scores["reference"]
        for v in report.scores.values():
            assert 0.0 <= v <= 1.0

    def test_shape_mismatch_rejected(self):
        reference = ff.Dataset.from_dense(np.zeros((10, 2)))
        bad = ff.Dataset.from_dense(np.zeros((10, 3)))
        with pytest.raises(ff.ArgumentError):
            ff.validate_imputations(reference, [("bad", bad)], small_config())

    def test_incomplete_reference_rejected(self):
        reference = ff.Dataset.from_dense([[1.0], [2.0]],
                                          missing_mask=[[True], [False]])
        with pytest.raises(ff.ArgumentError):
            ff.validate_imputations(reference, [], small_config())

    def test_duplicate_names_rejected(self):
        reference = ff.Dataset.from_dense(np.random.default_rng(0)
                                          .normal(size=(20, 2)))
        with pytest.raises(ff.ArgumentError):
            ff.validate_imputations(
                reference, [("a", reference), ("a", reference)],
                small_config())
