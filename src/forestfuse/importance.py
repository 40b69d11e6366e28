"""The four importance measures.

Two classic per-prediction measures and two similarity-structure
measures, all from the same trained forest:

* overall variable importance — permutation accuracy/MSE change per
  feature, or normalized split-gain totals;
* local variable importance — per (sample, feature): the fraction of
  counted trees where a donor perturbation of the feature flips that
  tree's prediction from correct to incorrect;
* local proximity importance — per (sample, feature): the fraction of
  counted trees where the perturbation moves the sample to a different
  terminal node (it changes *where the sample lives*, whether or not the
  prediction survives);
* overall proximity importance — column sums of the local matrix.

"Counted trees" for a sample are the trees where it is out-of-bag and,
for classification-style forests, predicted correctly; regression counts
all OOB trees. Both local measures share donor draws, so a perturbation
that never changes a leaf can never flip a prediction: local variable
importance is dominated by local proximity importance entry-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ArgumentError, ConfigError
from .forest import Forest, _gather, _train_labels, _training_data
from .rng import donor_rng, permute_rng


@dataclass
class ImportanceReport:
    overall_var: np.ndarray
    local_var: np.ndarray
    overall_prox: np.ndarray
    local_prox: np.ndarray
    n_effective: np.ndarray
    overall_var_method: str

    @property
    def zero_effective(self) -> np.ndarray:
        """Rows with no counted trees; their local rows are zero sentinels."""
        return self.n_effective == 0


def counted_trees(forest: Forest, ds: Dataset) -> np.ndarray:
    """(n, T) mask of trees counted per sample.

    OOB trees for regression; OOB-and-correctly-predicted trees for
    classification and unsupervised forests.
    """
    n = forest.n_scored_rows
    if ds.n_rows != n:
        raise ArgumentError("dataset row count does not match the forest")
    mask = forest.oob_mask()[:n].copy()
    if forest.mode == "regression":
        return mask
    y = _train_labels(forest, ds)[:n]
    for t, tree in enumerate(forest.trees):
        rows = np.flatnonzero(mask[:, t])
        if rows.size == 0:
            continue
        pred = tree.predicted_class(forest.leaf_of_train[rows, t])
        mask[rows, t] = pred == y[rows]
    return mask


def _used_features(tree) -> np.ndarray:
    return np.unique(tree.feature[tree.feature >= 0])


def _local_perturbation(forest: Forest, ds: Dataset, *, n_repeats: int,
                        donors: str, seed: int | None):
    """Shared engine for the two local measures.

    Returns (local_prox, local_var, n_effective). Donor draws are keyed
    by (seed, tree, feature), so computing the measures separately or
    together yields identical matrices.
    """
    if donors not in ("sample", "exhaustive"):
        raise ArgumentError(f"unknown donor mode {donors!r}")
    if n_repeats < 1:
        raise ArgumentError("n_repeats must be >= 1")
    if seed is None:
        seed = forest.config.seed
    n = forest.n_scored_rows
    m = forest.n_features
    counted = counted_trees(forest, ds)
    n_eff = counted.sum(axis=1)
    y = _train_labels(forest, ds)[:n]
    regression = forest.mode == "regression"
    data = ds.values if not ds.is_sparse else ds

    prox_hits = np.zeros((n, m), dtype=np.float64)
    var_hits = np.zeros((n, m), dtype=np.float64)
    draws = n_repeats if donors == "sample" else n

    for t, tree in enumerate(forest.trees):
        rows = np.flatnonzero(counted[:, t])
        if rows.size == 0:
            continue
        orig_leaf = forest.leaf_of_train[rows, t]
        if regression:
            orig_sqerr = (tree.leaf_value(orig_leaf) - y[rows]) ** 2
        for k in _used_features(tree):
            k = int(k)
            if donors == "sample":
                donor_ids = donor_rng(seed, t, k).integers(
                    0, n, size=(rows.size, n_repeats))
                reps = [ds.gather_column(donor_ids[:, r], k)
                        for r in range(n_repeats)]
            else:
                column = ds.gather_column(np.arange(n), k)
                reps = [np.full(rows.size, v) for v in column]
            for vals in reps:
                new_leaf = tree.apply(data, rows, override=(k, vals))
                moved = new_leaf != orig_leaf
                prox_hits[rows, k] += moved
                if regression:
                    new_sqerr = (tree.leaf_value(new_leaf) - y[rows]) ** 2
                    var_hits[rows, k] += new_sqerr > orig_sqerr
                else:
                    wrong = tree.predicted_class(new_leaf) != y[rows]
                    var_hits[rows, k] += wrong

    scale = np.where(n_eff > 0, n_eff * draws, 1).astype(np.float64)
    local_prox = prox_hits / scale[:, None]
    local_var = var_hits / scale[:, None]
    return local_prox, local_var, n_eff


def local_proximity_importance(forest: Forest, ds: Dataset, *,
                               n_repeats: int = 1, donors: str = "sample",
                               seed: int | None = None) -> np.ndarray:
    """Per-(sample, feature) terminal-node-change fractions, in [0, 1].

    Entry (i, k) is the fraction of sample i's counted trees in which
    replacing feature k with a random donor's value moves i to a
    different terminal node. Samples with no counted trees get a zero
    row (see ImportanceReport.zero_effective).
    """
    pi, _, _ = _local_perturbation(forest, ds, n_repeats=n_repeats,
                                   donors=donors, seed=seed)
    return pi


def local_variable_importance(forest: Forest, ds: Dataset, *,
                              n_repeats: int = 1, donors: str = "sample",
                              seed: int | None = None) -> np.ndarray:
    """Per-(sample, feature) prediction-flip fractions, in [0, 1].

    Classification counts flips from correct to incorrect; regression
    counts trees whose squared error strictly increases.
    """
    _, lvar, _ = _local_perturbation(forest, ds, n_repeats=n_repeats,
                                     donors=donors, seed=seed)
    return lvar


def overall_proximity_importance(forest: Forest, ds: Dataset, *,
                                 pi: np.ndarray | None = None,
                                 n_repeats: int = 1, donors: str = "sample",
                                 seed: int | None = None) -> np.ndarray:
    """Column sums of the local proximity matrix (unnormalized)."""
    if pi is None:
        pi = local_proximity_importance(forest, ds, n_repeats=n_repeats,
                                        donors=donors, seed=seed)
    return pi.sum(axis=0)


def overall_variable_importance(forest: Forest, ds: Dataset,
                                method: str = "permutation", *,
                                seed: int | None = None) -> np.ndarray:
    """Global per-feature scores.

    "permutation": mean OOB accuracy decrease (MSE increase for
    regression) when the feature is permuted within each tree's OOB set.
    "split_gain": total criterion gain credited to the feature across all
    splits, normalized to sum 1.
    """
    if method == "split_gain":
        totals = np.zeros(forest.n_features, dtype=np.float64)
        for tree in forest.trees:
            totals += tree.split_gain
        s = totals.sum()
        return totals / s if s > 0 else totals
    if method != "permutation":
        raise ConfigError(f"unknown importance method {method!r}")

    if seed is None:
        seed = forest.config.seed
    if ds.n_rows != forest.n_scored_rows:
        raise ArgumentError("dataset row count does not match the forest")
    data = _training_data(ds, forest.mode, forest.config.seed)
    y = _train_labels(forest, ds)
    oob = forest.oob_mask()
    regression = forest.mode == "regression"
    deltas = np.zeros(forest.n_features, dtype=np.float64)
    for t, tree in enumerate(forest.trees):
        rows = np.flatnonzero(oob[:, t])
        if rows.size == 0:
            continue
        orig_leaf = forest.leaf_of_train[rows, t]
        if regression:
            base = float(np.mean((tree.leaf_value(orig_leaf) - y[rows]) ** 2))
        else:
            base = float(np.mean(
                tree.predicted_class(orig_leaf) == y[rows]))
        for k in _used_features(tree):
            k = int(k)
            perm = permute_rng(seed, t, k).permutation(rows.size)
            vals = _gather(data, rows, k)[perm]
            new_leaf = tree.apply(data, rows, override=(k, vals))
            if regression:
                mse = float(np.mean((tree.leaf_value(new_leaf) - y[rows]) ** 2))
                deltas[k] += mse - base
            else:
                acc = float(np.mean(
                    tree.predicted_class(new_leaf) == y[rows]))
                deltas[k] += base - acc
    return deltas / forest.n_trees


def compute_importance_report(forest: Forest, ds: Dataset, *,
                              method: str = "permutation",
                              n_repeats: int = 1, donors: str = "sample",
                              seed: int | None = None) -> ImportanceReport:
    """All four measures in one pass over the forest."""
    local_prox, local_var, n_eff = _local_perturbation(
        forest, ds, n_repeats=n_repeats, donors=donors, seed=seed)
    overall_var = overall_variable_importance(forest, ds, method, seed=seed)
    return ImportanceReport(
        overall_var=overall_var,
        local_var=local_var,
        overall_prox=local_prox.sum(axis=0),
        local_prox=local_prox,
        n_effective=n_eff,
        overall_var_method=method,
    )
