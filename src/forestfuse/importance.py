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

Every measure perturbs cells: (row, tree t, feature k that t splits on)
with a new value v. A perturbed cell follows the row's recorded route
(`leaf_of_train`) down to the first node on it that splits on k and
sends v the other way, so it climbs the k nodes of its route from its
terminal node and walks only from there (`forest._perturbed_walk`);
most cells never leave their route. Cells go in blocks of whole (tree,
feature) runs whose arrays and ancestor table fit `forest.BLOCK_BYTES`.
Draws are keyed by (seed, tree, feature) and sums run in tree order, so
neither the blocks nor the skipped walks change an output. On a forest
from `train_held_out` the recorded route follows held-out routing, and
so does every perturbed cell above the node where it leaves the route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ArgumentError, ConfigError
from .forest import (Forest, _ancestors, _check_dataset, _perturbed_walk,
                     _read, _run_blocks, _TrainingView)
from .rng import donor_streams, permute_streams

# bytes a block holds per cell, beyond 8 per donor draw: the cells' own
# arrays and one perturbed walk's temporaries
_CELL_BYTES = 256


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
    _check_dataset(forest, ds, "dataset")
    mask = forest.oob_mask()[:n]
    if forest.mode == "regression":
        return mask
    y = _TrainingView(ds, forest.mode, forest.config.seed).y[:n]
    nodes = forest.node_of_leaf(forest.leaf_of_train[:n])
    return mask & (np.argmax(forest.value, axis=1)[nodes] == y[:, None])


def _cells(forest: Forest, marked: np.ndarray, cell_bytes: int):
    """Blocks of cells, one per (tree t, feature k t splits on, row marked in t).

    Cells run by tree, then feature, then row, and each block holds whole
    non-empty (t, k) runs: as many as fit cell_bytes per cell, plus the
    ancestor table of the block's trees, into `forest.BLOCK_BYTES`. Yields
    the block's rows, trees and features, its runs as (t, k, start, end)
    within the block, and that table (`forest._ancestors`).
    """
    inner = forest.feature >= 0
    used = np.zeros((forest.n_trees, forest.n_features), dtype=bool)
    used[forest.node_tree()[inner], forest.feature[inner]] = True
    pair_tree, pair_feat = np.nonzero(used)
    owner, marked_rows = np.nonzero(marked.T)
    first = np.searchsorted(owner, np.arange(forest.n_trees + 1))
    size = np.diff(first)[pair_tree]
    full = size > 0
    pair_tree, pair_feat, size = pair_tree[full], pair_feat[full], size[full]
    for lo, hi in _run_blocks(forest, pair_tree, size, cell_bytes):
        trees, feats, sizes = pair_tree[lo:hi], pair_feat[lo:hi], size[lo:hi]
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        rows = marked_rows[np.repeat(first[trees] - bounds[:-1], sizes)
                           + np.arange(bounds[-1])]
        runs = list(zip(trees.tolist(), feats.tolist(), bounds[:-1].tolist(),
                        bounds[1:].tolist()))
        yield (rows, np.repeat(trees, sizes), np.repeat(feats, sizes), runs,
               _ancestors(forest, trees[0], trees[-1] + 1, feats))


def _local_perturbation(forest: Forest, ds: Dataset, *, n_repeats: int,
                        donors: str):
    """Shared engine for the two local measures.

    Returns (local_prox, local_var, n_effective). Donor draws are keyed
    by (the forest's seed, tree, feature), so computing the measures
    separately or together yields identical matrices. One perturbed walk
    per block and donor draw.
    """
    if donors not in ("sample", "exhaustive"):
        raise ArgumentError(f"unknown donor mode {donors!r}")
    if n_repeats < 1:
        raise ArgumentError("n_repeats must be >= 1")
    n, m = forest.n_scored_rows, forest.n_features
    counted = counted_trees(forest, ds)
    n_eff = counted.sum(axis=1)
    y = _TrainingView(ds, forest.mode, forest.config.seed).y[:n]
    regression = forest.mode == "regression"
    predicted = None if regression else np.argmax(forest.value, axis=1)
    data = ds if ds.is_sparse else ds.values
    terminal = forest.node_of_leaf(forest.leaf_of_train[:n])
    streams = donor_streams(forest.config.seed)

    prox_hits = np.zeros(n * m, dtype=np.float64)
    var_hits = np.zeros(n * m, dtype=np.float64)
    for rows, trees, feats, runs, ancestors in _cells(
            forest, counted, _CELL_BYTES + 8 * n_repeats):
        orig = terminal[rows, trees]
        if regression:
            orig_sqerr = (forest.value[orig] - y[rows]) ** 2
        if donors == "sample":
            draws = np.concatenate([
                streams(t, k).integers(0, n, size=(b - a, n_repeats))
                for t, k, a, b in runs]).T
        else:
            draws = (np.full(len(rows), d) for d in range(n))
        slot = rows * m + feats
        for donor in draws:
            new = _perturbed_walk(forest, data, rows, orig, feats,
                                  _read(data, donor, feats), ancestors)
            prox_hits += np.bincount(slot, weights=new != orig,
                                     minlength=n * m)
            if regression:
                worse = (forest.value[new] - y[rows]) ** 2 > orig_sqerr
            else:
                worse = predicted[new] != y[rows]
            var_hits += np.bincount(slot, weights=worse, minlength=n * m)

    n_draws = n_repeats if donors == "sample" else n
    scale = np.where(n_eff > 0, n_eff * n_draws, 1).astype(np.float64)
    return (prox_hits.reshape(n, m) / scale[:, None],
            var_hits.reshape(n, m) / scale[:, None], n_eff)


def local_proximity_importance(forest: Forest, ds: Dataset, *,
                               n_repeats: int = 1, donors: str = "sample"
                               ) -> np.ndarray:
    """Per-(sample, feature) terminal-node-change fractions, in [0, 1].

    Entry (i, k) is the fraction of sample i's counted trees in which
    replacing feature k with a random donor's value moves i to a
    different terminal node. Samples with no counted trees get a zero
    row (see ImportanceReport.zero_effective).
    """
    pi, _, _ = _local_perturbation(forest, ds, n_repeats=n_repeats,
                                   donors=donors)
    return pi


def local_variable_importance(forest: Forest, ds: Dataset, *,
                              n_repeats: int = 1, donors: str = "sample"
                              ) -> np.ndarray:
    """Per-(sample, feature) prediction-flip fractions, in [0, 1].

    Classification counts flips from correct to incorrect; regression
    counts trees whose squared error strictly increases.
    """
    _, lvar, _ = _local_perturbation(forest, ds, n_repeats=n_repeats,
                                     donors=donors)
    return lvar


def overall_proximity_importance(forest: Forest, ds: Dataset, *,
                                 pi: np.ndarray | None = None,
                                 n_repeats: int = 1, donors: str = "sample"
                                 ) -> np.ndarray:
    """Column sums of the local proximity matrix (unnormalized)."""
    if pi is None:
        pi = local_proximity_importance(forest, ds, n_repeats=n_repeats,
                                        donors=donors)
    return pi.sum(axis=0)


def overall_variable_importance(forest: Forest, ds: Dataset,
                                method: str = "permutation") -> np.ndarray:
    """Global per-feature scores.

    "permutation": mean OOB accuracy decrease (MSE increase for
    regression) when the feature is permuted within each tree's OOB set.
    "split_gain": total criterion gain credited to the feature across all
    splits, normalized to sum 1.
    """
    if method == "split_gain":
        totals = forest.split_gain.sum(axis=0)  # tree by tree, in order
        s = totals.sum()
        return totals / s if s > 0 else totals
    if method != "permutation":
        raise ConfigError(f"unknown importance method {method!r}")

    if ds.n_rows != forest.n_scored_rows:
        raise ArgumentError("dataset row count does not match the forest")
    _check_dataset(forest, ds, "dataset")
    view = _TrainingView(ds, forest.mode, forest.config.seed)
    data, y = view.columns, view.y
    regression = forest.mode == "regression"
    predicted = None if regression else np.argmax(forest.value, axis=1)

    def score(nodes, rows):
        if regression:
            return (forest.value[nodes] - y[rows]) ** 2
        return predicted[nodes] == y[rows]

    # every used feature of every tree, permuted within the tree's OOB rows
    terminal = forest.node_of_leaf(forest.leaf_of_train)
    streams = permute_streams(forest.config.seed)
    deltas = np.zeros(forest.n_features, dtype=np.float64)
    for rows, trees, feats, runs, ancestors in _cells(
            forest, forest.oob_mask(), _CELL_BYTES):
        perm = np.concatenate([a + streams(t, k).permutation(b - a)
                               for t, k, a, b in runs])
        end = terminal[rows, trees]
        new = _perturbed_walk(forest, data, rows, end, feats,
                              _read(data, rows, feats)[perm], ancestors)
        before, after = score(end, rows), score(new, rows)
        for _, k, a, b in runs:
            base = float(np.mean(before[a:b]))
            moved = float(np.mean(after[a:b]))
            deltas[k] += moved - base if regression else base - moved
    return deltas / forest.n_trees


def compute_importance_report(forest: Forest, ds: Dataset, *,
                              method: str = "permutation",
                              n_repeats: int = 1, donors: str = "sample"
                              ) -> ImportanceReport:
    """All four measures in one pass over the forest."""
    local_prox, local_var, n_eff = _local_perturbation(
        forest, ds, n_repeats=n_repeats, donors=donors)
    overall_var = overall_variable_importance(forest, ds, method)
    return ImportanceReport(
        overall_var=overall_var,
        local_var=local_var,
        overall_prox=local_prox.sum(axis=0),
        local_prox=local_prox,
        n_effective=n_eff,
        overall_var_method=method,
    )
