"""Forest proximities and the leaf-membership index.

prox(i, j) is the fraction of trees in which rows i and j land in the
same terminal node. Every reader of that co-membership goes through
`LeafIndex`, the rows grouped by (tree, leaf). The full matrix is
quadratic in row count, so it is capped; top-K queries, greedy outliers
and Young imputation read single groups or one (n,) count vector. The
index covers the real rows only, never an unsupervised synthetic half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ArgumentError, CapacityError
from .forest import Forest, _query_leaves, _walk
from .rng import query_donor_rng

DEFAULT_MATRIX_CAP = 20_000


@dataclass
class ProximityMatrix:
    n: int
    values: np.ndarray
    pair_mode: str


@dataclass(frozen=True)
class Neighbor:
    row_id: int
    score: float


@dataclass
class LeafIndex:
    """Rows grouped by leaf, for all trees at once.

    Leaf `leaf` of tree `t` has the global id ``leaf_offset[t] + leaf``.
    `order` holds row ids grouped by global id, ascending within each
    group, and group g is ``order[start[g]:start[g + 1]]``. A leaf that
    holds no indexed row has an empty group.
    """

    order: np.ndarray
    start: np.ndarray
    leaf_offset: np.ndarray
    n_rows: int

    def members(self, t: int, leaf: int) -> np.ndarray:
        """Ascending row ids in leaf `leaf` of tree `t` (a read-only view)."""
        g = self.leaf_offset[t] + leaf
        return self.order[self.start[g]:self.start[g + 1]]

    def counts(self, leaves) -> np.ndarray:
        """(n_rows,) number of trees t in which a row is in leaf leaves[t]."""
        g = self.leaf_offset + np.asarray(leaves)
        bounds = zip(self.start[g].tolist(), self.start[g + 1].tolist())
        picked = np.concatenate([self.order[a:b] for a, b in bounds])
        return np.bincount(picked, minlength=self.n_rows)


def build_leaf_index(forest: Forest, cells: np.ndarray | None = None
                     ) -> LeafIndex:
    """Group the scored rows by (tree, leaf).

    `cells`, an (n_scored_rows, T) bool mask, keeps only the (row, tree)
    cells it marks; by default every cell is indexed.
    """
    n = forest.n_scored_rows
    T = forest.n_trees
    n_groups = int(forest.leaf_offset[-1])
    gid = forest.leaf_of_train[:n] + forest.leaf_offset[:-1].astype(np.int32)
    if cells is None:
        gid = gid.ravel()
        # a group holds one tree's cells, so ascending cells are ascending rows
        order = np.argsort(gid, kind="stable")
    else:
        order = np.flatnonzero(cells)
        gid = gid.ravel()[order]
        order = order[np.argsort(gid, kind="stable")]
    order //= T
    start = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(gid, minlength=n_groups), out=start[1:])
    return LeafIndex(order.astype(np.int32), start, forest.leaf_offset[:-1], n)


def compute_proximity(forest: Forest, ds: Dataset, pair_mode: str = "all",
                      *, matrix_cap: int = DEFAULT_MATRIX_CAP) -> ProximityMatrix:
    """Full proximity matrix over the training rows.

    pair_mode "all" counts every tree; "oob" restricts both the numerator
    and denominator to trees where both rows are out-of-bag (0 when no
    such tree exists). Raises CapacityError above `matrix_cap` rows; use
    the LeafIndex path for large data.
    """
    if pair_mode not in ("all", "oob"):
        raise ArgumentError(f"unknown pair_mode {pair_mode!r}")
    n = forest.n_scored_rows
    if ds.n_rows != n:
        raise ArgumentError("dataset row count does not match the forest")
    if n > matrix_cap:
        raise CapacityError(
            f"{n} rows exceed the {matrix_cap}-row proximity matrix cap; "
            "use build_leaf_index / top_k_similar instead")

    oob = forest.oob_mask()[:n] if pair_mode == "oob" else None
    index = build_leaf_index(forest, cells=oob)
    counts = np.zeros((n, n), dtype=np.int32)
    bounds = index.start.tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b > a:
            rows = index.order[a:b]
            counts[np.ix_(rows, rows)] += 1
    if oob is None:
        return ProximityMatrix(n, counts.astype(np.float64) / forest.n_trees,
                               "all")
    # trees in which both rows are out-of-bag; float32 sums of 0/1 are exact
    both = oob.astype(np.float32)
    denom = both @ both.T
    values = np.where(denom > 0, counts / np.maximum(denom, 1), 0.0)
    return ProximityMatrix(n, values, "oob")


def top_k_similar(index: LeafIndex, forest: Forest, query, k: int) -> list[Neighbor]:
    """K most similar training rows to a complete query vector.

    Scores are co-occurrence counts divided by the tree count; ties break
    to the lower row id. A query equal to a training row is eligible to
    return itself. k beyond the row count truncates to the full list.
    """
    if k < 1:
        raise ArgumentError("k must be >= 1")
    counts = index.counts(_query_leaves(forest, query))
    k = min(k, index.n_rows)
    order = np.lexsort((np.arange(index.n_rows), -counts))[:k]
    T = forest.n_trees
    return [Neighbor(int(r), counts[r] / T) for r in order]


def query_proximity_importance(forest: Forest, ds: Dataset, query, *,
                               n_repeats: int = 1, seed: int | None = None
                               ) -> np.ndarray:
    """Per-feature leaf-change fractions for an out-of-sample query.

    The OOB-and-correct filter used for training rows is vacuous for a
    point the forest never saw, so every tree counts. Donor values come
    from fixed-seed uniform draws over the training rows.
    """
    if n_repeats < 1:
        raise ArgumentError("n_repeats must be >= 1")
    if seed is None:
        seed = forest.config.seed
    leaves = _query_leaves(forest, query)
    m, T = forest.n_features, forest.n_trees
    # cell (k, r, t): tree t walks the query with feature k from donor draw r
    donors = np.concatenate([ds.gather_column(
        query_donor_rng(seed, k).integers(0, ds.n_rows, size=n_repeats), k)
        for k in range(m)])
    nodes = _walk(forest, np.asarray(query, dtype=np.float64)[None, :],
                  np.zeros(m * n_repeats * T, dtype=np.int64),
                  np.tile(forest.node_offset[:-1], m * n_repeats),
                  (np.repeat(np.arange(m), n_repeats * T),
                   np.repeat(donors, T)))
    moved = forest.leaf_id[nodes].reshape(m, n_repeats, T) != leaves
    return moved.sum(axis=(1, 2)) / (T * n_repeats)


def top_k_similar_explained(index: LeafIndex, forest: Forest, ds: Dataset,
                            query, k: int, *, n_repeats: int = 1,
                            seed: int | None = None
                            ) -> tuple[list[Neighbor], np.ndarray]:
    """Neighbors plus the per-feature explanation of the query's placement."""
    neighbors = top_k_similar(index, forest, query, k)
    importance = query_proximity_importance(
        forest, ds, query, n_repeats=n_repeats, seed=seed)
    return neighbors, importance
