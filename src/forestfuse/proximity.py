"""Forest proximities.

prox(i, j) is the fraction of trees in which rows i and j land in the
same terminal node. One structure holds that co-membership: the forest's
(n, T) `leaf_of_train`, read by equality passes. `cooccurrence_blocks`
compares a block of rows against all rows, one pass per tree; its block
height keeps every per-cell temporary under a byte budget, so outliers,
prototypes and Breiman-Cutler imputation never hold an n x n array. A
top-K query is the same comparison for one leaf vector. The full matrix
of `compute_proximity` stacks the blocks under its own byte budget. All
of them cover the real rows only, never an unsupervised synthetic half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ArgumentError, CapacityError
from .forest import Forest, _check_dataset, _query_leaves, _walk
from .rng import query_donor_rng

# bytes of the float64 matrix `compute_proximity` may return (20,000 rows)
DEFAULT_MAX_BYTES = 8 * 20_000 ** 2
# bytes of one block's per-cell temporaries
DEFAULT_BLOCK_BYTES = 8 << 20


@dataclass
class ProximityMatrix:
    n: int
    values: np.ndarray
    pair_mode: str


@dataclass(frozen=True)
class Neighbor:
    row_id: int
    score: float


def _ids(ids, n: int) -> np.ndarray:
    return np.arange(n) if ids is None else np.asarray(ids, dtype=np.int64)


def cooccurrence_blocks(forest: Forest, rows=None, cols=None, *,
                        pair_mode: str = "all",
                        max_bytes: int = DEFAULT_BLOCK_BYTES,
                        cell_bytes: int = 0):
    """Co-occurrence counts of blocks of `rows` against the rows `cols`.

    Yields (block, counts, denom) for consecutive slices `block` of
    `rows`; both default to every scored row, ascending. counts[r, j] is
    the number of trees in which rows block[r] and cols[j] share a leaf.
    In "oob" mode a tree counts only when both rows are out-of-bag in
    it, and denom[r, j] is the number of such trees; in "all" mode denom
    is None. Both are uint8 up to 255 trees, else uint16 (uint32 beyond
    65,535). Each block holds as many rows as fit b x len(cols) cells of
    the kernel's temporaries plus `cell_bytes` (what the caller builds
    per cell) into `max_bytes`, and at least one.
    """
    if pair_mode not in ("all", "oob"):
        raise ArgumentError(f"unknown pair_mode {pair_mode!r}")
    n, T = forest.n_scored_rows, forest.n_trees
    rows, cols = _ids(rows, n), _ids(cols, n)
    dtype = np.min_scalar_type(T)
    oob = pair_mode == "oob"
    # accumulator and equality buffer, twice over in "oob" mode
    per_cell = (np.dtype(dtype).itemsize + 1) * (2 if oob else 1) + cell_bytes
    height = max(1, max_bytes // (max(1, len(cols)) * per_cell))
    # (T, n) leaf ids in the narrowest type: equality passes run on it
    leaves = forest.leaf_of_train[:n].T
    leaves = np.ascontiguousarray(leaves, np.min_scalar_type(leaves.max()))
    theirs = leaves.take(cols, axis=1)
    if oob:
        out_of_bag = np.ascontiguousarray(forest.oob_mask()[:n].T)
        oob_theirs = out_of_bag.take(cols, axis=1)
    for a in range(0, len(rows), height):
        block = rows[a:a + height]
        counts = np.zeros((len(block), len(cols)), dtype=dtype)
        same = np.empty(counts.shape, dtype=bool)
        denom = np.zeros_like(counts) if oob else None
        both = np.empty_like(same) if oob else None
        mine = leaves[:, block, None]
        for t in range(T):
            np.equal(mine[t], theirs[t], out=same)
            if oob:
                np.logical_and(out_of_bag[t, block, None], oob_theirs[t],
                               out=both)
                np.add(denom, both.view(np.uint8), out=denom)
                same &= both
            np.add(counts, same.view(np.uint8), out=counts)
        yield block, counts, denom


def _square(prox) -> np.ndarray:
    values = prox.values if isinstance(prox, ProximityMatrix) else np.asarray(prox)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ArgumentError("proximity matrix must be square")
    return values


def matrix_rows(prox) -> int:
    """Row count of a Forest's scored rows or of a proximity matrix."""
    return prox.n_scored_rows if isinstance(prox, Forest) else len(_square(prox))


def proximity_rows(prox, rows=None, cols=None, *,
                   max_bytes: int = DEFAULT_BLOCK_BYTES, cell_bytes: int = 0):
    """Blocks of proximities of `rows` to `cols`, from a Forest or a matrix.

    Yields (block, values, scale): prox(block[r], cols[j]) is
    values[r, j] / scale. A Forest gives co-occurrence counts in "all"
    mode and its tree count; a square matrix gives its cells and 1.0, so
    both sources read through the same consumers. Blocks keep
    b x len(cols) cells of the values plus `cell_bytes` under `max_bytes`.
    """
    if isinstance(prox, Forest):
        for block, counts, _ in cooccurrence_blocks(
                prox, rows, cols, max_bytes=max_bytes, cell_bytes=cell_bytes):
            yield block, counts, prox.n_trees
        return
    values = _square(prox)
    rows = _ids(rows, len(values))
    width = len(values) if cols is None else len(cols)
    height = max(1, max_bytes // (max(1, width) * (values.itemsize + cell_bytes)))
    for a in range(0, len(rows), height):
        block = rows[a:a + height]
        yield block, (values[block] if cols is None
                      else values[np.ix_(block, cols)]), 1.0


def nearness_key(values) -> np.ndarray:
    """A unique integer key per cell of a (b, m) array of integers >= 0.

    Along each row a smaller key means a larger value, then a lower
    column, so argpartition on the key picks the strongest cells with
    ties to the lower id. Keys are int32 when they fit, with room above
    them for a caller's exclusion mark at the type's maximum.
    """
    m = values.shape[1]
    itype = np.int32 if (int(values.max()) + 1) * m < 2 ** 31 else np.int64
    key = np.multiply(values, -m, dtype=itype)
    key += np.arange(m, dtype=itype)
    return key


def compute_proximity(forest: Forest, ds: Dataset, pair_mode: str = "all",
                      *, max_bytes: int = DEFAULT_MAX_BYTES) -> ProximityMatrix:
    """Full proximity matrix over the training rows.

    pair_mode "all" counts every tree; "oob" restricts both the numerator
    and denominator to trees where both rows are out-of-bag (0 when no
    such tree exists). Raises CapacityError when the float64 matrix
    needs more than `max_bytes`; outliers, prototypes and imputation
    read a Forest block by block instead.
    """
    if pair_mode not in ("all", "oob"):
        raise ArgumentError(f"unknown pair_mode {pair_mode!r}")
    n = forest.n_scored_rows
    if ds.n_rows != n:
        raise ArgumentError("dataset row count does not match the forest")
    need = 8 * n * n
    if need > max_bytes:
        raise CapacityError(
            f"the {n} x {n} proximity matrix needs {need} bytes, over the "
            f"{max_bytes}-byte budget; read the Forest by row blocks "
            "instead")
    values = np.empty((n, n))
    # per cell: the float64 quotient, and in "oob" mode the mask, the
    # clipped denominator and np.where's result
    for block, counts, denom in cooccurrence_blocks(
            forest, pair_mode=pair_mode, cell_bytes=8 + 1 + 2 + 8):
        if denom is None:
            values[block] = counts / forest.n_trees
        else:
            values[block] = np.where(denom > 0, counts / np.maximum(denom, 1),
                                     0.0)
    return ProximityMatrix(n, values, pair_mode)


def top_k_similar(forest: Forest, query, k: int) -> list[Neighbor]:
    """K most similar training rows to a complete query vector.

    Scores are co-occurrence counts divided by the tree count; ties break
    to the lower row id. A query equal to a training row is eligible to
    return itself. k beyond the row count truncates to the full list.
    """
    if k < 1:
        raise ArgumentError("k must be >= 1")
    n = forest.n_scored_rows
    # int64 counts, so negating them cannot wrap
    counts = np.count_nonzero(
        forest.leaf_of_train[:n] == _query_leaves(forest, query), axis=1)
    order = np.lexsort((np.arange(n), -counts))[:k]
    return [Neighbor(int(r), counts[r] / forest.n_trees) for r in order]


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
    _check_dataset(forest, ds, "donor dataset")
    if ds.n_rows == 0:
        raise ArgumentError("donor dataset has no rows")
    if seed is None:
        seed = forest.config.seed
    leaves = _query_leaves(forest, query)
    m, T = forest.n_features, forest.n_trees
    # cell (k, r, t): tree t walks the query with feature k from donor draw r
    donors = np.concatenate([ds.read_cells(
        query_donor_rng(seed, k).integers(0, ds.n_rows, size=n_repeats), k)
        for k in range(m)])
    nodes = _walk(forest, np.asarray(query, dtype=np.float64)[None, :],
                  np.zeros(m * n_repeats * T, dtype=np.int64),
                  np.tile(forest.node_offset[:-1], m * n_repeats),
                  (np.repeat(np.arange(m), n_repeats * T),
                   np.repeat(donors, T)))
    moved = forest.leaf_id[nodes].reshape(m, n_repeats, T) != leaves
    return moved.sum(axis=(1, 2)) / (T * n_repeats)


def top_k_similar_explained(forest: Forest, ds: Dataset, query, k: int, *,
                            n_repeats: int = 1, seed: int | None = None
                            ) -> tuple[list[Neighbor], np.ndarray]:
    """Neighbors plus the per-feature explanation of the query's placement."""
    neighbors = top_k_similar(forest, query, k)
    importance = query_proximity_importance(
        forest, ds, query, n_repeats=n_repeats, seed=seed)
    return neighbors, importance
